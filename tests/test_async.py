"""Asynchronous staleness-weighted aggregation tests.

Five layers:

1. **Discounts** — the constant/polynomial/adaptive staleness discounts'
   arithmetic, validation, and the adaptive exponent's SignOGD walk.
2. **Event queue** — commit batching, deterministic arrival ordering,
   and the staleness each commit actually records (cross-backend and
   synchronous-equivalence identity live in ``tests/test_engine.py``'s
   equivalence matrix; the pinned async history in its golden suite).
3. **Scenario composition** — a commit is the engine's round, so a
   scenario's adversary and robust aggregator act on every commit
   (synchronous mode equals the plain trainer with the same scenario on
   every backend), and a deadline gate is rejected.
4. **Telemetry** — async runs emit schema-valid ``round`` events with
   ``staleness``/``staleness_max`` and per-arrival ``async.arrival``
   spans through the existing registry, as strict JSONL, and tracing
   never changes results.
5. **Experiment wiring** — ``ScenarioConfig.async_mode`` and friends,
   the :func:`repro.experiments.scenario.run_async_comparison` panel
   (async must reach the shared target loss in less simulated time than
   the synchronous barrier under heterogeneous timing), and the CLI
   flags.
"""

import json

import numpy as np
import pytest

from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.fl.async_engine import (
    DEFAULT_EXPONENT_INTERVAL,
    STALENESS_DISCOUNT_KINDS,
    AdaptiveStalenessDiscount,
    AsyncFLTrainer,
    ConstantDiscount,
    PolynomialDiscount,
    build_staleness_discount,
)
from repro.nn.models import make_mlp
from repro.obs import open_telemetry
from repro.obs.events import validate_event
from repro.scenarios import DeploymentScenario, ScenarioConfig
from repro.simulation.heterogeneous import (
    ClientProfile,
    HeterogeneousTimingModel,
)
from repro.simulation.timing import TimingModel
from repro.sparsify.fab_topk import FABTopK


def _federation(num_writers=6, seed=5):
    ds = make_femnist_like(num_writers=num_writers, samples_per_writer=20,
                           num_classes=10, image_size=8, classes_per_writer=4,
                           seed=seed)
    return partition_by_writer(ds, seed=seed)


def _profiles(fed, slow_ids, factor=4.0):
    return [
        ClientProfile(
            client_id=c.client_id,
            compute_factor=factor if c.client_id in slow_ids else 1.0,
            comm_factor=factor if c.client_id in slow_ids else 1.0,
        )
        for c in fed.clients
    ]


def _async_trainer(discount="constant", commit_count=3, slow_ids=(0, 3),
                   telemetry=None, seed=5, **kwargs):
    fed = _federation(seed=seed)
    model = make_mlp(64, 10, hidden=(12,), seed=seed)
    profiles = _profiles(fed, set(slow_ids))
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=10.0, profiles=profiles
    )
    return AsyncFLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=0.05,
        batch_size=8, eval_every=4, seed=seed, discount=discount,
        commit_count=commit_count, profiles=profiles, telemetry=telemetry,
        **kwargs,
    )


def _rows(history):
    """History as comparable tuples (NaN losses mapped to None)."""
    return [
        (r.round_index, r.k, r.round_time, r.cumulative_time,
         None if np.isnan(r.loss) else r.loss, r.accuracy,
         r.uplink_elements, r.downlink_elements,
         tuple(sorted(r.contributions.items())))
        for r in history
    ]


# ----------------------------------------------------------------------
# Staleness discounts
# ----------------------------------------------------------------------
class TestDiscounts:
    def test_constant_is_staleness_blind(self):
        d = ConstantDiscount(0.5)
        assert d.factor(0) == d.factor(7) == 0.5
        assert d.probe_exponent() is None and not d.adaptive

    def test_constant_validates_range(self):
        with pytest.raises(ValueError):
            ConstantDiscount(0.0)
        with pytest.raises(ValueError):
            ConstantDiscount(1.5)
        with pytest.raises(ValueError):
            ConstantDiscount(1.0).factor(-1)

    def test_polynomial_attenuation(self):
        d = PolynomialDiscount(exponent=1.0)
        assert d.factor(0) == 1.0
        assert d.factor(1) == pytest.approx(0.5)
        assert d.factor(3) == pytest.approx(0.25)
        assert PolynomialDiscount(exponent=0.0).factor(9) == 1.0

    def test_adaptive_probe_strictly_below_current(self):
        d = AdaptiveStalenessDiscount()
        a = d.exponent
        probe = d.probe_exponent()
        assert 0.0 < probe < a
        assert d.factor(2) == pytest.approx((1.0 + 2) ** -a)

    def test_adaptive_walk_moves_with_signs(self):
        d = AdaptiveStalenessDiscount()
        start = d.exponent
        d.observe(1)  # positive estimated gradient: step the exponent down
        stepped = d.exponent
        assert stepped < start
        d.observe(None)  # uninformative commit: unchanged
        assert d.exponent == stepped
        lo, hi = DEFAULT_EXPONENT_INTERVAL
        for _ in range(64):
            d.observe(1)
        assert d.exponent >= lo  # clamped to the interval
        for _ in range(64):
            d.observe(-1)
        assert d.exponent <= hi

    def test_frozen_adaptive_never_probes(self):
        d = AdaptiveStalenessDiscount(a1=0.7, probe=False)
        assert d.probe_exponent() is None
        assert d.exponent == pytest.approx(0.7)

    def test_builder_kinds_and_aliases(self):
        assert isinstance(build_staleness_discount("poly"),
                          PolynomialDiscount)
        assert isinstance(build_staleness_discount("const"),
                          ConstantDiscount)
        for kind in STALENESS_DISCOUNT_KINDS:
            assert build_staleness_discount(kind).name == kind
        with pytest.raises(ValueError):
            build_staleness_discount("linear")


# ----------------------------------------------------------------------
# Event queue / commit mechanics
# ----------------------------------------------------------------------
class TestCommitMechanics:
    def test_commits_record_staleness(self):
        trainer = _async_trainer(commit_count=3)
        trainer.run(8, k=12)
        trace = trainer.staleness_history
        assert len(trace) == 8
        assert trace[0] == 0.0  # first commit: everything fresh
        assert max(trace) > 0.0  # stragglers eventually arrive stale
        assert all(s >= 0.0 for s in trace)

    def test_virtual_clock_matches_history(self):
        trainer = _async_trainer(commit_count=3)
        history = trainer.run(6, k=12)
        records = list(history)
        assert trainer.clock == pytest.approx(trainer.virtual_clock)
        assert records[-1].cumulative_time == pytest.approx(
            trainer.virtual_clock
        )
        times = [r.round_time for r in records]
        assert all(t > 0.0 for t in times)
        assert len(set(round(t, 9) for t in times)) > 1  # commits re-time

    def test_buffered_commits_outpace_the_barrier(self):
        # Same cohort, same stragglers: committing after the fast half
        # must advance simulated time faster than waiting for everyone.
        buffered = _async_trainer(commit_count=3)
        barrier = _async_trainer(commit_count=0)
        buffered.run(6, k=12)
        barrier.run(6, k=12)
        assert buffered.virtual_clock < barrier.virtual_clock

    def test_discount_scales_the_update(self):
        # A global 0.5 discount halves every wire value, so the very
        # first commit's step must differ from the undiscounted one.
        full = _async_trainer(discount=ConstantDiscount(1.0))
        half = _async_trainer(discount=ConstantDiscount(0.5))
        full.step(12)
        half.step(12)
        assert not np.array_equal(
            full.model.get_weights(), half.model.get_weights()
        )

    def test_adaptive_exponent_walks_under_staleness(self):
        trainer = _async_trainer(discount="adaptive", commit_count=3)
        trainer.run(10, k=12)
        history = trainer.discount.exponent_history
        assert len(history) >= 10
        assert len(set(history)) > 1  # the walk actually moved

    def test_run_round_runs_one_commit(self):
        # A commit *is* the engine's round: run_round(k) on the engine
        # must run exactly one commit, identical to the trainer's step.
        via_engine = _async_trainer(discount="adaptive", commit_count=3)
        via_step = _async_trainer(discount="adaptive", commit_count=3)
        for m in range(1, 6):
            via_engine.engine.run_round(12)
            via_step.step(12)
            assert len(via_engine.history) == m
            assert via_engine.version == m
            assert len(via_engine.staleness_history) == m
        assert _rows(via_engine.history) == _rows(via_step.history)
        assert via_engine.staleness_history == via_step.staleness_history
        assert via_engine.virtual_clock == via_step.virtual_clock
        np.testing.assert_array_equal(
            via_engine.model.get_weights(), via_step.model.get_weights()
        )

    def test_sync_mode_validates_preconditions(self):
        with pytest.raises(ValueError):
            _async_trainer(commit_count=3, synchronous=True)
        with pytest.raises(ValueError):
            _async_trainer(discount=ConstantDiscount(0.5), commit_count=0,
                           synchronous=True)

    def test_scenario_and_sampler_are_exclusive(self):
        fed = _federation()
        model = make_mlp(64, 10, hidden=(12,), seed=5)
        config = ScenarioConfig(availability="always", participants=4)
        ids = [c.client_id for c in fed.clients]
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        scenario = DeploymentScenario.build(config, ids, timing)
        with pytest.raises(ValueError):
            AsyncFLTrainer(model, fed, FABTopK(), timing=timing,
                           scenario=scenario, sampler=scenario.sampler)

    def test_scenario_supplies_sampler_and_profiles(self):
        fed = _federation()
        model = make_mlp(64, 10, hidden=(12,), seed=5)
        config = ScenarioConfig(
            availability="always", participants=4, slow_fraction=0.25,
            seed=5,
        )
        ids = [c.client_id for c in fed.clients]
        profiles = config.build_profiles(ids)
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0, profiles=profiles
        )
        scenario = DeploymentScenario.build(config, ids, timing, profiles)
        trainer = AsyncFLTrainer(
            model, fed, FABTopK(), timing=timing, scenario=scenario,
            commit_count=2, seed=5,
        )
        history = trainer.run(4, k=12)
        assert all(r.round_index == i + 1 for i, r in enumerate(history))
        assert trainer.engine.profiles  # profiles came from the scenario


# ----------------------------------------------------------------------
# Scenario composition: a commit is the engine's round, so the scenario's
# hooks (adversary, reweighting, flagged accounting) run on every commit
# ----------------------------------------------------------------------
#: half of an 8-client population sign-flips its uploads; no deadline
SIGN_FLIP = ScenarioConfig(
    availability="always", adversary="sign_flip", adversary_fraction=0.5,
    aggregator="cosine", slow_fraction=0.25, slow_factor=4.0, seed=5,
)


def _scenario_trainer(cls, backend="serial", config=SIGN_FLIP, **kwargs):
    fed = _federation(num_writers=8)
    model = make_mlp(64, 10, hidden=(12,), seed=5)
    ids = [c.client_id for c in fed.clients]
    profiles = config.build_profiles(ids)
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=10.0, profiles=profiles
    )
    scenario = DeploymentScenario.build(config, ids, timing, profiles)
    trainer = cls(
        model, fed, FABTopK(), timing=timing, learning_rate=0.05,
        batch_size=8, eval_every=2, seed=5, backend=backend,
        scenario=scenario, **kwargs,
    )
    return trainer, scenario


class TestScenarioComposition:
    @pytest.mark.parametrize("backend", ("serial", "vectorized", "sharded"))
    def test_sync_mode_with_adversary_matches_plain_trainer(self, backend):
        from repro.fl.trainer import FLTrainer
        from repro.parallel.sharded import ShardedBackend

        def make_backend():
            return ShardedBackend(jobs=2) if backend == "sharded" else backend

        plain, plain_scenario = _scenario_trainer(FLTrainer, make_backend())
        sync, sync_scenario = _scenario_trainer(
            AsyncFLTrainer, make_backend(), synchronous=True
        )
        plain.run(5, k=12)
        sync.run(5, k=12)
        plain.close()
        sync.close()
        assert _rows(sync.history) == _rows(plain.history)
        np.testing.assert_array_equal(
            sync.model.get_weights(), plain.model.get_weights()
        )
        corrupted = plain_scenario.stats.corrupted_by_client
        assert sum(corrupted.values()) > 0
        assert sync_scenario.stats.corrupted_by_client == corrupted
        assert sync.staleness_history == []  # the plain round is never stale
        flagged = plain_scenario.stats.flagged_by_client
        assert flagged
        assert sync_scenario.stats.flagged_by_client == flagged

    def test_buffered_commits_corrupt_every_adversarial_upload(
        self, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        telemetry = open_telemetry(str(path))
        trainer, scenario = _scenario_trainer(
            AsyncFLTrainer, commit_count=4, discount="polynomial",
            telemetry=telemetry,
        )
        trainer.run(5, k=12)
        telemetry.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        committed = [e["client_id"] for e in events
                     if e["type"] == "span" and e["name"] == "async.arrival"]
        assert len(committed) == 5 * 4
        adversary = scenario.hooks.adversary
        expected = {}
        for cid in committed:
            if adversary.is_adversary(cid):
                expected[cid] = expected.get(cid, 0) + 1
        assert expected, "no adversarial upload was committed"
        assert scenario.stats.corrupted_by_client == expected

    def test_exponent_probe_reaggregates_the_received_wire(self):
        # The probe must replay what the server received — the poisoned
        # payloads — not the honest ones restored for the residual reset.
        trainer, _ = _scenario_trainer(
            AsyncFLTrainer, commit_count=4, discount="adaptive"
        )
        server = trainer.engine.server
        aggregate = server.aggregate
        calls = []

        def spy(uploads, selection, total_weight=None, commit=True):
            calls.append((commit, {
                up.client_id: up.payload.values.copy() for up in uploads
            }))
            return aggregate(uploads, selection, total_weight=total_weight,
                             commit=commit)

        server.aggregate = spy
        trainer.run(5, k=12)
        probes = [
            (wire, probe) for (real, wire), (counterfactual, probe)
            in zip(calls, calls[1:]) if real and not counterfactual
        ]
        assert probes
        for wire, probe in probes:
            assert wire.keys() == probe.keys()
            for cid, values in wire.items():
                np.testing.assert_array_equal(
                    np.sign(probe[cid]), np.sign(values)
                )

    @pytest.mark.parametrize("overrides", (
        dict(deadline=2.5),
        dict(participants=4, over_selection=0.5),
    ))
    def test_deadline_gate_is_rejected(self, overrides):
        config = SIGN_FLIP.with_overrides(**overrides)
        with pytest.raises(ValueError, match="deadline"):
            _scenario_trainer(AsyncFLTrainer, config=config, commit_count=4)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestAsyncTelemetry:
    def _trace(self, tmp_path, **kwargs):
        path = tmp_path / "trace.jsonl"
        telemetry = open_telemetry(str(path))
        trainer = _async_trainer(telemetry=telemetry, **kwargs)
        trainer.run(6, k=12)
        telemetry.close()
        records = [
            json.loads(line, parse_constant=lambda s: pytest.fail(
                f"non-strict JSON token {s}"
            ))
            for line in path.read_text().splitlines() if line
        ]
        for record in records:
            validate_event(record)
        return trainer, records

    def test_round_events_carry_staleness(self, tmp_path):
        trainer, records = self._trace(tmp_path, commit_count=3)
        rounds = [r for r in records if r["type"] == "round"]
        assert len(rounds) == 6
        for event in rounds:
            validate_event(event)
            assert event["staleness"] >= 0.0
            assert event["staleness_max"] >= event["staleness"]
            assert event["in_flight"] >= 0
            assert event["version"] == event["round"]
        assert [r["staleness"] for r in rounds] == trainer.staleness_history
        # A fixed discount has no exponent to trace.
        assert all("staleness_exponent" not in r for r in rounds)

    def test_round_events_carry_the_played_exponent(self, tmp_path):
        trainer, records = self._trace(
            tmp_path, discount="adaptive", commit_count=3
        )
        rounds = [r for r in records if r["type"] == "round"]
        played = [r["staleness_exponent"] for r in rounds]
        assert played == trainer.discount.exponent_history[:len(rounds)]
        assert len(set(played)) > 1  # the walk moved
        for event in rounds:
            probe = event["staleness_probe_exponent"]
            # Only a commit with a stale arrival runs the probe.
            assert (probe is None) == (event["staleness_max"] == 0)
            if probe is not None:
                assert 0.0 < probe < event["staleness_exponent"]

    def test_arrival_spans_are_schema_valid(self, tmp_path):
        trainer, records = self._trace(tmp_path, commit_count=3)
        spans = [r for r in records
                 if r["type"] == "span" and r["name"] == "async.arrival"]
        rounds = [r for r in records if r["type"] == "round"]
        assert len(spans) == sum(r["participants"] for r in rounds)
        for span in spans:
            validate_event(span)
            assert span["seconds"] > 0.0  # virtual flight time
            assert span["staleness"] >= 0
        assert max(s["staleness"] for s in spans) > 0

    def test_tracing_changes_nothing(self, tmp_path):
        traced, _ = self._trace(tmp_path, commit_count=3)
        untraced = _async_trainer(commit_count=3)
        untraced.run(6, k=12)
        np.testing.assert_array_equal(
            traced.model.get_weights(), untraced.model.get_weights()
        )
        assert traced.staleness_history == untraced.staleness_history


# ----------------------------------------------------------------------
# Experiment wiring: config, panel, CLI
# ----------------------------------------------------------------------
class TestAsyncWiring:
    def test_scenario_config_fields_round_trip(self):
        config = ScenarioConfig.default_churn().with_overrides(
            async_mode=True, staleness_discount="poly", commit_count=4,
        )
        assert config.staleness_discount == "polynomial"  # alias folded
        assert ScenarioConfig.from_dict(config.to_dict()) == config

    def test_scenario_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(staleness_discount="linear")
        with pytest.raises(ValueError):
            ScenarioConfig(commit_count=-1)

    def test_resolve_commit_count(self):
        from repro.experiments.scenario import resolve_commit_count

        explicit = ScenarioConfig(commit_count=5)
        assert resolve_commit_count(explicit, num_clients=20) == 5
        cohort = ScenarioConfig(participants=8)
        assert resolve_commit_count(cohort, num_clients=20) == 4
        everyone = ScenarioConfig()
        assert resolve_commit_count(everyone, num_clients=6) == 3
        assert resolve_commit_count(ScenarioConfig(participants=1),
                                    num_clients=6) == 1

    def test_async_comparison_panel(self):
        from repro.experiments.config import scaled_config
        from repro.experiments.scenario import (
            ASYNC_VARIANTS,
            run_async_comparison,
        )

        config = scaled_config("smoke", "scenario")
        scenario = ScenarioConfig.default_churn().with_overrides(
            seed=config.seed, async_mode=True,
        )
        config = config.with_overrides(scenario=scenario.to_dict())
        result = run_async_comparison(config)
        assert sorted(result.histories) == sorted(ASYNC_VARIANTS)
        assert result.loss_vs_time.labels() == list(ASYNC_VARIANTS)
        # The acceptance comparison: async reaches the shared reachable
        # target loss in less simulated time than the sync barrier.
        reachable = max(result.final_losses().values())
        times = result.time_to_loss(reachable)
        assert times["async-constant"] < times["sync"]
        # Staleness traces exist for every async variant and actually
        # record staleness; the adaptive variant adds its exponent trace.
        labels = result.staleness.labels()
        for variant in ASYNC_VARIANTS[1:]:
            assert variant in labels
            assert max(result.staleness.get(variant).y) > 0.0
        assert "async-adaptive exponent" in labels

    def test_cli_flags(self):
        from repro.cli import _scenario_overrides, build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["scenario", "--async", "--staleness", "poly",
             "--commit-count", "4"]
        )
        overrides = _scenario_overrides(args, seed=0)
        assert overrides["async_mode"] is True
        assert overrides["staleness_discount"] == "polynomial"
        assert overrides["commit_count"] == 4
        # async-only knobs imply the async comparison
        implied = _scenario_overrides(
            parser.parse_args(["scenario", "--staleness", "adaptive"]),
            seed=0,
        )
        assert implied["async_mode"] is True
        plain = _scenario_overrides(parser.parse_args(["scenario"]), seed=0)
        assert plain["async_mode"] is False
