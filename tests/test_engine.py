"""RoundEngine and execution-backend tests.

Three layers of guarantees:

1. **Golden histories** — the engine-based trainers reproduce, bit for
   bit, histories captured from the pre-engine (seed) implementations of
   ``FLTrainer``, ``AdaptiveKTrainer``, ``FedAvgTrainer`` and
   ``AlwaysSendAllTrainer`` (``tests/data/golden_histories.json``).
2. **Backend equivalence** — ``VectorizedBackend`` and the
   multiprocessing ``ShardedBackend`` produce histories (losses, clocks,
   uplink/downlink counts, contributions) and final weights *identical*
   to ``SerialBackend`` across sparsifier families (including the
   quantization-wrapped path) and model families (MLP and CNN — conv/pool
   run the grouped im2col pass), plus the batched-unsupported fallbacks
   (momentum masking, active dropout).
3. **Batched kernels** — ``FlatModel.gradients_batched`` and
   ``top_k_indices_batched`` equal their per-client counterparts exactly.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.compress.quantization import QuantizedSparsifier, UniformQuantizer
from repro.data.partition import partition_by_writer, partition_iid
from repro.data.synthetic import make_femnist_like, make_gaussian_blobs
from repro.fl.async_engine import AsyncFLTrainer
from repro.fl.client import Client
from repro.fl.backends import (
    BACKEND_NAMES,
    SerialBackend,
    VectorizedBackend,
    resolve_backend,
)
from repro.parallel.sharded import ShardedBackend
from repro.fl.fedavg import AlwaysSendAllTrainer, FedAvgTrainer
from repro.fl.trainer import FLTrainer
from repro.nn.flat import FlatModel
from repro.nn.layers import Dropout, Linear, Sequential
from repro.nn.models import make_cnn, make_logistic, make_mlp
from repro.online.adaptive_trainer import AdaptiveKTrainer, _ProbeHooks
from repro.online.algorithm2 import SignOGD
from repro.online.interval import SearchInterval
from repro.online.policy import SignPolicy
from repro.scenarios import ScenarioConfig
from repro.simulation.heterogeneous import (
    ClientSampler,
    HeterogeneousTimingModel,
)
from repro.simulation.timing import TimingModel
from repro.sparsify.fab_topk import FABTopK
from repro.sparsify.fub_topk import FUBTopK
from repro.sparsify.periodic import PeriodicK
from repro.sparsify.topk import top_k_indices, top_k_indices_batched
from repro.sparsify.unidirectional import UnidirectionalTopK

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_histories.json"


def history_rows(history):
    """History as comparable tuples (NaN losses mapped to None)."""
    return [
        (
            r.round_index,
            r.k,
            r.round_time,
            r.cumulative_time,
            None if np.isnan(r.loss) else r.loss,
            r.accuracy,
            r.uplink_elements,
            r.downlink_elements,
        )
        for r in history
    ]


def contribution_rows(history):
    return [tuple(sorted(r.contributions.items())) for r in history]


# ----------------------------------------------------------------------
# Golden histories captured from the seed (pre-engine) implementations.
# The scenario constructions below must not change, or the goldens lose
# their meaning.
# ----------------------------------------------------------------------
def _golden_federation():
    ds = make_gaussian_blobs(num_samples=240, num_classes=4, feature_dim=12,
                             separation=3.0, seed=7)
    return partition_iid(ds, num_clients=6, seed=7)


def _golden_setup():
    model = make_logistic(12, 4, seed=7)
    timing = TimingModel(dimension=model.dimension, comm_time=8.0)
    return model, _golden_federation(), timing


def _golden_fl():
    model, fed, timing = _golden_setup()
    trainer = FLTrainer(model, fed, FABTopK(), timing=timing,
                        learning_rate=0.1, batch_size=8, eval_every=3, seed=7)
    return trainer.run(10, k=9)


def _golden_adaptive():
    model, fed, timing = _golden_setup()
    policy = SignPolicy(SignOGD(SearchInterval(2.0, float(model.dimension))))
    trainer = AdaptiveKTrainer(model, fed, FABTopK(), policy, timing,
                               learning_rate=0.1, batch_size=8, eval_every=2,
                               seed=7)
    return trainer.run(8)


def _golden_fedavg():
    model, fed, timing = _golden_setup()
    trainer = FedAvgTrainer(model, fed, timing, aggregation_period=3,
                            learning_rate=0.1, batch_size=8, eval_every=2,
                            seed=7)
    return trainer.run(9)


def _golden_sendall():
    model, fed, timing = _golden_setup()
    trainer = AlwaysSendAllTrainer(model, fed, timing, learning_rate=0.1,
                                   batch_size=8, eval_every=2, seed=7)
    return trainer.run(6)


def _golden_cnn():
    # Pinned after PR 3's conv rewrite: the grouped-conv serial path is
    # the reference now, and cross-backend equality alone cannot catch a
    # regression that moves *all* backends together.  4 rounds of the
    # fig6-style CNN on the serial backend.
    ds = make_femnist_like(num_writers=6, samples_per_writer=12,
                           num_classes=6, image_size=8, classes_per_writer=3,
                           flatten=False, seed=7)
    fed = partition_by_writer(ds, seed=7)
    model = make_cnn(image_size=8, channels=1, num_classes=6,
                     dense_width=8, seed=7)
    timing = TimingModel(dimension=model.dimension, comm_time=8.0)
    trainer = FLTrainer(model, fed, FABTopK(), timing=timing,
                        learning_rate=0.05, batch_size=6, eval_every=2,
                        seed=7, backend="serial")
    return trainer.run(4, k=20)


def _golden_async_profiles(model, fed):
    """Every third client a 4x straggler — arrivals must reorder."""
    from repro.simulation.heterogeneous import (
        ClientProfile,
        HeterogeneousTimingModel,
    )

    profiles = [
        ClientProfile(
            client_id=c.client_id,
            compute_factor=4.0 if c.client_id % 3 == 0 else 1.0,
            comm_factor=4.0 if c.client_id % 3 == 0 else 1.0,
        )
        for c in fed.clients
    ]
    timing = HeterogeneousTimingModel(
        model.dimension, comm_time=8.0, profiles=profiles
    )
    return profiles, timing


def _golden_async():
    # Pinned in PR 10: the asynchronous commit engine's virtual-time path
    # has no seed implementation to diff against (the synchronous special
    # case is covered by bit-identity with ``fl_trainer``), so its first
    # verified history is the reference — commits of 3 arrivals under the
    # polynomial staleness discount with a straggling third of the cohort.
    model, fed, _ = _golden_setup()
    profiles, timing = _golden_async_profiles(model, fed)
    trainer = AsyncFLTrainer(
        model, fed, FABTopK(), timing=timing, learning_rate=0.1,
        batch_size=8, eval_every=3, seed=7, discount="polynomial",
        commit_count=3, profiles=profiles,
    )
    return trainer.run(10, k=9)


def _golden_async_quantized():
    # Pins the order of the async wire seam: quantization (preprocessing)
    # runs before the staleness discount scales the wire values, and the
    # residual reset subtracts the undiscounted quantized upload.  With an
    # identity preprocessing step (the plain async golden) the discount's
    # position relative to preprocessing is invisible.
    model, fed, _ = _golden_setup()
    profiles, timing = _golden_async_profiles(model, fed)
    sparsifier = QuantizedSparsifier(
        FABTopK(), UniformQuantizer(num_levels=15, seed=7)
    )
    trainer = AsyncFLTrainer(
        model, fed, sparsifier, timing=timing, learning_rate=0.1,
        batch_size=8, eval_every=3, seed=7, discount="polynomial",
        commit_count=3, profiles=profiles,
    )
    return trainer.run(10, k=9)


GOLDEN_SCENARIOS = {
    "fl_trainer": _golden_fl,
    "adaptive_trainer": _golden_adaptive,
    "fedavg_trainer": _golden_fedavg,
    "sendall_trainer": _golden_sendall,
    "cnn_fl_trainer": _golden_cnn,
    "async_fl_trainer": _golden_async,
    "async_quantized_fl_trainer": _golden_async_quantized,
}


class TestGoldenHistories:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_engine_reproduces_seed_history(self, name):
        golden = json.loads(GOLDEN_PATH.read_text())[name]
        expected = [
            (row["round_index"], row["k"], row["round_time"],
             row["cumulative_time"], row["loss"], row["accuracy"],
             row["uplink_elements"], row["downlink_elements"])
            for row in golden
        ]
        assert history_rows(GOLDEN_SCENARIOS[name]()) == expected


# ----------------------------------------------------------------------
# Serial vs vectorized vs sharded backend equivalence
# ----------------------------------------------------------------------
#: non-reference backends that must match SerialBackend bit for bit
FAST_BACKENDS = ("vectorized", "sharded")


def make_backend(name):
    """Backend spec under test; sharded forces a real 2-worker pool.

    (``jobs`` defaults to the machine's CPU count, which would silently
    take the in-process fallback on single-core CI runners.)
    """
    if name == "sharded":
        return ShardedBackend(jobs=2)
    return name


def _federation(num_writers=10, seed=5):
    ds = make_femnist_like(num_writers=num_writers, samples_per_writer=20,
                           num_classes=10, image_size=8, classes_per_writer=4,
                           seed=seed)
    return partition_by_writer(ds, seed=seed)


def _fl_trainer(backend, sparsifier_factory, seed=5, **kwargs):
    fed = _federation(seed=seed)
    model = make_mlp(64, 10, hidden=(12,), seed=seed)
    timing = TimingModel(dimension=model.dimension, comm_time=10.0)
    return FLTrainer(model, fed, sparsifier_factory(model), timing=timing,
                     learning_rate=0.05, batch_size=8, eval_every=4,
                     seed=seed, backend=backend, **kwargs)


def _cnn_federation(seed=5):
    ds = make_femnist_like(num_writers=6, samples_per_writer=12,
                           num_classes=6, image_size=8, classes_per_writer=3,
                           flatten=False, seed=seed)
    return partition_by_writer(ds, seed=seed)


def _adaptive_trainer(backend, model_kind="mlp", **kwargs):
    """The paper's adaptive-k trainer on the MLP or the fig6-style CNN."""
    if model_kind == "cnn":
        fed = _cnn_federation()
        model = make_cnn(image_size=8, channels=1, num_classes=6,
                         dense_width=8, seed=5)
        batch_size = 6
    else:
        fed = _federation()
        model = make_mlp(64, 10, hidden=(12,), seed=5)
        batch_size = 8
    timing = TimingModel(dimension=model.dimension, comm_time=10.0)
    policy = SignPolicy(SignOGD(SearchInterval(2.0, float(model.dimension))))
    return AdaptiveKTrainer(model, fed, FABTopK(), policy, timing,
                            learning_rate=0.05, batch_size=batch_size,
                            eval_every=2, seed=5, backend=backend, **kwargs)


SPARSIFIER_FACTORIES = {
    "fab-top-k": lambda model: FABTopK(),
    "fub-top-k": lambda model: FUBTopK(),
    "unidirectional": lambda model: UnidirectionalTopK(),
    "periodic": lambda model: PeriodicK(model.dimension, seed=5),
    "quantized-fab": lambda model: QuantizedSparsifier(
        FABTopK(), UniformQuantizer(num_levels=15, seed=5)
    ),
}


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    @pytest.mark.parametrize("name", sorted(SPARSIFIER_FACTORIES))
    def test_fl_histories_identical(self, name, backend_name):
        factory = SPARSIFIER_FACTORIES[name]
        serial = _fl_trainer("serial", factory)
        fast = _fl_trainer(make_backend(backend_name), factory)
        hs = serial.run(10, k=15)
        hf = fast.run(10, k=15)
        assert history_rows(hs) == history_rows(hf)
        assert contribution_rows(hs) == contribution_rows(hf)
        np.testing.assert_array_equal(
            serial.model.get_weights(), fast.model.get_weights()
        )
        fast.close()

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_residuals_identical_after_run(self, backend_name):
        serial = _fl_trainer("serial", SPARSIFIER_FACTORIES["fab-top-k"])
        fast = _fl_trainer(
            make_backend(backend_name), SPARSIFIER_FACTORIES["fab-top-k"]
        )
        serial.run(8, k=12)
        fast.run(8, k=12)
        for cs, cf in zip(serial.clients, fast.clients):
            np.testing.assert_array_equal(cs.residual, cf.residual)
        fast.close()

    @pytest.mark.parametrize(
        "backend_name, model_kind",
        [pytest.param(b, "mlp", id=b) for b in FAST_BACKENDS]
        + [pytest.param(b, "cnn", id=f"{b}-cnn") for b in FAST_BACKENDS],
    )
    def test_adaptive_histories_identical(self, backend_name, model_kind):
        fast = _adaptive_trainer(make_backend(backend_name), model_kind)
        serial = _adaptive_trainer("serial", model_kind)
        assert history_rows(serial.run(8)) == history_rows(fast.run(8))
        np.testing.assert_array_equal(
            serial.model.get_weights(), fast.model.get_weights()
        )
        fast.close()

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_always_send_all_identical(self, backend_name):
        def build(backend):
            fed = _federation()
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            timing = TimingModel(dimension=model.dimension, comm_time=10.0)
            return AlwaysSendAllTrainer(model, fed, timing, learning_rate=0.05,
                                        batch_size=8, eval_every=2, seed=5,
                                        backend=backend)
        fast = build(make_backend(backend_name))
        assert history_rows(build("serial").run(5)) == history_rows(
            fast.run(5)
        )
        fast.close()

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_sampler_subset_identical(self, backend_name):
        # Partial participation also exercises the sharded backend's lazy
        # client registration (clients join the pool on first selection).
        def build(backend):
            fed = _federation()
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            timing = TimingModel(dimension=model.dimension, comm_time=10.0)
            sampler = ClientSampler(
                [c.client_id for c in fed.clients], count=4, seed=5
            )
            return FLTrainer(model, fed, FABTopK(), timing=timing,
                             learning_rate=0.05, batch_size=8, eval_every=3,
                             sampler=sampler, seed=5, backend=backend)
        fast = build(make_backend(backend_name))
        assert history_rows(build("serial").run(8, k=12)) == history_rows(
            fast.run(8, k=12)
        )
        fast.close()

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_momentum_fallback_identical(self, backend_name):
        # Momentum masking disables the batched residual reset; the
        # vectorized backend must fall back without changing results
        # (momentum state stays in the parent under sharding anyway).
        factory = SPARSIFIER_FACTORIES["fab-top-k"]
        serial = _fl_trainer("serial", factory, momentum_correction=0.5)
        fast = _fl_trainer(
            make_backend(backend_name), factory, momentum_correction=0.5
        )
        assert history_rows(serial.run(8, k=12)) == history_rows(
            fast.run(8, k=12)
        )
        fast.close()

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_cnn_model_grouped_and_identical(self, backend_name):
        # Conv2D/MaxPool2D implement the grouped im2col pass, so CNN
        # configs no longer fall back to per-client gradients on the
        # vectorized backend — and every backend must still produce
        # bit-equal histories, weights and residuals.
        def build(backend):
            fed = _cnn_federation()
            model = make_cnn(image_size=8, channels=1, num_classes=6,
                             dense_width=8, seed=5)
            timing = TimingModel(dimension=model.dimension, comm_time=10.0)
            return FLTrainer(model, fed, FABTopK(), timing=timing,
                             learning_rate=0.05, batch_size=6, eval_every=2,
                             seed=5, backend=backend)
        fast = build(make_backend(backend_name))
        assert fast.model.supports_batched_gradients()
        serial = build("serial")
        hs = serial.run(3, k=20)
        hf = fast.run(3, k=20)
        assert history_rows(hs) == history_rows(hf)
        assert contribution_rows(hs) == contribution_rows(hf)
        np.testing.assert_array_equal(
            serial.model.get_weights(), fast.model.get_weights()
        )
        for cs, cf in zip(serial.clients, fast.clients):
            np.testing.assert_array_equal(cs.residual, cf.residual)
        fast.close()

    def test_cnn_vectorized_run_takes_grouped_path(self, monkeypatch):
        # A 3-round CNN config on the vectorized backend runs the grouped
        # Conv2D/MaxPool2D im2col pass — one batched gradient call per
        # round, no per-client fallback — and stays bit-equal to serial.
        def build(backend):
            ds = make_femnist_like(num_writers=6, samples_per_writer=12,
                                   num_classes=6, image_size=8,
                                   classes_per_writer=3, flatten=False,
                                   seed=0)
            fed = partition_by_writer(ds, seed=0)
            model = make_cnn(image_size=8, channels=1, num_classes=6,
                             dense_width=8, seed=0)
            timing = TimingModel(dimension=model.dimension, comm_time=10.0)
            return FLTrainer(model, fed, FABTopK(), timing=timing,
                             learning_rate=0.05, batch_size=6, eval_every=1,
                             seed=0, backend=backend)

        vec = build("vectorized")
        assert vec.model.supports_batched_gradients(), "CNN fell back to serial"
        calls = {"gradient": 0, "gradients_batched": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                def spy(self, *args, _name=name,
                        _original=getattr(FlatModel, name)):
                    calls[_name] += 1
                    return _original(self, *args)
                patch.setattr(FlatModel, name, spy)
            vec.run(3, k=20)
        assert calls == {"gradient": 0, "gradients_batched": 3}
        serial = build("serial")
        serial.run(3, k=20)
        assert [(r.loss, r.accuracy) for r in vec.history] == [
            (r.loss, r.accuracy) for r in serial.history
        ], "histories diverged"
        np.testing.assert_array_equal(
            vec.model.get_weights(), serial.model.get_weights()
        )

    @staticmethod
    def _async_trainer(backend, synchronous=False):
        fed = _federation()
        model = make_mlp(64, 10, hidden=(12,), seed=5)
        from repro.simulation.heterogeneous import (
            ClientProfile,
            HeterogeneousTimingModel,
        )
        profiles = [
            ClientProfile(
                client_id=c.client_id,
                compute_factor=3.0 if c.client_id % 4 == 0 else 1.0,
                comm_factor=3.0 if c.client_id % 4 == 0 else 1.0,
            )
            for c in fed.clients
        ]
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0, profiles=profiles
        )
        extra = (
            dict(synchronous=True) if synchronous
            else dict(discount="polynomial", commit_count=4)
        )
        return AsyncFLTrainer(
            model, fed, FABTopK(), timing=timing, learning_rate=0.05,
            batch_size=8, eval_every=4, seed=5, backend=backend,
            profiles=profiles, **extra,
        )

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_async_commit_histories_identical(self, backend_name):
        # The event queue runs in the parent: virtual arrival times,
        # commit batching, and staleness discounts must be backend-blind.
        serial = self._async_trainer("serial")
        fast = self._async_trainer(make_backend(backend_name))
        hs = serial.run(10, k=15)
        hf = fast.run(10, k=15)
        assert history_rows(hs) == history_rows(hf)
        assert contribution_rows(hs) == contribution_rows(hf)
        assert serial.staleness_history == fast.staleness_history
        np.testing.assert_array_equal(
            serial.model.get_weights(), fast.model.get_weights()
        )
        fast.close()

    @pytest.mark.parametrize("backend_name,profiled", [
        pytest.param(name, profiled,
                     id=f"{name}-profiled" if profiled else name)
        for profiled in (False, True)
        for name in ("serial",) + FAST_BACKENDS
    ])
    def test_async_sync_equivalence_matches_plain_trainer(
        self, backend_name, profiled
    ):
        # Synchronous-equivalence mode: deadline = infinity, discount = 1,
        # commit after the full cohort — the event-queue machinery must
        # reproduce the plain trainer bit for bit on every backend.  The
        # profiled rows charge straggler time through a
        # HeterogeneousTimingModel (its sparse_round_for path).
        def build(cls, **kwargs):
            fed = _federation()
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            if profiled:
                profiles = ScenarioConfig(
                    availability="always", slow_fraction=0.25,
                    slow_factor=4.0, seed=5,
                ).build_profiles([c.client_id for c in fed.clients])
                timing = HeterogeneousTimingModel(
                    model.dimension, comm_time=10.0, profiles=profiles
                )
                if cls is AsyncFLTrainer:
                    kwargs["profiles"] = profiles
            else:
                timing = TimingModel(dimension=model.dimension,
                                     comm_time=10.0)
            return cls(
                model, fed, FABTopK(), timing=timing, learning_rate=0.05,
                batch_size=8, eval_every=4, seed=5,
                backend=make_backend(backend_name), **kwargs,
            )

        plain = build(FLTrainer)
        hp = plain.run(10, k=15)
        sync = build(AsyncFLTrainer, synchronous=True)
        hs = sync.run(10, k=15)
        assert history_rows(hp) == history_rows(hs)
        assert contribution_rows(hp) == contribution_rows(hs)
        np.testing.assert_array_equal(
            plain.model.get_weights(), sync.model.get_weights()
        )
        assert all(s == 0.0 for s in sync.staleness_history)
        plain.close()
        sync.close()


# ----------------------------------------------------------------------
# Batched kernels
# ----------------------------------------------------------------------
class TestVirtualEagerEquivalence:
    """A virtual federation equals its materialized eager twin bit for bit.

    The contract every population-scale claim rests on: training over
    :class:`~repro.data.virtual.VirtualFederation` (lazy datasets, lazy
    clients, LRU releases, optional hibernation spilling) must produce
    the same histories, weights and residuals as the same run over
    ``federation.materialize()`` — across sparsifier families, momentum
    correction and every backend.
    """

    #: (sparsifier factory, momentum, spill_after) matrix rows
    VARIANTS = {
        "fab-top-k": (lambda: FABTopK(), 0.0, 0),
        "quantized": (
            lambda: QuantizedSparsifier(
                FABTopK(), UniformQuantizer(num_levels=15, seed=7)
            ),
            0.0,
            0,
        ),
        "momentum": (lambda: FABTopK(), 0.5, 0),
        "spill": (lambda: FABTopK(), 0.0, 2),
        "momentum-spill": (lambda: FABTopK(), 0.5, 2),
    }

    def _virtual_federation(self, seed=7):
        from repro.data.virtual import VirtualFederation

        return VirtualFederation.build(
            10, samples_per_client=14, num_classes=8, image_size=7,
            classes_per_writer=4, test_samples=32, seed=seed,
        )

    def _trainer(self, federation, sparsifier, backend="serial",
                 momentum=0.0, spill_after=0, seed=7):
        model = make_mlp(49, 8, hidden=(10,), seed=seed)
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        return FLTrainer(
            model, federation, sparsifier, timing=timing,
            learning_rate=0.05, batch_size=6, eval_every=3, seed=seed,
            backend=backend, momentum_correction=momentum,
            spill_after=spill_after,
        )

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_virtual_matches_materialized_twin(self, name):
        factory, momentum, spill_after = self.VARIANTS[name]
        virtual_fed = self._virtual_federation()
        eager_fed = self._virtual_federation().materialize()
        virtual = self._trainer(
            virtual_fed, factory(), momentum=momentum,
            spill_after=spill_after,
        )
        # The eager twin never spills — hibernation must be exact, so
        # the spilling virtual run still equals the non-spilling eager.
        eager = self._trainer(eager_fed, factory(), momentum=momentum)
        hv = virtual.run(8, k=12)
        he = eager.run(8, k=12)
        assert history_rows(hv) == history_rows(he)
        assert contribution_rows(hv) == contribution_rows(he)
        np.testing.assert_array_equal(
            virtual.model.get_weights(), eager.model.get_weights()
        )
        assert len(virtual.clients) == len(eager.clients)
        for cv, ce in zip(virtual.clients, eager.clients):
            assert cv.client_id == ce.client_id
            np.testing.assert_array_equal(cv.residual, ce.residual)

    @pytest.mark.parametrize("backend_name", FAST_BACKENDS)
    def test_virtual_equivalence_holds_on_fast_backends(self, backend_name):
        eager_fed = self._virtual_federation().materialize()
        eager = self._trainer(eager_fed, FABTopK())
        virtual = self._trainer(
            self._virtual_federation(), FABTopK(),
            backend=make_backend(backend_name),
        )
        he = eager.run(6, k=12)
        hv = virtual.run(6, k=12)
        assert history_rows(he) == history_rows(hv)
        np.testing.assert_array_equal(
            eager.model.get_weights(), virtual.model.get_weights()
        )
        virtual.close()


class TestAdaptiveProbePath:
    """The grouped probe evaluation equals the per-client reference."""

    @pytest.mark.parametrize("model_kind", ["mlp", "cnn"])
    def test_probe_losses_match_client_probe_loss(self, model_kind,
                                                  monkeypatch):
        checked = []
        after_update = _ProbeHooks.after_update

        def checking_after_update(hooks, ctx):
            after_update(hooks, ctx)
            model = ctx.engine.model

            def reference(weights):
                return float(np.mean(
                    [c.probe_loss(model, weights) for c in ctx.participants]
                ))

            assert hooks.loss_prev == reference(ctx.w_prev)
            assert hooks.loss_now == reference(ctx.w_new)
            if hooks.w_probe is not None:
                assert hooks.loss_probe == reference(hooks.w_probe)
            checked.append(hooks.w_probe is not None)

        monkeypatch.setattr(_ProbeHooks, "after_update", checking_after_update)
        _adaptive_trainer("vectorized", model_kind).run(6)
        assert len(checked) == 6 and any(checked)

    @pytest.mark.parametrize("backend_name", ["serial", "vectorized"])
    def test_missing_probe_sample_raises(self, backend_name, monkeypatch):
        trainer = _adaptive_trainer(backend_name)
        skipped = trainer.engine.federation.clients[1].client_id
        draw = Client.draw_probe_sample

        def draw_except_one(client):
            if client.client_id != skipped:
                draw(client)

        monkeypatch.setattr(Client, "draw_probe_sample", draw_except_one)
        with pytest.raises(RuntimeError, match="draw_probe_sample"):
            trainer.step()

    @pytest.mark.filterwarnings("ignore:Mean of empty slice")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_empty_cohort_reaches_selection_error(self):
        class EmptySampler:
            def sample(self):
                return []

        trainer = _adaptive_trainer("serial", sampler=EmptySampler())
        with pytest.raises(ValueError, match="no uploads"):
            trainer.step()


class TestBatchedKernels:
    def test_gradients_batched_bitwise_equal(self):
        rng = np.random.default_rng(0)
        model = make_mlp(30, 6, hidden=(16, 8), seed=1)
        xs = [rng.standard_normal((8, 30)) for _ in range(20)]
        ys = [rng.integers(0, 6, size=8) for _ in range(20)]
        serial = np.stack([model.gradient(x, y)[0] for x, y in zip(xs, ys)])
        np.testing.assert_array_equal(serial, model.gradients_batched(xs, ys))

    def test_gradients_batched_rejects_ragged(self):
        model = make_logistic(4, 3, seed=0)
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal((4, 4)), rng.standard_normal((5, 4))]
        ys = [rng.integers(0, 3, size=4), rng.integers(0, 3, size=5)]
        with pytest.raises(ValueError, match="batch size"):
            model.gradients_batched(xs, ys)

    def test_gradients_batched_rejects_unsupported_network(self):
        # Active Dropout draws per-forward RNG, so a single grouped pass
        # cannot reproduce the per-client calls and must be refused.
        rng = np.random.default_rng(0)
        network = Sequential(
            [Linear(6, 6, rng), Dropout(0.5, seed=0), Linear(6, 3, rng)]
        )
        model = FlatModel(network)
        assert not model.supports_batched_gradients()
        with pytest.raises(ValueError, match="grouped-batch"):
            model.gradients_batched(
                [rng.standard_normal((2, 6))],
                [rng.integers(0, 3, size=2)],
            )

    def test_gradients_batched_cnn_bitwise_equal(self):
        # The grouped conv/pool pass must equal per-client gradients
        # exactly — this is what lets CNN configs ride the vectorized
        # backend without a fallback.
        rng = np.random.default_rng(0)
        model = make_cnn(image_size=8, channels=1, num_classes=5,
                         conv_channels=(3, 4), dense_width=8, seed=2)
        assert model.supports_batched_gradients()
        xs = [rng.standard_normal((6, 1, 8, 8)) for _ in range(9)]
        ys = [rng.integers(0, 5, size=6) for _ in range(9)]
        serial = np.stack([model.gradient(x, y)[0] for x, y in zip(xs, ys)])
        np.testing.assert_array_equal(serial, model.gradients_batched(xs, ys))

    def test_top_k_batched_matches_rows(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((17, 200))
        for k in (1, 7, 64, 200, 500):
            batched = top_k_indices_batched(values, k)
            for row in range(values.shape[0]):
                np.testing.assert_array_equal(
                    batched[row], top_k_indices(values[row], k)
                )

    def test_top_k_batched_deterministic_under_ties(self):
        values = np.zeros((3, 12))
        values[:, [2, 5, 9]] = 1.0  # three-way magnitude ties everywhere
        batched = top_k_indices_batched(values, 2)
        for row in range(3):
            np.testing.assert_array_equal(
                batched[row], top_k_indices(values[row], 2)
            )

    def test_vectorized_gradients_match_serial_backend(self):
        fed = _federation()
        model = make_mlp(64, 10, hidden=(12,), seed=5)
        serial_clients = _fl_trainer("serial", SPARSIFIER_FACTORIES["fab-top-k"])
        vec_clients = _fl_trainer("vectorized", SPARSIFIER_FACTORIES["fab-top-k"])
        del fed, model
        gs = SerialBackend().compute_gradients(
            serial_clients.model, serial_clients.clients
        )
        gv = VectorizedBackend().compute_gradients(
            vec_clients.model, vec_clients.clients
        )
        for a, b in zip(gs, gv):
            np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
class TestEngineBehaviour:
    def test_run_until_loss_no_redundant_evaluation(self):
        trainer = _fl_trainer("serial", SPARSIFIER_FACTORIES["fab-top-k"])
        calls = {"n": 0}
        original = trainer.model.loss_value

        def counting(x, y):
            calls["n"] += 1
            return original(x, y)

        trainer.model.loss_value = counting
        trainer.run_until_loss(target_loss=0.0, k=12, max_rounds=6)
        # Exactly one global-loss evaluation per round: the stopping rule
        # reuses the engine's recorded value instead of re-evaluating.
        assert calls["n"] == len(trainer.history) == 6
        # Every round's loss is recorded (no NaN gaps) for the loop...
        assert all(r.loss == r.loss for r in trainer.history)
        # ...while accuracy keeps the eval_every=4 cadence.
        evaluated = [r.accuracy is not None for r in trainer.history]
        assert evaluated == [True, False, False, True, False, False]

    def test_run_until_loss_stops_at_target(self):
        trainer = _fl_trainer("serial", SPARSIFIER_FACTORIES["fab-top-k"])
        start = trainer.global_loss()
        trainer.run_until_loss(target_loss=start * 0.9, k=20, max_rounds=500)
        assert trainer.history.records[-1].loss <= start * 0.9
        assert len(trainer.history) < 500

    def test_run_round_requires_sparsifier(self):
        fed = _federation()
        model = make_mlp(64, 10, hidden=(12,), seed=5)
        timing = TimingModel(dimension=model.dimension, comm_time=10.0)
        trainer = AlwaysSendAllTrainer(model, fed, timing, seed=5)
        with pytest.raises(RuntimeError, match="sparsifier"):
            trainer.engine.run_round(5)

    def test_trainers_share_engine_state(self):
        trainer = _fl_trainer("serial", SPARSIFIER_FACTORIES["fab-top-k"])
        trainer.step(12)
        assert trainer.round_index == trainer.engine.round_index == 1
        assert trainer.clock == trainer.engine.clock
        assert trainer.history is trainer.engine.history

    def test_resolve_backend(self):
        assert resolve_backend(None).name == "serial"
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("vectorized").name == "vectorized"
        sharded = resolve_backend("sharded")
        assert sharded.name == "sharded"
        sharded.close()
        backend = VectorizedBackend()
        assert resolve_backend(backend) is backend

    @pytest.mark.parametrize("bogus", ["warp-drive", "", "Serial"])
    def test_resolve_backend_rejects_unknown_names(self, bogus):
        # The error must name every valid backend so a bad --backend or
        # config value is self-diagnosing.
        with pytest.raises(ValueError, match="unknown backend") as excinfo:
            resolve_backend(bogus)
        for name in BACKEND_NAMES:
            assert name in str(excinfo.value)

    def test_config_validates_backend(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig.smoke().with_overrides(backend="vectorized")
        assert config.backend == "vectorized"
        assert ExperimentConfig.smoke().with_overrides(
            backend="sharded", jobs=2
        ).jobs == 2
        with pytest.raises(ValueError, match="backend"):
            ExperimentConfig.smoke().with_overrides(backend="bogus")
        with pytest.raises(ValueError, match="jobs"):
            ExperimentConfig.smoke().with_overrides(jobs=-1)

    def test_cli_exposes_backend_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig4", "--backend", "vectorized"])
        assert args.backend == "vectorized"
        args = build_parser().parse_args(
            ["fig4", "--backend", "sharded", "--jobs", "4"]
        )
        assert args.backend == "sharded" and args.jobs == 4

    def test_engine_close_shuts_backend_down(self):
        backend = ShardedBackend(jobs=2)
        trainer = _fl_trainer(backend, SPARSIFIER_FACTORIES["fab-top-k"])
        trainer.run(2, k=12)
        assert backend._pool is not None and backend._pool.alive
        trainer.close()
        assert backend._pool is None
        with pytest.raises(RuntimeError, match="close"):
            trainer.step(12)


# ----------------------------------------------------------------------
# Telemetry bit-identity: traced runs equal untraced runs exactly
# ----------------------------------------------------------------------
ALL_BACKENDS = ("serial",) + FAST_BACKENDS


class TestTelemetryBitIdentity:
    """Telemetry is observation-only on every backend.

    Enabling tracing must change nothing: histories, final weights, and
    residuals are byte-equal to the untraced run (the no-RNG /
    no-numeric-state invariant of :mod:`repro.obs`), including under a
    deployment scenario with the online-adapted deadline — the
    configuration with the most instrumented code paths (drop/recovery/
    deadline events plus counterfactual replays).
    """

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_fl_run_identical_with_tracing(self, backend_name, tmp_path):
        from repro.obs import ENGINE_PHASES, JsonlSink, Telemetry
        from repro.obs import summarize_trace

        factory = SPARSIFIER_FACTORIES["fab-top-k"]
        plain = _fl_trainer(make_backend(backend_name), factory)
        telemetry = Telemetry(sink=JsonlSink(tmp_path / "trace.jsonl"))
        traced = _fl_trainer(make_backend(backend_name), factory,
                             telemetry=telemetry)
        hp = plain.run(8, k=12)
        ht = traced.run(8, k=12)
        telemetry.close()
        assert history_rows(hp) == history_rows(ht)
        assert contribution_rows(hp) == contribution_rows(ht)
        np.testing.assert_array_equal(
            plain.model.get_weights(), traced.model.get_weights()
        )
        for cp, ct in zip(plain.clients, traced.clients):
            np.testing.assert_array_equal(cp.residual, ct.residual)
        plain.close()
        traced.close()
        # The trace itself is schema-valid and covers every engine phase.
        summary = summarize_trace(tmp_path / "trace.jsonl")
        assert summary["rounds"] == 8
        assert summary["phases"] == sorted(ENGINE_PHASES)
        # A clean traced run raises no health alerts.
        assert summary["health"]["healthy"]
        if backend_name == "sharded":
            # Worker-side tracing rode the result pipe: merged spans are
            # attributed to worker processes, one per request per worker.
            workers = [p for p in summary["span_seconds_by_process"]
                       if p.startswith("worker-")]
            assert sorted(workers) == ["worker-0", "worker-1"]
            for worker in workers:
                spans = summary["span_seconds_by_process"][worker]
                assert set(spans) == {"worker.gradients"}

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_scenario_adaptive_deadline_identical_with_tracing(
        self, backend_name, tmp_path
    ):
        from repro.obs import JsonlSink, Telemetry, summarize_trace
        from repro.scenarios import DeploymentScenario, ScenarioConfig
        from repro.simulation.heterogeneous import HeterogeneousTimingModel

        churn = ScenarioConfig(
            availability="markov", p_drop=0.2, p_recover=0.6,
            participants=5, over_selection=0.4,
            deadline=(2.5, 2.5, 9.0), deadline_policy="adaptive",
            slow_fraction=0.25, slow_factor=4.0, seed=5,
        )

        def build(backend, telemetry=None):
            fed = _federation(seed=5)
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            ids = [c.client_id for c in fed.clients]
            profiles = churn.build_profiles(ids)
            timing = HeterogeneousTimingModel(
                model.dimension, comm_time=10.0, profiles=profiles
            )
            scenario = DeploymentScenario.build(churn, ids, timing, profiles)
            return FLTrainer(
                model, fed, FABTopK(), timing=timing, learning_rate=0.05,
                batch_size=8, eval_every=3, seed=5, backend=backend,
                scenario=scenario, telemetry=telemetry,
            )

        plain = build(make_backend(backend_name))
        telemetry = Telemetry(sink=JsonlSink(tmp_path / "trace.jsonl"))
        traced = build(make_backend(backend_name), telemetry=telemetry)
        hp = plain.run(8, k=12)
        ht = traced.run(8, k=12)
        telemetry.close()
        assert history_rows(hp) == history_rows(ht)
        np.testing.assert_array_equal(
            plain.model.get_weights(), traced.model.get_weights()
        )
        for cp, ct in zip(plain.clients, traced.clients):
            np.testing.assert_array_equal(cp.residual, ct.residual)
        plain.close()
        traced.close()
        summary = summarize_trace(tmp_path / "trace.jsonl")
        assert summary["rounds"] == 8
        assert summary["events"].get("deadline", 0) == 8

    def test_adaptive_k_probe_events_identical_with_tracing(self, tmp_path):
        from repro.obs import JsonlSink, Telemetry, summarize_trace

        def build(telemetry=None):
            fed = _federation()
            model = make_mlp(64, 10, hidden=(12,), seed=5)
            timing = TimingModel(dimension=model.dimension, comm_time=10.0)
            policy = SignPolicy(
                SignOGD(SearchInterval(2.0, float(model.dimension)))
            )
            return AdaptiveKTrainer(model, fed, FABTopK(), policy, timing,
                                    learning_rate=0.05, batch_size=8,
                                    eval_every=2, seed=5,
                                    telemetry=telemetry)

        telemetry = Telemetry(sink=JsonlSink(tmp_path / "trace.jsonl"))
        traced = build(telemetry=telemetry)
        assert history_rows(build().run(6)) == history_rows(traced.run(6))
        telemetry.close()
        summary = summarize_trace(tmp_path / "trace.jsonl")
        assert summary["rounds"] == 6
        assert summary["events"]["probe"] == 6
