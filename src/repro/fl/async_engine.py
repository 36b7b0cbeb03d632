"""Asynchronous staleness-weighted aggregation: commit-point rounds.

The paper's protocol is synchronous: every round waits for its slowest
participant before the server aggregates.  This module adds the
asynchronous variant as an *event-queue re-interpretation* of the same
Algorithm-1 machinery: clients compute continuously, their uploads
arrive at the server in virtual time, and "round m" becomes the server's
m-th **commit point** — the moment it folds the next batch of arrivals
into the synchronized weights.

A commit is one :meth:`RoundEngine.run_round
<repro.fl.engine.RoundEngine.run_round>` — the same sample → local steps
→ preprocess → select → aggregate → update → residual-reset → charge
pipeline as a synchronous round.  The async engine replaces three seams
of it:

1. **Cohort source** — instead of sampler → local steps, every idle
   client is *dispatched*: it starts a local step at the current weights
   ``w(v)``; the upload it will produce is computed eagerly (one
   ``backend.local_steps`` call per wave, so the serial / vectorized /
   sharded backends stay interchangeable) and scheduled to *arrive* at
   ``now + finish_time``, where the finish time is the canonical
   compute+uplink arrival model every deadline policy already shares
   (:func:`repro.scenarios.deadline.upload_finish_times`).  The commit's
   uploads are then the next ``commit_count`` arrivals popped in
   ``(arrival_time, client_id)`` order (``0`` = every in-flight upload,
   the full-cohort barrier), ordered by dispatch sequence so the
   weighted float sums accumulate in the plain trainer's client order.
   Committed clients are re-dispatched at the new weights by the next
   commit; stragglers stay in flight with their original arrival times.
2. **Wire** — between preprocessing and selection, the pluggable
   **staleness discount** ``d(s)`` scales each preprocessed upload's
   values, ``s`` being the number of commits since the upload's
   dispatch version.  Residuals reset against the *undiscounted*
   preprocessed uploads: the client's error-feedback bookkeeping
   reflects what it actually sent, mirroring how the adversary seam
   restores honest payloads.
3. **Hooks** — the virtual-clock charge and the adaptive discount's
   exponent probe, chained under the deployment scenario's hooks, so a
   scenario's adversary, cohort reweighting and flagged-client events
   compose with async commits unchanged.

Synchronous-equivalence mode (``synchronous=True``) replaces none of the
seams: it *is* the plain round, so it reproduces the plain
:class:`~repro.fl.trainer.FLTrainer` history *bit for bit* on every
backend, with or without a scenario (enforced by ``tests/test_engine.py``
and ``tests/test_async.py``).  Asynchronous mode instead charges virtual
time: each commit's ``round_time`` is the virtual-clock delta from the
previous commit's completion to this one's (arrival close plus the
downlink broadcast), so ``history.cumulative_time`` is simulated elapsed
time and convergence-vs-time comparisons against the synchronous
baseline are direct.

Staleness discounts (:func:`build_staleness_discount`):

- ``constant`` — ``d(s) = c`` (default 1: pure FedAsync-style buffered
  aggregation, no staleness correction);
- ``polynomial`` — ``d(s) = (1 + s)^{-a}``, the standard polynomial
  staleness attenuation;
- ``adaptive`` — the polynomial form with the exponent ``a`` *learned
  online*, a third dual of the paper's learned k: a
  :class:`~repro.online.algorithm2.SignOGD` walk over an exponent
  interval, fed by the Section IV-E sign estimator applied to a free
  counterfactual probe.  Each commit with stale arrivals re-aggregates
  the same batch under the probe exponent ``a' = max(a − δ/2, a/2)``
  (``commit=False`` — pure server-side arithmetic, no extra
  communication, no robust-aggregator state advanced), derives the
  counterfactual weights, and compares loss progress; the commit cadence
  does not depend on ``a``, so both "round times" in eq. (10)/(11) are
  equal and the estimated sign reduces to the loss-progress comparison.

Telemetry rides the existing registry — per-arrival ``span`` events
named ``async.arrival`` (``seconds`` is the upload's *virtual* flight
time) and ``staleness`` / ``staleness_max`` fields on the ordinary
``round`` event — no new stream, so ``trace-report``, the health
monitor, and the JSONL tooling consume async runs unchanged.
"""

from __future__ import annotations

import heapq

from repro.fl.engine import (
    ChainedHooks,
    RoundContext,
    RoundEngine,
    RoundHooks,
)
from repro.fl.trainer import FLTrainer, _apply_scenario
from repro.online.algorithm2 import SignOGD
from repro.online.estimator import estimate_sign
from repro.online.interval import SearchInterval
from repro.simulation.timing import RoundTiming, TimingModel
from repro.sparsify.base import ClientUpload, SparseVector, Sparsifier

STALENESS_DISCOUNT_KINDS = ("constant", "polynomial", "adaptive")

#: Exponent search interval of the adaptive discount.  The lower edge is
#: strictly positive (SignOGD's interval invariant, and it keeps the
#: probe point ``max(a − δ/2, a/2)`` strictly below ``a``); the upper
#: edge ``2`` already discounts staleness 3 by a factor of 16 — steeper
#: attenuation than that is indistinguishable from dropping the upload.
DEFAULT_EXPONENT_INTERVAL = (0.05, 2.0)


# ----------------------------------------------------------------------
# Staleness discounts: how much weight an s-commits-old upload keeps
# ----------------------------------------------------------------------
class StalenessDiscount:
    """Interface: per-upload weight multiplier as a function of staleness.

    ``factor(s)`` multiplies the upload's *wire values* (the weighted
    aggregation then shrinks that client's contribution — the server's
    normalizing constant stays the undiscounted sample-count total, so a
    discount scales the step rather than renormalizing over it).
    """

    name = "abstract"
    #: whether :meth:`observe` feedback can move the discount
    adaptive = False

    def factor(self, staleness: int) -> float:
        """The multiplier ``d(s) ∈ (0, 1]`` for staleness ``s >= 0``."""
        raise NotImplementedError

    def probe_exponent(self) -> float | None:
        """The counterfactual exponent an adaptive discount wants probed
        this commit (None = no probe — fixed discounts never probe)."""
        return None

    def observe(self, sign: int | None) -> None:
        """Consume one commit's sign estimate (no-op for fixed forms)."""
        del sign


class ConstantDiscount(StalenessDiscount):
    """``d(s) = c`` — staleness-blind; ``c = 1`` is no discount at all."""

    name = "constant"

    def __init__(self, value: float = 1.0) -> None:
        value = float(value)
        if not 0.0 < value <= 1.0:
            raise ValueError("discount value must be in (0, 1]")
        self.value = value

    def factor(self, staleness: int) -> float:
        if staleness < 0:
            raise ValueError("staleness must be >= 0")
        return self.value


class PolynomialDiscount(StalenessDiscount):
    """``d(s) = (1 + s)^{-a}`` — the standard polynomial attenuation."""

    name = "polynomial"

    def __init__(self, exponent: float = 0.5) -> None:
        exponent = float(exponent)
        if exponent < 0.0:
            raise ValueError("exponent must be >= 0")
        self.exponent = exponent

    def factor(self, staleness: int) -> float:
        if staleness < 0:
            raise ValueError("staleness must be >= 0")
        return float((1.0 + staleness) ** -self.exponent)


class AdaptiveStalenessDiscount(StalenessDiscount):
    """Polynomial discount with an online-learned exponent.

    The third dual of the paper's learned k (after the learned deadline):
    the exponent ``a`` is walked by Algorithm 2's
    :class:`~repro.online.algorithm2.SignOGD` over ``interval``, and the
    per-commit sign comes from the Section IV-E estimator
    (:func:`repro.online.estimator.estimate_sign`) applied to a *free
    counterfactual probe* — the engine re-aggregates the already-received
    commit batch under ``a' = max(a − δ_m/2, a/2)`` entirely server-side
    and compares loss progress.  Because the commit cadence (who arrived
    when) does not depend on ``a``, the actual and counterfactual "round
    times" of eq. (10) are equal and the sign reduces to which exponent
    made more loss progress per commit.  Commits with no stale arrival
    carry no information about ``a`` and advance the walk with ``None``
    (the paper's "value remains unchanged" rule).  ``probe=False``
    freezes the exponent at ``a₁`` — a "frozen adaptive" control.
    """

    name = "adaptive"
    adaptive = True

    def __init__(
        self,
        interval: SearchInterval | None = None,
        a1: float | None = None,
        probe: bool = True,
    ) -> None:
        if interval is None:
            interval = SearchInterval(*DEFAULT_EXPONENT_INTERVAL)
        self.interval = interval
        self.algorithm = SignOGD(interval, k1=a1)
        self.probe = probe

    @property
    def exponent(self) -> float:
        """The continuous decision a_m for the current commit."""
        return self.algorithm.k

    @property
    def exponent_history(self) -> list[float]:
        """Every exponent played so far (the learned {a_m} trace)."""
        return self.algorithm.k_history

    def factor(self, staleness: int) -> float:
        if staleness < 0:
            raise ValueError("staleness must be >= 0")
        return float((1.0 + staleness) ** -self.algorithm.k)

    def probe_exponent(self) -> float | None:
        if not self.probe:
            return None
        a = self.algorithm.k
        # Strictly below a and strictly positive, like the adaptive
        # deadline's probe clamp — the estimate is never unavailable at
        # the interval's lower edge.
        return max(a - self.algorithm.step_size() / 2.0, a / 2.0)

    def observe(self, sign: int | None) -> None:
        self.algorithm.update(sign)


def build_staleness_discount(kind: str, **kwargs) -> StalenessDiscount:
    """The staleness discount a config string names.

    ``kwargs`` pass through to the class (``value`` for constant,
    ``exponent`` for polynomial, ``interval``/``a1``/``probe`` for
    adaptive).  ``"poly"`` is accepted as shorthand for ``"polynomial"``.
    """
    kind = {"poly": "polynomial", "const": "constant"}.get(kind, kind)
    if kind == "constant":
        return ConstantDiscount(**kwargs)
    if kind == "polynomial":
        return PolynomialDiscount(**kwargs)
    if kind == "adaptive":
        return AdaptiveStalenessDiscount(**kwargs)
    raise ValueError(
        f"unknown staleness discount {kind!r}; expected one of "
        f"{STALENESS_DISCOUNT_KINDS}"
    )


# ----------------------------------------------------------------------
# The event-queue engine
# ----------------------------------------------------------------------
class _InFlight:
    """One dispatched upload travelling through virtual time."""

    __slots__ = ("arrival", "seq", "client", "upload", "version",
                 "dispatch_time")

    def __init__(self, arrival, seq, client, upload, version,
                 dispatch_time):
        self.arrival = arrival
        self.seq = seq
        self.client = client
        self.upload = upload
        self.version = version
        self.dispatch_time = dispatch_time


class AsyncRoundEngine(RoundEngine):
    """Event-queue commit engine: :meth:`RoundEngine.run_round` with an
    arrival-queue cohort source, a discounted wire, and commit hooks.

    Parameters beyond the base engine's:

    commit_count:
        Arrivals buffered per commit; ``0`` waits for every in-flight
        upload (the full-cohort barrier the synchronous special case
        needs).
    discount:
        A :class:`StalenessDiscount` (default: identity
        :class:`ConstantDiscount`).
    profiles:
        ``client_id ->`` :class:`~repro.simulation.heterogeneous.
        ClientProfile` feeding the arrival-time model; clients missing
        from the map travel at unit speed.
    synchronous:
        Equivalence mode: the base engine's round, untouched — no event
        queue, no discount, the default timing charge — so it is
        bit-identical to the plain trainer.  Requires ``commit_count ==
        0`` and an identity ``ConstantDiscount``.  Asynchronous mode
        instead fixes the cohort at the first dispatch (clients run
        continuously; there is no per-round resample) and charges
        virtual commit-to-commit deltas.
    """

    def __init__(
        self,
        *args,
        commit_count: int = 0,
        discount: StalenessDiscount | None = None,
        profiles=None,
        synchronous: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if commit_count < 0:
            raise ValueError("commit_count must be >= 0 (0 = full cohort)")
        self.discount = discount if discount is not None else ConstantDiscount()
        if synchronous:
            if commit_count != 0:
                raise ValueError(
                    "synchronous equivalence mode needs commit_count=0 "
                    "(the full-cohort barrier)"
                )
            if not (
                isinstance(self.discount, ConstantDiscount)
                and self.discount.value == 1.0
            ):
                raise ValueError(
                    "synchronous equivalence mode needs the identity "
                    "ConstantDiscount"
                )
        self.commit_count = commit_count
        self.profiles = dict(profiles) if profiles else {}
        self.synchronous = synchronous
        #: virtual (simulated) time; advances at commit points
        self._vclock = 0.0
        self._queue: list[tuple[float, int, _InFlight]] = []
        self._seq = 0
        #: clients committed last round, idle until the next dispatch
        self._redispatch: list = []
        #: the current commit's staleness per upload, the batch's last
        #: arrival, and the preprocessed uploads before discounting
        self._stale: list[int] = []
        self._commit_close = 0.0
        self._received: list[ClientUpload] = []
        self._commit_hooks = _CommitHooks()
        #: mean staleness of each commit's batch (the figure/bench trace;
        #: empty in synchronous mode, which never goes stale)
        self.staleness_history: list[float] = []

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Commits applied so far (the weights' version number)."""
        return self.round_index

    @property
    def virtual_clock(self) -> float:
        """Simulated time at the last commit's completion."""
        return self.clock if self.synchronous else self._vclock

    @property
    def in_flight(self) -> int:
        """Uploads currently travelling through virtual time."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # The three seams of RoundEngine.run_round
    # ------------------------------------------------------------------
    def _round_hooks(self, hooks: RoundHooks) -> RoundHooks:
        if self.synchronous:
            return super()._round_hooks(hooks)
        return ChainedHooks(self.scenario_hooks, self._commit_hooks, hooks)

    def _draw_uploads(self, ctx: RoundContext, hooks: RoundHooks,
                      lap) -> None:
        """Dispatch idle clients, then pop the next commit batch."""
        if self.synchronous:
            super()._draw_uploads(ctx, hooks, lap)
            return
        wave = self._wave()
        lap("sample")
        self._dispatch(wave, ctx.k, hooks.wants_probes)
        lap("local_steps")
        if not self._queue:
            raise RuntimeError("no uploads in flight — empty cohort")
        target = (
            len(self._queue) if self.commit_count == 0
            else min(self.commit_count, len(self._queue))
        )
        batch = [heapq.heappop(self._queue)[2] for _ in range(target)]
        # Pops are arrival-ordered, so the close is the last pop's time.
        self._commit_close = batch[-1].arrival
        # Aggregate in dispatch order, so a batch's weighted float sums
        # accumulate in the plain trainer's client order.
        batch.sort(key=lambda entry: entry.seq)
        version = self.round_index - 1
        self._stale = [version - entry.version for entry in batch]
        self.staleness_history.append(
            float(sum(self._stale)) / len(self._stale)
        )
        tel = self.telemetry
        if tel.enabled:
            for entry, s in zip(batch, self._stale):
                # ``seconds`` is the upload's *virtual* flight time
                # (dispatch → arrival), not wall-clock.
                tel.event(
                    "span",
                    name="async.arrival",
                    seconds=entry.arrival - entry.dispatch_time,
                    round=ctx.round_index,
                    client_id=int(entry.upload.client_id),
                    staleness=int(s),
                    arrival=entry.arrival,
                )
        ctx.participants = [entry.client for entry in batch]
        ctx.uploads = [entry.upload for entry in batch]
        # Committed clients start their next local step at the new
        # weights when the next commit dispatches.
        self._redispatch = list(ctx.participants)

    def _wire_uploads(self, ctx: RoundContext) -> list[ClientUpload]:
        """The preprocessed uploads scaled by the staleness discount."""
        if self.synchronous:
            return ctx.uploads
        # What the server received (corrupted, then preprocessed) — the
        # probe's input, since the scenario's after_aggregate puts honest
        # payloads back into ctx.uploads before the commit hooks run.
        self._received = ctx.uploads
        return _discounted(
            ctx.uploads, [self.discount.factor(s) for s in self._stale]
        )

    # ------------------------------------------------------------------
    def _wave(self) -> list:
        """The clients to dispatch this commit.

        The cohort is fixed at the first dispatch — the population runs
        continuously, so later waves are exactly the clients freed by the
        previous commit.
        """
        if self.round_index == 1:
            if self.sampler is not None:
                return [self._client_for(cid) for cid in self.sampler.sample()]
            return self._all_participants()
        wave, self._redispatch = self._redispatch, []
        return wave

    def _dispatch(self, wave, k: int, draw_probes: bool) -> None:
        """Start a local step for every client in ``wave`` at the current
        weights and schedule the resulting uploads' virtual arrivals."""
        if not wave:
            return
        # Local import: repro.scenarios imports the engine back (the
        # same layering note as fl.trainer's duck-typed scenario seam).
        from repro.scenarios.deadline import upload_finish_times

        uploads = self.backend.local_steps(
            self.model, wave, k, self.sparsifier, draw_probes=draw_probes
        )
        finish = upload_finish_times(uploads, self.timing, self.profiles)
        now = self._vclock
        for client, upload, flight in zip(wave, uploads, finish):
            entry = _InFlight(
                arrival=now + float(flight),
                seq=self._seq,
                client=client,
                upload=upload,
                version=self.round_index - 1,
                dispatch_time=now,
            )
            self._seq += 1
            # client_id breaks arrival ties deterministically; a client
            # is never in flight twice, so the pair is a total order.
            heapq.heappush(
                self._queue, (entry.arrival, upload.client_id, entry)
            )


def _discounted(
    uploads: list[ClientUpload], factors: list[float]
) -> list[ClientUpload]:
    """Uploads with wire values scaled by ``factors``.

    Structural no-op when every factor is 1, so a staleness-free commit
    aggregates the very same arrays.  Scaled payloads keep the original
    index array (same support, same nnz), preserving the server's stacked
    fast-path precondition.
    """
    if all(f == 1.0 for f in factors):
        return uploads
    return [
        ClientUpload(
            client_id=up.client_id,
            payload=SparseVector.from_sorted(
                up.payload.indices,
                up.payload.values * f,
                up.payload.dimension,
            ),
            sample_count=up.sample_count,
        )
        for up, f in zip(uploads, factors)
    ]


class _CommitHooks(RoundHooks):
    """The async engine's round hooks: the adaptive discount's exponent
    probe and the virtual-clock charge.

    The engine is reached through ``ctx.engine`` only — holding it here
    would make an engine ↔ hooks reference cycle that keeps a finished
    run's state alive until the cyclic garbage collector runs.
    """

    def __init__(self) -> None:
        #: L(w) at the previous probed commit's result
        self._loss_prev: float | None = None
        #: the adaptive discount's (exponent played, probe exponent or
        #: None) this commit, kept for the trace because the walk has
        #: already moved when ``observe`` runs
        self._played: tuple[float, float | None] | None = None

    def after_update(self, ctx: RoundContext) -> None:
        """Run the adaptive discount's counterfactual exponent probe.

        The evaluated L(w_new) goes to ``ctx.eval_loss``, so eval-cadence
        commits don't rerun the identical forward pass.
        """
        engine = ctx.engine
        discount = engine.discount
        if not discount.adaptive:
            return
        a_probe = discount.probe_exponent()
        if a_probe is None or max(engine._stale) == 0:
            # No probe, or a batch with no stale arrival — nothing the
            # exponent could have changed; the walk advances unchanged
            # and the carried loss goes stale, so force a re-evaluation
            # at the next probed commit.
            self._played = (discount.exponent, None)
            discount.observe(None)
            self._loss_prev = None
            return
        self._played = (discount.exponent, a_probe)
        probe_factors = [float((1.0 + s) ** -a_probe) for s in engine._stale]
        # Same received batch, same selection J, probe discount — a pure
        # recomputation (commit=False keeps any robust aggregator's
        # reputation state at the real commit), then the plain SGD rule,
        # exactly like the deadline probe's w'(m) derivation.
        payload = engine.server.aggregate(
            _discounted(engine._received, probe_factors), ctx.selection,
            total_weight=ctx.aggregation_weight, commit=False,
        ).payload
        w_probe = ctx.w_prev.copy()
        w_probe[payload.indices] -= engine.learning_rate * payload.values
        model, x, y = engine.model, engine._eval_x, engine._eval_y
        if self._loss_prev is None:
            self._loss_prev = float(model.loss_at(ctx.w_prev, x, y))
        loss_now = float(model.loss_value(x, y))
        loss_probe = float(model.loss_at(w_probe, x, y))
        # The commit cadence (who arrived when) does not depend on the
        # exponent, so τ_m and the counterfactual θ_m are equal; any
        # positive time cancels out of eq. (11)'s sign.
        sign = estimate_sign(
            loss_prev=self._loss_prev,
            loss_now=loss_now,
            loss_probe=loss_probe,
            round_time=1.0,
            probe_round_time=1.0,
            k=discount.exponent,
            k_probe=a_probe,
        )
        discount.observe(sign)
        self._loss_prev = loss_now
        ctx.eval_loss = loss_now

    def round_timing(self, ctx: RoundContext) -> RoundTiming:
        """Charge virtual time and advance the engine's virtual clock.

        The server commits when the batch's last arrival lands (never
        before it finished the previous broadcast), then broadcasts the
        new model, paced by the slowest committed client's link.
        Base-class transfer time on purpose — a HeterogeneousTimingModel's
        own sparse_round folds in its worst-client factor, which would
        double-count.
        """
        engine = ctx.engine
        worst_comm = max(
            (
                engine.profiles[c.client_id].comm_factor
                for c in ctx.participants
                if c.client_id in engine.profiles
            ),
            default=1.0,
        )
        downlink_time = (
            TimingModel.sparse_round(
                engine.timing, 0, ctx.selection.downlink_element_count
            ).downlink
            * worst_comm
        )
        commit_complete = (
            max(engine._commit_close, engine._vclock) + downlink_time
        )
        # One part carries the whole commit-to-commit delta: adding the
        # zero parts is exact, so cumulative time stays the virtual
        # clock's own arithmetic.
        delta = commit_complete - engine._vclock
        engine._vclock = commit_complete
        return RoundTiming(computation=0.0, uplink=delta, downlink=0.0)

    def observe(self, ctx: RoundContext) -> None:
        engine = ctx.engine
        if engine.telemetry.enabled:
            stale = engine._stale
            ctx.trace_fields.update(
                staleness=float(sum(stale)) / len(stale),
                staleness_max=int(max(stale)),
                in_flight=engine.in_flight,
                version=engine.version,
            )
            if self._played is not None:
                exponent, probe = self._played
                ctx.trace_fields.update(
                    staleness_exponent=exponent,
                    staleness_probe_exponent=probe,
                )


# ----------------------------------------------------------------------
# Trainer facade
# ----------------------------------------------------------------------
class AsyncFLTrainer(FLTrainer):
    """Asynchronous federated training with staleness-weighted commits.

    The async counterpart of :class:`~repro.fl.trainer.FLTrainer`: the
    shared parameters mean the same thing, and ``step``/``run``/
    ``run_until_loss`` run commit points (the engine's ``run_round``).
    Additional parameters:

    discount:
        A :class:`StalenessDiscount` instance or a kind string from
        :data:`STALENESS_DISCOUNT_KINDS` (default ``"constant"``, i.e.
        no discount).
    commit_count:
        Arrivals the server buffers before each commit (0 = full-cohort
        barrier).
    profiles:
        ``client_id -> ClientProfile`` map (or a profile list) feeding
        the virtual arrival-time model; heterogeneous profiles are what
        make commits reorder relative to dispatches.
    synchronous:
        Equivalence mode — see :class:`AsyncRoundEngine`; histories are
        bit-identical to the plain trainer's.
    scenario:
        Optional :class:`~repro.scenarios.DeploymentScenario`; supplies
        the sampler, straggler profiles (unless ``profiles`` is given)
        and robust aggregator, and installs its hooks exactly as
        :class:`~repro.fl.trainer.FLTrainer` does — the adversary,
        cohort reweighting and flagged-client accounting apply to every
        commit.  A scenario whose deadline gate applies (a deadline or
        over-selection) is rejected: commits replace deadline-driven
        partial aggregation (stragglers arrive late instead of being
        dropped).  Availability churn is sampled once, at the first
        dispatch.
    """

    def __init__(
        self,
        model,
        federation,
        sparsifier: Sparsifier,
        timing: TimingModel | None = None,
        learning_rate: float = 0.01,
        batch_size: int = 32,
        eval_every: int = 1,
        eval_max_samples: int = 2000,
        sampler=None,
        momentum_correction: float = 0.0,
        optimizer=None,
        backend=None,
        scenario=None,
        discount: StalenessDiscount | str = "constant",
        commit_count: int = 0,
        profiles=None,
        synchronous: bool = False,
        spill_after: int = 0,
        telemetry=None,
        seed: int = 0,
    ) -> None:
        sampler, scenario_hooks, aggregator = _apply_scenario(
            scenario, sampler
        )
        if scenario is not None:
            if scenario_hooks.policy.applies(scenario_hooks.target_uploads):
                raise ValueError(
                    "async commits replace the deadline gate; the scenario "
                    "sets a deadline or over-selection, which "
                    "AsyncFLTrainer cannot honour — drop both"
                )
            if profiles is None:
                profiles = scenario.profiles
        if isinstance(discount, str):
            discount = build_staleness_discount(discount)
        if profiles is not None and not isinstance(profiles, dict):
            profiles = {p.client_id: p for p in profiles}
        self.engine = AsyncRoundEngine(
            model=model,
            federation=federation,
            sparsifier=sparsifier,
            timing=timing if timing is not None else TimingModel(
                dimension=model.dimension, comm_time=0.0
            ),
            learning_rate=learning_rate,
            batch_size=batch_size,
            eval_every=eval_every,
            eval_max_samples=eval_max_samples,
            sampler=sampler,
            momentum_correction=momentum_correction,
            optimizer=optimizer,
            backend=backend,
            scenario_hooks=scenario_hooks,
            spill_after=spill_after,
            telemetry=telemetry,
            seed=seed,
            aggregator=aggregator,
            commit_count=commit_count,
            discount=discount,
            profiles=profiles,
            synchronous=synchronous,
        )

    # ------------------------------------------------------------------
    @property
    def discount(self) -> StalenessDiscount:
        return self.engine.discount

    @property
    def version(self) -> int:
        return self.engine.version

    @property
    def virtual_clock(self) -> float:
        return self.engine.virtual_clock

    @property
    def staleness_history(self) -> list[float]:
        """Mean staleness of each commit's batch so far."""
        return self.engine.staleness_history
