"""Run one benchmark workload and print its metrics.

    python3 flbench/run.py --workload fab-adaptive-mlp96 --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass and reports the per-layer metrics.
``--workload all`` runs every workload, each in its own process.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a detailed
report goes to ``flbench-out/``.  See ``flbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before NumPy loads: the sharded
# workload's two workers must not oversubscribe a two-CPU host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import multiprocessing
import pathlib
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(pathlib.Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from repro.fl.client import Client  # noqa: E402
from repro.nn.flat import FlatModel  # noqa: E402
from repro.obs import SPARSE_ELEMENT_BYTES  # noqa: E402
from repro.parallel.pool import WorkerPool  # noqa: E402
from tracing import (  # noqa: E402
    ROUND,
    Patcher,
    Tracer,
    per_round_median,
    round_tables,
)
from workloads import EVAL_EVERY, WORKLOADS, Workload  # noqa: E402

OUT_DIR = ROOT / "flbench-out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "rounds_per_ref_s": "1/ref_s",
    "round_ref_ms.p50": "ref_ms",
    "round_ref_ms.p95": "ref_ms",
    "peak_rss_mb": "MB",
    "final_loss": "loss",
    "sim_time_to_target_loss": "t_norm",
}

#: wall-clock counterparts, printed and saved for reference only
WALL_UNITS = {
    "rounds_per_s": "1/s",
    "round_ms.p50": "ms",
    "round_ms.p95": "ms",
    "setup_s": "s",
}


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """CPU time used so far by this process and its live worker processes.

    Both clocks count only time spent running on a CPU.  Time spent
    waiting for a CPU held by another process, and (where the kernel
    accounts paravirtual steal time) time the hypervisor gave to other
    guests, do not count.  On a shared host these waits swing a wall
    clock by 2-3x from one run to the next; the CPU time of the same
    work stays put.  A worker's time is read from the scheduler's
    per-task run time in ``/proc/<pid>/schedstat`` (nanoseconds).
    """
    total = time.process_time()
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/schedstat") as stat:
                total += int(stat.read().split()[0]) / 1e9
        except (OSError, ValueError, IndexError):
            pass
    return total


#: fixed inputs of the host-speed probe; never the run's seed, so every
#: run of every version of the program probes with the same work
_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.standard_normal((16, 100))
_PROBE_W1 = _PROBE_RNG.standard_normal((100, 16)) * 0.1
_PROBE_W2 = _PROBE_RNG.standard_normal((16, 16)) * 0.1
_PROBE_V = _PROBE_RNG.standard_normal(2000)

#: the probe's CPU time on the two-CPU test host; a run's CPU times are
#: scaled to a host on which the probe takes exactly this long
PROBE_REFERENCE_S = 0.020
#: wall time of rounds between two probes within an episode
PROBE_INTERVAL_S = 0.25


def probe_host() -> float:
    """CPU seconds of one fixed piece of work that does not use ``src/``.

    The speed a shared host gives a CPU-bound thread drifts by 10-20%
    over minutes, with the load on the cores it shares, and CPU time
    drifts with it.  The probe has the simulator's mix (small matrix
    products, an elementwise nonlinearity, a top-k selection over a
    model-sized vector and interpreter-bound dict work), so its CPU
    time drifts the same way; the benchmark divides it out.
    """
    start = time.process_time()
    acc = 0.0
    for _ in range(24):
        for i in range(24):
            hidden = np.tanh(_PROBE_X @ _PROBE_W1)
            out = hidden @ _PROBE_W2
            grad = hidden.T @ (out - out.mean(axis=0))
            top = np.argpartition(np.abs(_PROBE_V + i), -40)[-40:]
            acc += float(grad[0, 0]) + float(_PROBE_V[top].sum())
            acc += sum({j: j * i for j in range(30)}.values())
    return time.process_time() - start


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def summarize(values: list[float]) -> dict:
    """Median, 95th percentile, quartile spread and sample count."""
    n = len(values)
    if n == 0:
        return {"n": 0, "median": 0.0, "p95": 0.0, "iqr_rel": 0.0}
    median = float(np.median(values))
    iqr_rel = 0.0
    if n >= 2 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr_rel = (q3 - q1) / median
    return {
        "n": n,
        "median": median,
        "p95": float(np.percentile(values, 95)),
        "iqr_rel": iqr_rel,
    }


def history_digest(trainer) -> str:
    """Hash of per-round (loss, k, cumulative time) plus final weights."""
    rows = np.array(
        [(r.loss, r.k, r.cumulative_time) for r in trainer.history],
        dtype=np.float64,
    )
    digest = hashlib.sha256(rows.tobytes())
    digest.update(np.ascontiguousarray(trainer.model.get_weights()).tobytes())
    return digest.hexdigest()


def time_to_target(history, target: float) -> tuple[float, bool]:
    """Simulated time at which the eval loss first reaches ``target``.

    Interpolated linearly between the two evaluations around the
    crossing.  When the target is never reached, returns the last
    round's cumulative time and ``False``.
    """
    prev = None
    for record in history:
        if not math.isfinite(record.loss):
            continue
        if record.loss <= target:
            if prev is None:
                return record.cumulative_time, True
            t0, l0 = prev
            frac = (l0 - target) / (l0 - record.loss)
            return t0 + frac * (record.cumulative_time - t0), True
        prev = (record.cumulative_time, record.loss)
    return history[-1].cumulative_time, False


def windowed_rate(times: list[list[float]], window: int = EVAL_EVERY) -> float:
    """Median throughput over consecutive windows of ``window`` rounds.

    ``times`` holds each episode's per-round times.  Each full window
    holds one evaluation round, so windows are alike; the median keeps
    a short stall of the host from moving the rate.
    """
    rates = [
        window / sum(rounds[i:i + window])
        for rounds in times
        for i in range(0, len(rounds) - window + 1, window)
    ]
    return float(np.median(rates)) if rates else 0.0


def round_profile(times: list[list[float]]) -> np.ndarray:
    """Typical time of each round index: the median over episodes.

    ``times`` holds each episode's per-round times.  A host stall or a
    slow stretch of the host hits a few episodes at a given round, not
    most of them, so percentiles of this profile track the workload's
    own heavy rounds (evaluations, large k) rather than the host's
    noise.
    """
    played = [rounds for rounds in times if rounds]
    if not played:
        return np.zeros(1)
    length = min(len(r) for r in played)
    return np.median([r[:length] for r in played], axis=0)


def panel_seeds(workload: Workload, seed: int) -> list[int]:
    """The run's episode seeds: the fixed reference panel plus one
    seed made from ``--seed`` (placed first)."""
    return [1000 + seed] + list(range(workload.panel - 1))


# ----------------------------------------------------------------------
# Host stamp
# ----------------------------------------------------------------------
def host_stamp(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------
class PoolGuard:
    """Counts worker pools and gradient requests from outside, so a
    sharded backend that silently fell back to in-process serial
    execution is caught instead of reported under the sharded name."""

    def __init__(self) -> None:
        self.pools: list[int] = []
        self.requests = 0
        self._patcher = Patcher()
        guard = self

        def count_init(init):
            def wrapper(pool, num_workers, *args, **kwargs):
                init(pool, num_workers, *args, **kwargs)
                guard.pools.append(num_workers)
            return wrapper

        def count_requests(compute):
            def wrapper(*args, **kwargs):
                guard.requests += 1
                return compute(*args, **kwargs)
            return wrapper

        self._patcher.patch(WorkerPool, "__init__", count_init)
        self._patcher.patch(WorkerPool, "compute_gradients", count_requests)

    def restore(self) -> None:
        self._patcher.restore()


@dataclass
class EpisodeResult:
    seed: int
    #: CPU seconds of the build plus the warm-up round
    setup_s: float = 0.0
    setup_wall_s: float = 0.0
    #: wall and CPU seconds of each timed round
    round_s: list[float] = field(default_factory=list)
    round_cpu_s: list[float] = field(default_factory=list)
    #: CPU seconds of each host-speed probe run between rounds
    probe_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str | None = None
    final_loss: float = math.nan
    sim_time: float = math.nan
    reached: bool = False
    k_mean: float = 0.0
    uplink_bytes: float = 0.0
    clients_created: list[int] = field(default_factory=list)
    staleness_mean: float = 0.0
    useful_ratio: float = 1.0
    pools: list[int] = field(default_factory=list)
    pool_requests: int = 0

    def fail(self, message: str, rounds: int = 1) -> None:
        self.failed = min(self.failed + rounds, self.attempted)
        self.errors.append(message)


def run_episode(workload: Workload, seed: int, backend=None,
                tracer: Tracer | None = None,
                guard: PoolGuard | None = None) -> EpisodeResult:
    """Build, warm up and play one episode of ``workload.rounds`` rounds.

    Set-up is the build plus the warm-up round.  Each later round is
    timed on its own, by the wall clock and by :func:`cpu_seconds`; a
    round fails if it raises or its evaluated loss is not finite.
    Between rounds, :func:`probe_host` runs once per
    ``PROBE_INTERVAL_S`` of round time, outside every timing.
    """
    result = EpisodeResult(seed)
    pools_before = len(guard.pools) if guard else 0
    requests_before = guard.requests if guard else 0
    kwargs = {} if backend is None else {"backend": backend}
    episode = None
    result.attempted = 1
    start, cpu_start = time.perf_counter(), cpu_seconds()
    try:
        episode = workload.build(seed, **kwargs)
        if tracer is not None:
            install_instance_layers(tracer, episode)
        clients = len(episode.trainer.clients)
        records = [episode.step()]
        result.setup_s = cpu_seconds() - cpu_start
        result.setup_wall_s = time.perf_counter() - start
        step = episode.step
        played = next_probe = 0.0
        for _ in range(workload.rounds - 1):
            if played >= next_probe:
                result.probe_s.append(probe_host())
                next_probe = played + PROBE_INTERVAL_S
            result.attempted += 1
            begin, cpu_begin = time.perf_counter(), cpu_seconds()
            record = tracer.call_round(step) if tracer else step()
            result.round_cpu_s.append(cpu_seconds() - cpu_begin)
            result.round_s.append(time.perf_counter() - begin)
            played += result.round_s[-1]
            records.append(record)
            grown = len(episode.trainer.clients)
            result.clients_created.append(grown - clients)
            clients = grown
    except Exception:
        result.fail(traceback.format_exc())
        if episode is not None:
            episode.close()
        return result
    for record in records:
        evaluated = (record.round_index % episode.trainer.eval_every == 0
                     or record.round_index == 1)
        if evaluated and not math.isfinite(record.loss):
            result.fail(f"round {record.round_index}: loss {record.loss}")
    result.digest = history_digest(episode.trainer)
    result.final_loss = float(records[-1].loss)
    result.sim_time, result.reached = time_to_target(
        records, workload.target_loss
    )
    measured = records[1:]
    result.k_mean = float(np.mean([r.k for r in measured]))
    result.uplink_bytes = float(np.median(
        [r.uplink_elements * SPARSE_ELEMENT_BYTES for r in measured]
    ))
    staleness = getattr(episode.trainer, "staleness_history", None)
    if staleness:
        result.staleness_mean = float(np.mean(staleness))
    if episode.scenario is not None:
        stats = episode.scenario.stats
        attempts = stats.total_arrived + stats.total_dropped
        result.useful_ratio = stats.total_arrived / attempts
    episode.close()
    if guard is not None:
        result.pools = guard.pools[pools_before:]
        result.pool_requests = guard.requests - requests_before
    return result


def check_pool(workload: Workload, result: EpisodeResult) -> None:
    """Fail an episode of a sharded workload that ran no real pool."""
    if workload.workers and (
        workload.workers not in result.pools
        or result.pool_requests < workload.rounds
    ):
        result.fail(
            f"expected a {workload.workers}-worker pool serving every round;"
            f" saw pools {result.pools} and {result.pool_requests} "
            "gradient requests (silent serial fallback?)",
            rounds=workload.rounds,
        )


def warm_up(workload: Workload, seed: int,
            guard: PoolGuard | None) -> list[EpisodeResult]:
    """Untimed episodes of the run's own seed before anything is timed.

    They warm the process up (allocator, caches, the first worker
    fork) and give the determinism reference.  The reference plays in
    process; a sharded workload then replays it on its worker pool,
    which must match bit for bit (the backends' equivalence contract).
    """
    reference = run_episode(
        workload, seed, backend="vectorized" if workload.workers else None
    )
    warmups = [reference]
    if workload.workers:
        sharded = run_episode(workload, seed, guard=guard)
        check_pool(workload, sharded)
        check_digest(sharded, reference.digest, workload.rounds,
                     "the single-process run")
        warmups.append(sharded)
    return warmups


def check_digest(result: EpisodeResult, reference: str | None,
                 rounds: int, what: str) -> None:
    if result.digest is not None and result.digest != reference:
        result.fail(f"history digest differs from {what}", rounds=rounds)


# ----------------------------------------------------------------------
# End-to-end pass (tracing off)
# ----------------------------------------------------------------------
def measure(workload: Workload, seed: int, seconds: float):
    guard = PoolGuard() if workload.workers else None
    seeds = panel_seeds(workload, seed)
    episodes: list[EpisodeResult] = []
    measured = 0.0
    try:
        warmups = warm_up(workload, seeds[0], guard)
        digests = {seeds[0]: warmups[0].digest}
        while len(episodes) < len(seeds) or measured < seconds:
            sub_seed = seeds[len(episodes) % len(seeds)]
            result = run_episode(workload, sub_seed, guard=guard)
            check_pool(workload, result)
            check_digest(result, digests.setdefault(sub_seed, result.digest),
                         workload.rounds, "an earlier episode of that seed")
            episodes.append(result)
            measured += sum(result.round_s)
            if result.failed:
                break
    finally:
        if guard is not None:
            guard.restore()

    # CPU seconds -> reference seconds: the run's CPU times as they
    # would read on a host where the probe takes PROBE_REFERENCE_S
    probe = float(np.median([p for e in episodes for p in e.probe_s]))
    to_ref = PROBE_REFERENCE_S / probe
    cpu_times = [e.round_cpu_s for e in episodes]
    wall_times = [e.round_s for e in episodes]
    setups = [e.setup_s for e in episodes]
    panel = episodes[: len(seeds)]
    profile = round_profile(cpu_times) * to_ref
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kib = self_rss + workload.workers * child_rss
    metrics = {
        "setup_s": float(np.median(setups)) * to_ref,
        "rounds_per_ref_s": windowed_rate(cpu_times) / to_ref,
        "round_ref_ms.p50": float(np.median(profile)) * 1e3,
        "round_ref_ms.p95": float(np.percentile(profile, 95)) * 1e3,
        "peak_rss_mb": peak_kib / 1024.0,
        "final_loss": float(np.mean([e.final_loss for e in panel])),
        "sim_time_to_target_loss": float(np.mean([e.sim_time
                                                  for e in panel])),
    }
    for e in panel:
        if not e.reached:
            print(f"warning: seed {e.seed} never reached loss "
                  f"{workload.target_loss}; counted at the last round",
                  file=sys.stderr)
    everything = warmups + episodes
    wall_profile = round_profile(wall_times)
    detail = {
        "probe": {"median_ms": probe * 1e3, "to_ref": to_ref,
                  **summarize([p for e in episodes for p in e.probe_s])},
        "wall": {
            "rounds_per_s": windowed_rate(wall_times),
            "round_ms.p50": float(np.median(wall_profile)) * 1e3,
            "round_ms.p95": float(np.percentile(wall_profile, 95)) * 1e3,
            "setup_s": float(np.median([e.setup_wall_s for e in episodes])),
        },
        "round_cpu_ms": scaled(summarize(
            [t for rounds in cpu_times for t in rounds]
        )),
        "round_ms": scaled(summarize(
            [t for rounds in wall_times for t in rounds]
        )),
        "setup_s": summarize(setups),
        "episodes": [episode_detail(e) for e in everything],
    }
    return metrics, everything, detail


def scaled(stats: dict) -> dict:
    """``summarize`` of seconds, with its times in milliseconds."""
    return {k: v * 1e3 if k in ("median", "p95") else v
            for k, v in stats.items()}


def episode_detail(e: EpisodeResult) -> dict:
    return {
        "seed": e.seed, "setup_s": e.setup_s,
        "setup_wall_s": e.setup_wall_s, "rounds": e.attempted,
        "round_ms_p50": float(np.median(e.round_s)) * 1e3 if e.round_s
        else None,
        "round_cpu_ms_p50": float(np.median(e.round_cpu_s)) * 1e3
        if e.round_cpu_s else None,
        "failed": e.failed, "digest": e.digest, "final_loss": e.final_loss,
        "sim_time_to_target_loss": e.sim_time, "reached": e.reached,
        "errors": e.errors,
        "round_ms": [t * 1e3 for t in e.round_s],
        "round_cpu_ms": [t * 1e3 for t in e.round_cpu_s],
    }


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def install_class_layers(tracer: Tracer) -> None:
    """Class-level wraps, for objects built lazily or pickled to workers."""
    for method in ("loss_value", "loss_at", "per_sample_losses",
                   "per_sample_losses_at"):
        tracer.wrap(FlatModel, method, "nn.loss")
    tracer.wrap(FlatModel, "gradients_batched", "nn.grad")
    tracer.wrap(FlatModel, "gradient", "nn.grad_fallback")
    tracer.wrap(Client, "probe_loss", "online.probe_loss")
    tracer.wrap(Client, "draw_minibatch", "data.minibatch")
    tracer.wrap(WorkerPool, "compute_gradients", "parallel.wait",
                annotate=_ipc_bytes)
    tracer.wrap(WorkerPool, "register_clients", "parallel.register")
    tracer.wrap(WorkerPool, "broadcast_model", "parallel.broadcast")


def _ipc_bytes(span, args, kwargs, result) -> None:
    pool, token, client_ids = args[:3]
    want = kwargs.get("want_batches", args[4] if len(args) > 4 else False)
    by_worker: dict[int, list[int]] = {}
    for cid in client_ids:
        by_worker.setdefault(pool.worker_of(cid), []).append(cid)
    span.attrs = {
        "bytes_out": sum(
            len(pickle.dumps(("grads", token, cids, want, False)))
            for cids in by_worker.values()
        ),
        "bytes_back": sum(
            grad.nbytes + (batch[0].nbytes + batch[1].nbytes if batch else 0)
            for grad, batch in result
        ),
    }


def install_instance_layers(tracer: Tracer, episode) -> None:
    """Instance-level wraps on objects that stay in the driver process."""
    engine = episode.trainer.engine
    tracer.wrap(engine.backend, "local_steps", "fl.local_steps")
    tracer.wrap(engine.backend, "reset_residuals", "fl.reset_residuals")
    tracer.wrap(engine.server, "aggregate", "fl.aggregate")
    tracer.wrap(engine.sparsifier, "client_select",
                "sparsify.client_select")
    tracer.wrap(engine.sparsifier, "client_select_batched",
                "sparsify.client_select")
    tracer.wrap(engine.sparsifier, "server_select", "sparsify.server_select")
    if engine.sampler is not None:
        tracer.wrap(engine.sampler, "sample", "scenarios.sample")
    hooks = engine.scenario_hooks
    if hooks is not None:
        tracer.wrap(hooks, "after_local_steps", "scenarios.gate")
        for method in ("after_aggregate", "after_update", "observe"):
            tracer.wrap(hooks, method, "scenarios.probe")
    if getattr(engine.federation, "is_virtual", False):
        tracer.wrap(engine.federation, "client_arrays", "data.regen")


TIMED_LAYERS = (
    ("fl.round_ms", ROUND, "ms"),
    ("fl.round.self_ms", ROUND, "self_ms"),
    ("fl.local_steps_ms", "fl.local_steps", "ms"),
    ("fl.local_steps.self_ms", "fl.local_steps", "self_ms"),
    ("fl.reset_residuals_ms", "fl.reset_residuals", "ms"),
    ("fl.aggregate_ms", "fl.aggregate", "ms"),
    ("fl.aggregate_calls", "fl.aggregate", "calls"),
    ("nn.grad_ms", "nn.grad", "ms"),
    ("nn.grad_calls", "nn.grad", "calls"),
    ("nn.grad_fallback_calls", "nn.grad_fallback", "calls"),
    ("nn.loss_ms", "nn.loss", "ms"),
    ("nn.loss_calls", "nn.loss", "calls"),
    ("online.probe_loss_ms", "online.probe_loss", "ms"),
    ("online.probe_loss_calls", "online.probe_loss", "calls"),
    ("sparsify.client_select_ms", "sparsify.client_select", "ms"),
    ("sparsify.server_select_ms", "sparsify.server_select", "ms"),
    ("scenarios.sample_ms", "scenarios.sample", "ms"),
    ("scenarios.gate_ms", "scenarios.gate", "ms"),
    ("scenarios.probe_ms", "scenarios.probe", "ms"),
    ("data.regen_ms", "data.regen", "ms"),
    ("data.regen_calls", "data.regen", "calls"),
    ("data.minibatch_ms", "data.minibatch", "ms"),
    ("parallel.wait_ms", "parallel.wait", "ms"),
    ("parallel.calls", "parallel.wait", "calls"),
    ("parallel.bytes_back", "parallel.wait", "bytes_back"),
    ("parallel.bytes_out", "parallel.wait", "bytes_out"),
)


#: per-layer metrics derived from episode state rather than span times
DERIVED_LAYERS = (
    "parallel.register_calls",
    "parallel.broadcast_calls",
    "fl.clients_created",
    "fl.async.staleness_mean",
    "online.k_mean",
    "sparsify.uplink_bytes",
    "scenarios.upload_useful_ratio",
    "parallel.speedup_vs_single",
    "obs.trace_overhead_ms",
)


def trace(workload: Workload, seed: int, seconds: float):
    """Warm-up, untraced reference episodes, then traced episodes for
    ``seconds``; every replay of the run's own seed must match the
    warm-up's history digest."""
    guard = PoolGuard() if workload.workers else None
    seeds = panel_seeds(workload, seed)
    try:
        warmups = warm_up(workload, seeds[0], guard)
        reference = warmups[0].digest
        plain = run_episode(workload, seeds[0], guard=guard)
        check_pool(workload, plain)
        check_digest(plain, reference, workload.rounds, "the warm-up")
        everything = warmups + [plain]
        single = None
        if workload.workers:
            single = run_episode(workload, seeds[0], backend="vectorized")
            check_digest(single, reference, workload.rounds, "the warm-up")
            everything.append(single)
        tracer = Tracer()
        install_class_layers(tracer)
        traced: list[EpisodeResult] = []
        try:
            while not traced or sum(
                sum(e.round_s) for e in traced
            ) < seconds:
                sub_seed = seeds[len(traced) % len(seeds)]
                result = run_episode(workload, sub_seed, tracer=tracer,
                                     guard=guard)
                check_pool(workload, result)
                if sub_seed == seeds[0]:
                    check_digest(result, reference, workload.rounds,
                                 "the untraced pass")
                traced.append(result)
                if result.failed:
                    break
        finally:
            tracer.restore()
        everything += traced
    finally:
        if guard is not None:
            guard.restore()

    tables = round_tables(tracer.spans)
    metrics = {
        name: per_round_median(tables, layer, field)
        for name, layer, field in TIMED_LAYERS
    }
    episodes = len(traced)
    for name, layer in (("parallel.register_calls", "parallel.register"),
                        ("parallel.broadcast_calls", "parallel.broadcast")):
        metrics[name] = sum(
            1 for s in tracer.spans if s.name == layer
        ) / episodes
    metrics["fl.clients_created"] = float(np.median(
        [c for e in traced for c in e.clients_created]
    ))
    metrics["fl.async.staleness_mean"] = float(np.mean(
        [e.staleness_mean for e in traced]
    ))
    metrics["online.k_mean"] = float(np.mean([e.k_mean for e in traced]))
    metrics["sparsify.uplink_bytes"] = float(np.median(
        [e.uplink_bytes for e in traced]
    ))
    metrics["scenarios.upload_useful_ratio"] = float(np.mean(
        [e.useful_ratio for e in traced]
    ))
    metrics["parallel.speedup_vs_single"] = (
        windowed_rate([plain.round_s]) / windowed_rate([single.round_s])
        if single is not None else 0.0
    )
    traced_p50 = float(np.median([t for e in traced for t in e.round_s]))
    metrics["obs.trace_overhead_ms"] = abs(
        traced_p50 - float(np.median(plain.round_s))
    ) * 1e3

    detail = {
        "layers": layer_breakdown(tables),
        "span_errors": dict(tracer.errors),
        "spans": len(tracer.spans),
        "episodes": [episode_detail(e) for e in everything],
    }
    return metrics, everything, detail


def layer_breakdown(tables) -> dict:
    """Mean per-round inclusive and self time of every traced layer.

    The self times sum to the mean traced round time: that is the
    accounting check of the traced pass.
    """
    names = sorted({name for t in tables for name in t})
    rounds = len(tables) or 1
    out = {
        name: {
            field: sum(t.get(name, {}).get(field, 0.0) for t in tables)
            / rounds
            for field in ("ms", "self_ms", "calls")
        }
        for name in names
    }
    return out


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    host = host_stamp(workload.name, args.seed)
    print("host: " + json.dumps(host))
    if args.trace:
        metrics, episodes, detail = trace(workload, args.seed, args.seconds)
    else:
        metrics, episodes, detail = measure(workload, args.seed,
                                            args.seconds)
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    for e in episodes:
        for error in e.errors:
            print(f"seed {e.seed}: {error}", file=sys.stderr)

    if args.trace:
        layers = detail["layers"]
        print(f"{'layer':<28}{'ms/round':>10}{'self ms':>10}{'calls':>9}")
        for name, row in layers.items():
            print(f"{name:<28}{row['ms']:>10.3f}{row['self_ms']:>10.3f}"
                  f"{row['calls']:>9.1f}")
        accounted = sum(row["self_ms"] for row in layers.values())
        print(f"self times add up to {accounted:.3f} ms of the "
              f"{layers[ROUND]['ms']:.3f} ms traced round")
    else:
        print(f"{'metric':<26}{'value':>14}  unit")
        for name, value in metrics.items():
            print(f"{name:<26}{value:>14.4f}  {END_TO_END_UNITS[name]}")
        for name, value in detail["wall"].items():
            print(f"{'wall ' + name:<26}{value:>14.4f}  {WALL_UNITS[name]}")
        probe = detail["probe"]
        print(f"host probe: {probe['median_ms']:.3f} CPU ms "
              f"(n={probe['n']}, iqr/median={probe['iqr_rel']:.3f}); "
              f"CPU times x {probe['to_ref']:.4f} = reference times")
        for name in ("round_cpu_ms", "round_ms", "setup_s"):
            stats = detail[name]
            print(f"{name}: n={stats['n']} "
                  f"iqr/median={stats['iqr_rel']:.3f}")
    print(f"round_error_rate: {failed}/{attempted} = "
          f"{failed / max(attempted, 1):.4f}")

    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / (f"{workload.name}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    report.write_text(json.dumps(
        {"host": host, "metrics": metrics, **detail}, indent=1,
        default=float,
    ))
    # A failed run may leave a metric undefined; JSON has no NaN.
    metrics = {name: value if math.isfinite(value) else 0.0
               for name, value in metrics.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value,
                   "unit": END_TO_END_UNITS.get(name) or layer_unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.startswith("parallel.bytes") or name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("calls", "clients_created")):
        return "count"
    return {
        "fl.async.staleness_mean": "commits",
        "online.k_mean": "elements",
    }.get(name, "ratio")


def run_all(args) -> int:
    """Every workload, each in its own process (fresh peak-RSS counter)."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
