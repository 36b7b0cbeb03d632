"""Tests of the benchmark's own code.

    python3 -m pytest flbench -q
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import pathlib
import sys
import time
from types import SimpleNamespace

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import ROUND, Patcher, Tracer, round_tables  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles and quality arithmetic
# ----------------------------------------------------------------------
def test_summarize_percentiles_and_spread():
    stats = run.summarize([float(v) for v in range(1, 101)])
    assert stats["n"] == 100
    assert stats["median"] == pytest.approx(50.5)
    assert stats["p95"] == pytest.approx(95.05)
    # statistics.quantiles (exclusive): q1 = 25.25, q3 = 75.75
    assert stats["iqr_rel"] == pytest.approx(50.5 / 50.5)


def test_summarize_degenerate_inputs():
    assert run.summarize([])["n"] == 0
    one = run.summarize([2.0])
    assert (one["median"], one["p95"], one["iqr_rel"]) == (2.0, 2.0, 0.0)


def _spin(seconds, spun, done):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    spun.set()
    done.wait()


def test_cpu_clock_counts_live_workers_but_not_waiting():
    start = run.cpu_seconds()
    time.sleep(0.2)
    assert run.cpu_seconds() - start < 0.1
    ctx = multiprocessing.get_context("fork")
    spun, done = ctx.Event(), ctx.Event()
    worker = ctx.Process(target=_spin, args=(0.3, spun, done))
    before = run.cpu_seconds()
    worker.start()
    try:
        assert spun.wait(timeout=30)
        assert run.cpu_seconds() - before >= 0.3
    finally:
        done.set()
        worker.join()


def _records(points):
    nan = float("nan")
    return [SimpleNamespace(round_index=i + 1, cumulative_time=t,
                            loss=nan if loss is None else loss, k=1.0)
            for i, (t, loss) in enumerate(points)]


def test_time_to_target_interpolates_between_evaluations():
    history = _records([(1, 3.0), (2, None), (3, 2.0), (4, 1.0)])
    # crosses 1.5 halfway between the evaluations at t=3 and t=4
    assert run.time_to_target(history, 1.5) == (3.5, True)
    assert run.time_to_target(history, 5.0) == (1, True)
    assert run.time_to_target(history, 0.5) == (4, False)


def test_panel_keeps_reference_seeds_and_adds_the_run_seed():
    workload = WORKLOADS["async-stragglers48"]
    seeds = run.panel_seeds(workload, 7)
    assert len(seeds) == workload.panel == len(set(seeds))
    assert seeds[0] not in run.panel_seeds(workload, 8)
    assert seeds[1:] == run.panel_seeds(workload, 8)[1:]


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


class _Layer:
    def outer(self):
        self.inner()
        self.inner()

    def inner(self):
        return None


def test_self_time_is_span_minus_children(monkeypatch):
    tracer = Tracer()
    layer = _Layer()
    tracer.wrap(layer, "outer", "outer")
    tracer.wrap(layer, "inner", "inner")
    # round [0, 10]; outer [1, 8]; inner [2, 3] and [4, 6]
    monkeypatch.setattr(tracing.time, "perf_counter",
                        _Clock([0, 1, 2, 3, 4, 6, 8, 10]))
    tracer.call_round(layer.outer)
    (table,) = round_tables(tracer.spans)
    assert table[ROUND]["ms"] == pytest.approx(10e3)
    assert table[ROUND]["self_ms"] == pytest.approx(3e3)
    assert table["outer"]["self_ms"] == pytest.approx(4e3)
    assert table["inner"] == {"ms": pytest.approx(3e3),
                              "self_ms": pytest.approx(3e3), "calls": 2}
    total_self = sum(row["self_ms"] for row in table.values())
    assert total_self == pytest.approx(table[ROUND]["ms"])


def test_spans_outside_rounds_count_as_setup():
    tracer = Tracer()
    layer = _Layer()
    tracer.wrap(layer, "inner", "inner")
    layer.inner()
    tracer.call_round(layer.inner)
    assert [s.round for s in tracer.spans] == [-1, 0, 0]
    assert len(round_tables(tracer.spans)) == 1


def test_reentrant_call_of_the_same_layer_is_one_span():
    tracer = Tracer()
    layer = _Layer()
    tracer.wrap(layer, "outer", "loss")
    tracer.wrap(layer, "inner", "loss")
    tracer.call_round(layer.outer)
    assert [s.name for s in tracer.spans] == [ROUND, "loss"]


# ----------------------------------------------------------------------
# Wrapper transparency
# ----------------------------------------------------------------------
class _Target:
    def value(self, x, scale=1):
        return {"x": x * scale}

    def boom(self):
        raise KeyError("boom")


def test_wrappers_return_values_unchanged_and_restore():
    original = _Target.__dict__["value"]
    tracer = Tracer()
    tracer.wrap(_Target, "value", "class.value")
    target = _Target()
    assert target.value(3, scale=2) == {"x": 6}
    tracer.wrap(target, "value", "instance.value")
    assert target.value(4) == {"x": 4}
    assert [s.name for s in tracer.spans] == [
        "class.value", "instance.value", "class.value"]
    tracer.restore()
    assert _Target.__dict__["value"] is original
    assert "value" not in vars(target)


def test_wrapped_exceptions_propagate_and_are_counted():
    tracer = Tracer()
    target = _Target()
    tracer.wrap(target, "boom", "boom")
    with pytest.raises(KeyError):
        target.boom()
    with pytest.raises(KeyError):
        tracer.call_round(target.boom)
    assert tracer.errors == {"boom": 2, ROUND: 1}
    assert all(s.end >= s.start for s in tracer.spans)
    assert not tracer._stack
    tracer.restore()


def test_patcher_restores_inherited_methods():
    class Child(_Target):
        pass

    patcher = Patcher()
    patcher.patch(Child, "value", lambda fn: lambda self, x: "patched")
    assert Child().value(1) == "patched"
    patcher.restore()
    assert "value" not in vars(Child)
    assert Child().value(1) == {"x": 1}


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
SHORT = dataclasses.replace(WORKLOADS["async-stragglers48"], rounds=20)


def test_history_digest_is_deterministic_and_sensitive():
    first = run.run_episode(SHORT, 3)
    again = run.run_episode(SHORT, 3)
    other = run.run_episode(SHORT, 4)
    assert first.failed == again.failed == other.failed == 0
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_host_probe_runs_between_rounds_without_touching_them(monkeypatch):
    monkeypatch.setattr(run, "PROBE_INTERVAL_S", 0.0)
    every = run.run_episode(SHORT, 3)
    monkeypatch.setattr(run, "PROBE_INTERVAL_S", 1e9)
    once = run.run_episode(SHORT, 3)
    assert len(every.probe_s) == len(every.round_s) == SHORT.rounds - 1
    assert len(once.probe_s) == 1
    assert all(p > 0 for p in every.probe_s)
    assert every.digest == once.digest


def test_digest_changes_with_any_round_field():
    weights = SimpleNamespace(get_weights=lambda: __import__("numpy").ones(3))
    base = _records([(1, 2.0), (2, 1.0)])
    digest = run.history_digest(SimpleNamespace(history=base, model=weights))
    changed = _records([(1, 2.0), (2, 1.0 + 1e-12)])
    assert digest != run.history_digest(
        SimpleNamespace(history=changed, model=weights))
    assert digest == run.history_digest(
        SimpleNamespace(history=_records([(1, 2.0), (2, 1.0)]),
                        model=weights))


def test_digest_mismatch_fails_the_episode():
    result = run.EpisodeResult(0)
    result.digest, result.attempted = "a", 5
    run.check_digest(result, "b", rounds=5, what="the warm-up")
    assert result.failed == 5 and result.errors


def test_pool_guard_rejects_silent_serial_fallback():
    workload = WORKLOADS["fab-cnn24-sharded2"]
    serial = run.EpisodeResult(0)
    serial.attempted = workload.rounds
    run.check_pool(workload, serial)
    assert serial.failed == workload.rounds
    sharded = run.EpisodeResult(0)
    sharded.pools, sharded.pool_requests = [2], workload.rounds
    run.check_pool(workload, sharded)
    assert sharded.failed == 0


def test_pool_guard_counts_pools_from_outside():
    from repro.parallel.pool import WorkerPool

    guard = run.PoolGuard()
    try:
        pool = WorkerPool(2, 4)
        pool.close()
    finally:
        guard.restore()
    assert guard.pools == [2]
    WorkerPool(1, 4).close()
    assert guard.pools == [2]


# ----------------------------------------------------------------------
# BENCHMARK.json matches what the runner reports
# ----------------------------------------------------------------------
def test_benchmark_file_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    layers = [n for n, _, _ in run.TIMED_LAYERS] + list(run.DERIVED_LAYERS)
    assert [m["name"] for m in spec["per_layer"]] == layers
    assert all(m["unit"] == run.layer_unit(m["name"])
               for m in spec["per_layer"])


def test_round_profile_ignores_a_stall_in_one_episode():
    episodes = [[1.0, 2.0, 9.0], [1.0, 50.0, 9.0], [1.0, 2.0, 9.0, 4.0]]
    assert list(run.round_profile(episodes)) == [1.0, 2.0, 9.0]


def test_windowed_rate_is_the_median_window_throughput():
    stalled = [0.1] * 10 + [1.0] * 10 + [0.1] * 10 + [0.1] * 5
    # three full windows: 10, 1 and 10 rounds/s; the short tail is dropped
    assert run.windowed_rate([stalled]) == pytest.approx(10.0)
