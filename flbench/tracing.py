"""Outside-in tracing: spans around the program's public calls.

Nothing here is installed inside ``src/``.  :class:`Patcher` swaps a
callable attribute of a class or an instance for a wrapper and puts the
original back on :meth:`Patcher.restore`; :class:`Tracer` uses it to
record one :class:`Span` (name, start, end, parent) per wrapped call,
in memory.  A layer's self time is its span's duration minus the time
its child spans cover.

Only objects that stay in the driver process are patched at instance
level.  Classes whose *instances* are pickled to sharded workers
(``FlatModel``) are patched at class level, which leaves every instance
picklable; a forked worker inherits the patched class, so the wrapper
records only in the process that installed it.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np


class Patcher:
    """Replace attributes with wrappers; undo in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def patch(self, owner, attr: str, make) -> None:
        """Set ``owner.attr = make(original)``.

        ``owner`` is a class (the wrapper then runs for every instance,
        receiving ``self`` as its first argument) or an instance.
        """
        own = attr in vars(owner)
        saved = vars(owner)[attr] if own else None
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, saved, own))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "child_time",
                 "attrs")

    def __init__(self, name: str, start: float, parent: int, round_: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.round = round_
        self.child_time = 0.0
        self.attrs: dict[str, float] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


ROUND = "fl.round"


class Tracer:
    """In-memory span recorder fed by wrappers around public calls.

    A call re-entering a layer that is already the innermost open span
    (``loss_at`` calling ``loss_value``) is not recorded again, so a
    layer's call count is its outermost calls.  ``round`` of a span is
    the index of the enclosing :data:`ROUND` span, or -1 during set-up.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._round = -1
        self._rounds = 0
        self._pid = os.getpid()
        self.patcher = Patcher()

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``annotate(span, args, kwargs, result)`` may attach counters
        (bytes) to the span after the call returns.
        """
        self.patcher.patch(owner, attr,
                           lambda fn: self._wrapper(fn, name, annotate))

    def _wrapper(self, fn, name: str, annotate):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if os.getpid() != tracer._pid or (
                stack and tracer.spans[stack[-1]].name == name
            ):
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(index)
            if annotate is not None:
                annotate(tracer.spans[index], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call_round(self, step):
        """Run one ``step()`` inside a :data:`ROUND` span."""
        self._round = self._rounds
        self._rounds += 1
        index = self._open(ROUND)
        try:
            return step()
        except BaseException:
            self.errors[ROUND] += 1
            raise
        finally:
            self._close(index)
            self._round = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent,
                               self._round))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    def restore(self) -> None:
        self.patcher.restore()


def round_tables(spans: list[Span]) -> list[dict[str, dict[str, float]]]:
    """Per traced round: ``name -> {ms, self_ms, calls, <attrs>}``.

    The self times of every span in a round add up to the round span's
    duration, so they account for all of the round's wall time.
    """
    rounds: dict[int, dict[str, dict[str, float]]] = {}
    for span in spans:
        if span.round < 0:
            continue
        table = rounds.setdefault(span.round, {})
        row = table.setdefault(
            span.name, {"ms": 0.0, "self_ms": 0.0, "calls": 0}
        )
        row["ms"] += span.duration * 1e3
        row["self_ms"] += span.self_time * 1e3
        row["calls"] += 1
        if span.attrs:
            for key, value in span.attrs.items():
                row[key] = row.get(key, 0) + value
    return [rounds[r] for r in sorted(rounds)]


def per_round_median(tables, name: str, field: str) -> float:
    """Median over rounds of one layer field (0 where it never ran)."""
    if not tables:
        return 0.0
    return float(np.median([t.get(name, {}).get(field, 0.0)
                            for t in tables]))

