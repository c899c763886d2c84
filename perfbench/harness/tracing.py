"""Span recorder around the layers' public entry points.

The traced run wraps the calls each layer exposes -- module globals the
callers look up at call time, class attributes, or attributes of the
service's own objects -- with :meth:`SpanRecorder.wrap`.  A span records
its name (the layer), start, end, parent span and request id; spans are
kept in memory per thread and written once, at exit.  Untraced runs
install nothing, so they pay no recording cost.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  What recording costs is measured, not
inferred: :meth:`SpanRecorder.overhead_pct` times the recorder's own
bookkeeping on a no-op and scales it by the spans and counter updates
the run made.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (name, start, end, parent index or -1, request id)
Span = List[object]
#: No-op calls per calibration round of :meth:`SpanRecorder.overhead_pct`.
CALIBRATION_CALLS = 20000


class SpanRecorder:
    """Thread-aware span recording.

    ``enabled`` may be flipped at any time; a span is recorded when it
    starts while enabled.  Each thread keeps its own span list and stack,
    so parents are always spans of the same thread.
    """

    def __init__(self) -> None:
        self.enabled = True
        self._local = threading.local()
        self._threads: List[List[Span]] = []
        self._threads_lock = threading.Lock()
        self.counters: Dict[str, int] = {}
        self.counter_updates = 0
        self._counters_lock = threading.Lock()

    # -- recording ------------------------------------------------------- #

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack, local.request = [], [], None
            with self._threads_lock:
                self._threads.append(local.spans)
        return local

    def set_request(self, request_id: object) -> None:
        """Tag spans that start on this thread with ``request_id``."""
        self._state().request = request_id

    def count(self, name: str, delta: int = 1) -> None:
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + delta
            self.counter_updates += 1

    def begin(self, name: str) -> Optional[int]:
        if not self.enabled:
            return None
        state = self._state()
        parent = state.stack[-1] if state.stack else -1
        state.spans.append([name, time.perf_counter(), None, parent,
                            state.request])
        index = len(state.spans) - 1
        state.stack.append(index)
        return index

    def end(self, index: Optional[int]) -> None:
        if index is None:
            return
        state = self._state()
        state.spans[index][2] = time.perf_counter()
        state.stack.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        """A wrapper that records one ``name`` span per call."""
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)
        traced.__wrapped__ = function
        return traced

    def wrap_generator(self, name: str, function: Callable) -> Callable:
        """A generator wrapper recording one span per item produced."""
        def traced(*args, **kwargs):
            inner = function(*args, **kwargs)
            while True:
                index = self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                yield item
        traced.__wrapped__ = function
        return traced

    # -- patching ------------------------------------------------------- #

    def patch(self, owner: object, attribute: str, name: str,
              generator: bool = False) -> None:
        """Replace ``owner.attribute`` by a traced wrapper."""
        wrap = self.wrap_generator if generator else self.wrap
        setattr(owner, attribute, wrap(name, getattr(owner, attribute)))

    @staticmethod
    def patch_with(owner: object, attribute: str,
                   make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute`` by ``make(original)``."""
        setattr(owner, attribute, make(getattr(owner, attribute)))

    # -- results -------------------------------------------------------- #

    def spans(self) -> List[List[Span]]:
        with self._threads_lock:
            return [list(spans) for spans in self._threads]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        totals: Dict[str, float] = {}
        for spans in self.spans():
            children: Dict[int, List[Tuple[float, float]]] = {}
            for span in spans:
                if span[2] is not None and span[3] >= 0:
                    children.setdefault(span[3], []).append(
                        (span[1], span[2]))
            for index, span in enumerate(spans):
                if span[2] is None:
                    continue
                covered = _covered(children.get(index, ()), span[1], span[2])
                totals[span[0]] = (totals.get(span[0], 0.0)
                                   + (span[2] - span[1]) - covered)
        return totals

    def overhead_pct(self) -> float:
        """Recording cost as a share of the time spent in traced calls.

        The cost of one span and of one counter update are timed on a
        no-op (best of five rounds of :data:`CALIBRATION_CALLS`, against the
        bare no-op)
        with a scratch recorder; they are multiplied by the spans and
        updates this recorder made, and set against the time its
        top-level spans cover less that cost -- the untraced time.
        """
        scratch = SpanRecorder()

        def noop():
            return None

        def counted():
            scratch.count("noop")

        def best(function) -> float:
            rounds = []
            for _ in range(5):
                started = time.perf_counter()
                for _ in range(CALIBRATION_CALLS):
                    function()
                rounds.append(time.perf_counter() - started)
            return min(rounds) / CALIBRATION_CALLS

        bare = best(noop)
        per_span = max(0.0, best(scratch.wrap("noop", noop)) - bare)
        per_update = max(0.0, best(counted) - bare)
        spans = self.spans()
        cost = (sum(map(len, spans)) * per_span
                + self.counter_updates * per_update)
        traced = sum(span[2] - span[1] for thread in spans for span in thread
                     if span[3] == -1 and span[2] is not None)
        untraced = traced - cost
        return cost / untraced * 100.0 if untraced > 0 else 0.0

    def write(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for thread, spans in enumerate(self.spans()):
                for index, (name, start, end, parent, request) in enumerate(
                        spans):
                    handle.write(json.dumps(
                        [thread, index, name, start, end, parent, request]))
                    handle.write("\n")
                    written += 1
        return written


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total

