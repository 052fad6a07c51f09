"""Spans and counters recorded around the calls into each releff module.

The tracer replaces an entry point in the namespace where its caller looks
it up (``releff.pseudo.leave_one_out_km`` is what ``pseudo`` calls, while
``releff.survival.leave_one_out_km`` is not), so the program's source stays
untouched.  An entry point that does not exist is recorded as absent and its
counts stay 0.  Spans are kept in memory; self time is computed afterwards.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory spans ``(id, parent, name, start, end)`` plus counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, namespace, attr: str, name: str, on_result=None) -> None:
        """Trace calls of ``namespace.attr`` as spans called ``name``.

        ``on_result(tracer, args, kwargs, result)`` may add counters.
        """
        original = getattr(namespace, attr, None)
        if original is None:
            self.absent.append(f"{getattr(namespace, '__name__', namespace)}.{attr}")
            return

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _clock()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, start, end)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(namespace, attr, traced)
        self._patches.append((namespace, attr, original))

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        selfs = self_times(self.spans)
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _, name, start, end in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += selfs[sid]
        return dict(out)


def covered(interval, pieces) -> float:
    """Length of the part of ``interval`` covered by the union of ``pieces``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in pieces if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct child spans cover."""
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered((start, end), children.get(sid, ()))
        for sid, _, _, start, end in spans
    }
