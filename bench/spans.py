"""In-memory spans for the traced benchmark run.

A span has a name, a start, an end and a parent.  Spans are opened by the
benchmark's own code around calls into temperlab; nothing inside the library
is instrumented.  Work too fine-grained for a span (one oracle call costs
microseconds) is timed by a *leaf clock*: a callable returning cumulative
nanoseconds, read when a span opens and closes.  A span's self time is its
duration minus the part of it covered by child spans, minus the leaf time
that ran in it outside those children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: int  # ns
    end: int  # ns
    parent: int  # index into Tracer.spans, -1 at the root
    index: int  # this span's own index into Tracer.spans
    leaf_ns: int = 0  # leaf-clock time inside [start, end], children included


class Tracer:
    """Collects spans in memory; `self_ns` reduces one to its self time."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._leaf_clocks = []
        self._stack: list[int] = []
        self.spans: list[Span] = []

    def add_leaf_clock(self, fn) -> None:
        self._leaf_clocks.append(fn)

    def _leaf_now(self) -> int:
        return sum(fn() for fn in self._leaf_clocks)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        leaf0 = self._leaf_now()
        sp = Span(name, self._clock(), 0, parent, idx)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            sp.leaf_ns = self._leaf_now() - leaf0
            self._stack.pop()

    def children(self, idx: int) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == idx]

    def self_ns(self, idx: int) -> int:
        """Duration minus child-span coverage minus leaf time outside children."""
        sp = self.spans[idx]
        kids = [self.spans[i] for i in self.children(idx)]
        covered = 0
        cursor = sp.start
        for k in sorted(kids, key=lambda s: s.start):
            lo, hi = max(k.start, cursor), min(k.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own_leaf = sp.leaf_ns - sum(k.leaf_ns for k in kids)
        return (sp.end - sp.start) - covered - own_leaf

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start_ns": s.start, "end_ns": s.end,
             "parent": s.parent, "leaf_ns": s.leaf_ns}
            for s in self.spans
        ]


class NullTracer:
    """Stands in for a Tracer in untraced runs: spans cost one call each."""

    @contextmanager
    def span(self, name: str):
        yield None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for an empty sequence."""
    vals = sorted(values)
    if not vals:
        return 0.0
    k = max(0, min(len(vals) - 1, int(-(-q * len(vals) // 100)) - 1))
    return float(vals[k])
