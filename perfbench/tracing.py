"""In-memory spans recorded by the benchmark around its calls into a layer.

A span has a name, a start, an end, a parent and the id of the op it belongs
to. Self time is a span's duration minus the durations of its children; one
thread records all spans, so children never overlap. Counters are recorded
at the same boundaries so that ratios are taken where the work happens.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Records spans and counters; ``NULL_TRACER`` records nothing."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = ""

    @contextmanager
    def op(self, op_id: str):
        """Scope the spans recorded inside to one op."""
        previous, self._op = self._op, op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = previous

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, self._op, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every span, grouped by span name."""
        child_total = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_total[s.parent] += s.end - s.start
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            out[s.name].append(s.end - s.start - child_total[s.id])
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                 "start": s.start, "end": s.end} for s in self.spans]


class _NullTracer:
    def op(self, op_id: str):
        return nullcontext()

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        pass


NULL_TRACER = _NullTracer()
