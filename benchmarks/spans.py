"""Spans around the benchmark's calls into lotbench, and the statistics
both the timed and the traced run report.

A span records a name ("layer.function"), an optional tag that splits one
function by use (the designer LP versus the min-mass LP), its start and
end, the task it belongs to and its parent span.  Spans stay in memory
and are reduced to metrics when the run ends.  The library itself is not
instrumented: a call into `transform` that internally runs `mechanism`
code is charged to `transform`.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

LAYERS = (
    "instance", "mechanism", "lpsolve", "transform", "optimizer",
    "converse", "crp", "ordinal", "cli",
)


@dataclass
class Span:
    name: str
    tag: str | None
    start: float
    end: float
    task: int
    parent: int  # index into Tracer.spans; -1 for a task's root span

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """The timed run: calls go straight through and nothing is recorded."""

    def call(self, name, fn, *args, tag=None):
        return fn(*args)

    def task(self, task_id: int, kind: str):
        return contextlib.nullcontext()


class Tracer:
    """The traced run: every call through `call` becomes a span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._task = -1

    def _open(self, name: str, tag: str | None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, tag, self.clock(), math.nan, self._task, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def call(self, name, fn, *args, tag=None):
        idx = self._open(name, tag)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def task(self, task_id: int, kind: str):
        self._task = task_id
        idx = self._open(f"task.{kind}", None)
        try:
            yield
        finally:
            self._close(idx)
            self._task = -1


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(idx)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def local_medians(values, half_window: int) -> list[float]:
    """For each position, the median of the values within half_window
    positions of it (fewer at the ends)."""
    return [
        statistics.median(values[max(0, i - half_window):i + half_window + 1])
        for i in range(len(values))
    ]


def reportable_percentile(n: int, ladder=(50, 90, 99, 99.9)):
    """Highest percentile of the ladder with at least 10 samples beyond it,
    or None when even the median has fewer."""
    best = None
    for p in ladder:
        if n * (100 - Fraction(str(p))) / 100 >= 10:
            best = p
    return best


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """calls, self time and share of task time for every layer."""
    selfs = self_times(spans)
    task_total = sum(s.end - s.start for s in spans if s.parent < 0)
    out = {}
    for layer in LAYERS:
        mine = [t for s, t in zip(spans, selfs) if s.layer == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = sum(mine)
        out[f"{layer}.share"] = sum(mine) / task_total if task_total else 0.0
    return out


def durations_ms(spans: list[Span], name: str, tag: str | None = None) -> list[float]:
    return [
        (s.end - s.start) * 1000
        for s in spans
        if s.name == name and (tag is None or s.tag == tag)
    ]


def p50_ms(spans: list[Span], name: str, tag: str | None = None) -> float:
    """Median span duration; 0 when the workload never makes the call."""
    values = durations_ms(spans, name, tag)
    return percentile(values, 50) if values else 0.0
