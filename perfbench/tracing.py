"""In-memory spans recorded by the benchmark around its calls into cvdag.

A span has a name (``<module>.<function>`` for a call into the package,
``job`` for one whole job), start and end times from ``time.perf_counter``,
the id of the span that caused it, and the id of the job it belongs to.
Nothing inside the package is instrumented; spans are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    job: int | None
    start: float
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``open``/``close`` bracket one span."""

    def __init__(self):
        self.spans: list[Span] = []

    def open(self, name: str, parent: int | None, job: int | None) -> Span:
        span = Span(len(self.spans), name, parent, job, time.perf_counter())
        self.spans.append(span)
        return span

    @staticmethod
    def close(span: Span) -> None:
        span.end = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: its duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.span_id: s.seconds - _covered(children[s.span_id]) for s in spans}
