"""In-memory span recorder and the small statistics the benchmark reports.

Spans are recorded from the benchmark's own files, around calls into the
layers' public functions; nothing under ``src/`` is instrumented (that is
ROADMAP item 1).  A span carries its name, start, end, the op it belongs
to and the span that caused it, so a layer's self time can be derived.
"""

from __future__ import annotations

import gc
import pickle
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

__all__ = ["Span", "Tracer", "host_probe", "median", "summary"]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    op: int
    parent: Optional[int]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one traced pass; written out when it ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._op = -1
        self._open: List[int] = []

    def begin_op(self, op: int) -> None:
        self._op = op

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span (for loops that time steps themselves)."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, start, end, self._op, parent))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._op, parent))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, self._op, parent)

    def per_op(self) -> Dict[int, Dict[str, float]]:
        """Self time per span name, per op.

        A span's self time is its duration minus the part its child
        spans cover, so nested spans never count an interval twice.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        totals: Dict[int, Dict[str, float]] = {}
        for span, children in zip(self.spans, covered):
            names = totals.setdefault(span.op, {})
            names[span.name] = names.get(span.name, 0.0) + span.seconds - children
        return totals


def host_probe() -> float:
    """Seconds this host takes, right now, for a fixed piece of work.

    The work is a little of what the workloads do -- interpreter
    arithmetic, small-object allocation, dict lookups, a sort, a pickle
    round trip, big-integer exponentiation -- and nothing of the program
    under test.  The collector is off while it runs, so the size of the
    caller's heap does not enter.  ``perf/README.md`` says what the
    reading is used for.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        # Small rounds, so the probe adds next to nothing to the peak RSS
        # of the process it runs in.
        for _ in range(5):
            rows = [(i, i ^ 5, str(i)) for i in range(8_000)]
            index = {row[0]: row for row in rows}
            for i in range(0, 8_000, 3):
                total += index[i][1]
            rows.sort(key=lambda row: row[1])
            pickle.loads(pickle.dumps(rows, pickle.HIGHEST_PROTOCOL))
        for _ in range(3):
            total += pow(0xC0FFEE, (1 << 1024) - 159, (1 << 1279) - 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median with the sample count, min and max printed beside it."""
    return {
        "p50": median(values),
        "n": len(values),
        "min": float(min(values)),
        "max": float(max(values)),
    }
