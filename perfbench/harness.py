"""Timing primitives shared by every workload: the span recorder of the
traced run and small statistics.  Imports nothing heavy: ``run.py``
uses it before any worker (and so NumPy) starts.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext

#: one BLAS thread per worker, set before NumPy is imported: 64²–128² tiles
#: oversubscribe two shared cores (ISSUE 11: 3.6 s per evaluation unpinned, 2.2 s pinned)
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def timed(fn):
    """``(result, wall seconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def median(values) -> float:
    return float(statistics.median(list(values)))


def quartiles(values) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them; a single
    sample is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(q[2])


class NullTracer:
    """Stands in for :class:`Tracer` in the untraced run: no spans."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """In-memory span list ``(name, t0, t1, parent, op_id)``.

    Spans are recorded from ``perfbench/`` around each call into a layer
    of the program; nothing under ``src/`` knows about them.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "t0": time.perf_counter(),
            "t1": None,
            "parent": self._stack[-1] if self._stack else None,
            "op_id": self.op_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, op_id: int) -> dict[str, float]:
        """Per-name self time (duration minus children) of one operation."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["t1"] - s["t0"]
        out: dict[str, float] = {}
        for idx, s in enumerate(self.spans):
            if s["op_id"] == op_id:
                out[s["name"]] = out.get(s["name"], 0.0) + (s["t1"] - s["t0"]) - child_time[idx]
        return out
