"""Critical-path and occupancy analysis of a simulated schedule.

The simulator's list schedule has the property that every busy interval
starts either at t=0 or exactly when its binding constraint — a
predecessor kernel, an inbound transfer, or the engine's previous event
— ends.  The critical path is therefore recoverable from the event
stream alone: walk backwards from the event that ends at the makespan,
at each step jumping to the latest-ending event that finishes at (or
before) the current event's start.  The resulting chain spans the whole
run — its length equals the makespan within float tolerance — and its
per-engine/per-kind composition says *what* the run was bound by
(compute vs copies vs NIC), which is the queryable form of the paper's
Figs. 8–9 occupancy arguments.

Also here: per-(rank, engine) slack over the makespan and windowed
utilization timelines (busy fraction per engine per time window) — the
Fig. 9 occupancy and the numeric backing for "occupancy moves as
precision drops" claims.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "CriticalPathResult",
    "critical_path",
    "engine_slack",
    "utilization_timeline",
]


@dataclass
class CriticalPathResult:
    """The longest end-time chain through a trace."""

    #: chain events in chronological order (empty for an empty trace)
    events: list = field(default_factory=list)
    makespan: float = 0.0
    #: time spanned by the chain: last t_end − first t_start
    length: float = 0.0
    #: idle time encountered along the walk (0 for simulator schedules)
    gap_seconds: float = 0.0
    time_by_engine: dict[str, float] = field(default_factory=dict)
    time_by_kind: dict[str, float] = field(default_factory=dict)

    @property
    def n_events(self) -> int:
        return len(self.events)

    def to_dict(self) -> dict:
        return {
            "n_events": self.n_events,
            "makespan_seconds": self.makespan,
            "length_seconds": self.length,
            "gap_seconds": self.gap_seconds,
            "time_by_engine": dict(sorted(self.time_by_engine.items())),
            "time_by_kind": dict(sorted(self.time_by_kind.items())),
            "events": [
                {
                    "rank": ev.rank,
                    "engine": ev.engine,
                    "kind": ev.kind,
                    "t_start": ev.t_start,
                    "t_end": ev.t_end,
                }
                for ev in self.events
            ],
        }


def critical_path(events: Sequence) -> CriticalPathResult:
    """Recover the critical path from a trace's busy intervals.

    A tolerance of ``1e-9 × max(makespan, 1)`` absorbs float association
    noise when matching an event's start against candidate predecessors'
    ends.  Zero-duration events are legal chain
    members (each event is visited at most once, so the walk always
    terminates).
    """
    evs = list(events)
    if not evs:
        return CriticalPathResult()
    makespan = max(e.t_end for e in evs)
    tol = 1e-9 * max(makespan, 1.0)

    order = sorted(range(len(evs)), key=lambda i: evs[i].t_end)
    ends = [evs[i].t_end for i in order]
    visited: set[int] = set()

    cur = max(range(len(evs)), key=lambda i: (evs[i].t_end, -evs[i].t_start))
    chain = [cur]
    visited.add(cur)
    gaps = 0.0
    while evs[cur].t_start > tol:
        target = evs[cur].t_start
        # latest-ending unvisited event finishing at/before the current start
        pos = bisect.bisect_right(ends, target + tol) - 1
        best = None
        while pos >= 0:
            idx = order[pos]
            if idx not in visited:
                best = idx
                break
            pos -= 1
        if best is None:
            gaps += target  # nothing earlier: leading idle gap
            break
        gap = target - evs[best].t_end
        if gap > tol:
            gaps += gap
        chain.append(best)
        visited.add(best)
        cur = best

    chain.reverse()
    chain_events = [evs[i] for i in chain]
    by_engine: dict[str, float] = {}
    by_kind: dict[str, float] = {}
    for ev in chain_events:
        dur = max(0.0, ev.t_end - ev.t_start)
        by_engine[ev.engine] = by_engine.get(ev.engine, 0.0) + dur
        by_kind[ev.kind] = by_kind.get(ev.kind, 0.0) + dur
    return CriticalPathResult(
        events=chain_events,
        makespan=makespan,
        length=chain_events[-1].t_end - chain_events[0].t_start,
        gap_seconds=gaps,
        time_by_engine=by_engine,
        time_by_kind=by_kind,
    )


def engine_slack(events: Sequence, makespan: float | None = None) -> dict[tuple[int, str], float]:
    """Idle seconds per (rank, engine) over the makespan."""
    evs = list(events)
    if not evs:
        return {}
    if makespan is None:
        makespan = max(e.t_end for e in evs)
    busy: dict[tuple[int, str], float] = {}
    for ev in evs:
        key = (ev.rank, ev.engine)
        busy[key] = busy.get(key, 0.0) + max(0.0, ev.t_end - ev.t_start)
    return {key: max(0.0, makespan - b) for key, b in sorted(busy.items())}


def _merged_intervals(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The union of busy intervals, as disjoint intervals sorted by start."""
    merged: list[tuple[float, float]] = []
    for t0, t1 in sorted(spans):
        if merged and t0 <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], t1))
        else:
            merged.append((t0, t1))
    return merged


def _window_fractions(merged: list[tuple[float, float]], edges: list[float]) -> list[float]:
    """Busy fraction ``min(1, busy / width)`` of each window between ``edges``."""
    fractions: list[float] = []
    idx = 0
    for w0, w1 in zip(edges[:-1], edges[1:]):
        busy = 0.0
        # advance past intervals that end before this window
        while idx < len(merged) and merged[idx][1] <= w0:
            idx += 1
        j = idx
        while j < len(merged) and merged[j][0] < w1:
            busy += max(0.0, min(merged[j][1], w1) - max(merged[j][0], w0))
            j += 1
        fractions.append(min(1.0, busy / (w1 - w0)))
    return fractions


def utilization_timeline(
    events: Sequence,
    *,
    makespan: float | None = None,
    n_buckets: int = 20,
) -> dict[str, list[float]]:
    """Busy fraction per engine in each of ``n_buckets`` equal windows of
    [0, makespan]: the one windowed occupancy reader.  Fig. 9's GPU
    occupancy is its ``compute`` row for rank 0's events; ``repro
    analyze`` prints every engine.

    Busy intervals are merged per (rank, engine), so overlapping events
    count once; each rank's window reads ``min(1, busy / width)``, and
    an engine's row is the mean over the ranks that have that engine,
    so a fully-busy engine reads 1.0 at any rank count.
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be positive, got {n_buckets}")
    evs = list(events)
    if not evs:
        return {}
    if makespan is None:
        makespan = max(e.t_end for e in evs)
    if makespan <= 0.0:
        return {}
    spans: dict[str, dict[int, list[tuple[float, float]]]] = {}
    for ev in evs:
        rank_spans = spans.setdefault(ev.engine, {}).setdefault(ev.rank, [])
        if ev.t_end > ev.t_start:
            rank_spans.append((float(ev.t_start), float(ev.t_end)))
    edges = np.linspace(0.0, makespan, n_buckets + 1).tolist()
    timeline: dict[str, list[float]] = {}
    for engine, by_rank in sorted(spans.items()):
        per_rank = [_window_fractions(_merged_intervals(rank_spans), edges)
                    for _rank, rank_spans in sorted(by_rank.items())]
        timeline[engine] = [sum(window) / len(per_rank) for window in zip(*per_rank)]
    return timeline
