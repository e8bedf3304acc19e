"""GPU occupancy computation from simulated timelines (Fig. 9).

The paper measures "actual time occupancy" of the H100 at regular
intervals with Nvidia tools: the fraction of each sampling window during
which the GPU's compute engine was busy.  100 % means all data transfers
were fully overlapped with computation; dips indicate the GPU starving on
data motion — exactly the pathology the automated conversion strategy
attacks.

Consumes the same duck-typed trace events as :mod:`.energy` (attributes
``t_start``, ``t_end``, ``engine``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["OccupancySample", "occupancy_trace", "mean_occupancy"]


@dataclass(frozen=True)
class OccupancySample:
    """Occupancy over one sampling window ``[time, time + window)``."""

    time: float
    occupancy: float  # in [0, 1]


def _busy_intervals(events: Sequence, engine: str) -> list[tuple[float, float]]:
    """Merged busy intervals of one engine, sorted by start time."""
    spans = sorted(
        (float(ev.t_start), float(ev.t_end))
        for ev in events
        if getattr(ev, "engine", None) == engine and ev.t_end > ev.t_start
    )
    merged: list[tuple[float, float]] = []
    for t0, t1 in spans:
        if merged and t0 <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], t1))
        else:
            merged.append((t0, t1))
    return merged


def occupancy_trace(
    events: Sequence,
    makespan: float,
    *,
    engine: str = "compute",
    n_windows: int = 100,
) -> list[OccupancySample]:
    """Windowed occupancy samples over the run (Fig. 9 data points)."""
    if makespan <= 0.0:
        return []
    merged = _busy_intervals(events, engine)
    edges = np.linspace(0.0, makespan, n_windows + 1)
    samples: list[OccupancySample] = []
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
        samples.append(OccupancySample(float(w0), min(1.0, busy / (w1 - w0))))
    return samples


def mean_occupancy(samples: Sequence[OccupancySample]) -> float:
    """Mean of windowed occupancy samples."""
    if not samples:
        return 0.0
    return float(np.mean([s.occupancy for s in samples]))
