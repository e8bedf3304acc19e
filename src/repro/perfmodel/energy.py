"""Activity-based power and energy model (Section VII-E).

The paper samples board power with Nvidia tools while the factorization
runs and reports power-versus-time traces, total joules, and Gflops/Watt
(Fig. 10).  Our substitute integrates an activity-based model over the
simulated timeline: a GPU draws its idle power always, adds the
per-precision compute power while its compute engine is busy, and a small
adder while a copy engine is moving data.  Lower precision draws less
power per second *and* finishes sooner — the two effects that produce the
paper's energy savings.

The model consumes duck-typed trace events carrying ``t_start``,
``t_end``, ``engine`` (``"compute"`` or a link) and, for compute events,
``precision``.  It is the one timeline reader in this package: Fig. 9's
occupancy of the same timeline is
:func:`repro.obs.analysis.utilization_timeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..precision.formats import Precision
from .gpus import GPUSpec

__all__ = ["PowerSample", "EnergyReport", "power_trace", "energy_report"]


@dataclass(frozen=True)
class PowerSample:
    """One sampled point of the simulated power trace."""

    time: float
    watts: float


@dataclass
class EnergyReport:
    """Aggregated energy metrics for one run on one GPU."""

    gpu_name: str
    makespan: float
    total_joules: float
    total_flops: float
    samples: list[PowerSample] = field(default_factory=list)

    @property
    def gflops_per_watt(self) -> float:
        """Performance per watt: Gflop/s divided by average watts.

        Algebraically this reduces to ``total Gflop / total joules``.
        """
        if self.total_joules <= 0.0:
            return 0.0
        return (self.total_flops / 1e9) / self.total_joules

    @property
    def average_watts(self) -> float:
        if self.makespan <= 0.0:
            return 0.0
        return self.total_joules / self.makespan


def _event_power(gpu: GPUSpec, event) -> float:
    """Incremental power (above idle) drawn while ``event`` is active."""
    engine = getattr(event, "engine", "compute")
    if engine == "compute":
        precision = getattr(event, "precision", Precision.FP64)
        return gpu.compute_power(precision) - gpu.idle_power
    if engine in ("h2d", "d2h"):
        return gpu.tdp_watts * gpu.copy_power_fraction
    return 0.0


def power_trace(
    gpu: GPUSpec,
    events: Sequence,
    makespan: float,
    *,
    sample_dt: float | None = None,
    n_samples: int = 200,
) -> list[PowerSample]:
    """Sample the simulated board power at regular intervals (Fig. 10 dots).

    Power at time t = idle + Σ incremental power of events active at t,
    clamped at 1.1 × TDP (the paper notes samples occasionally exceed TDP
    due to short spikes; the clamp bounds pathological stacking).
    """
    if makespan <= 0.0:
        return []
    if sample_dt is None:
        sample_dt = makespan / n_samples
    times = np.arange(0.0, makespan + sample_dt * 0.5, sample_dt)
    watts = np.full(times.shape, gpu.idle_power)
    for ev in events:
        t0 = getattr(ev, "t_start")
        t1 = getattr(ev, "t_end")
        inc = _event_power(gpu, ev)
        if inc == 0.0:
            # zero increment is a no-op; negative increments are real
            # (a precision whose compute power sits below idle draws
            # *less* than an idle board) and must subtract, not vanish
            continue
        # half-open [t0, t1) so abutting events don't double-count at
        # their shared boundary — except at the makespan, where the
        # trace is closed so an event ending exactly there still shows
        # in the final sample(s)
        t1_eff = t1 if t1 < makespan else np.inf
        mask = (times >= t0) & (times < t1_eff)
        watts[mask] += inc
    np.clip(watts, 0.0, gpu.tdp_watts * 1.1, out=watts)
    return [PowerSample(float(t), float(w)) for t, w in zip(times, watts)]


def energy_report(
    gpu: GPUSpec,
    events: Iterable,
    makespan: float,
    *,
    total_flops: float | None = None,
    n_samples: int = 200,
) -> EnergyReport:
    """Integrate the power model into total joules and Gflops/Watt.

    Energy is integrated exactly from event durations (not from the
    sampled trace): ``E = idle·makespan + Σ_events inc_power·duration``.
    """
    events = list(events)
    joules = gpu.idle_power * makespan
    flops = 0.0
    for ev in events:
        duration = max(0.0, getattr(ev, "t_end") - getattr(ev, "t_start"))
        joules += _event_power(gpu, ev) * duration
        flops += float(getattr(ev, "flops", 0.0) or 0.0)
    if total_flops is not None:
        flops = total_flops
    report = EnergyReport(
        gpu_name=gpu.name,
        makespan=makespan,
        total_joules=joules,
        total_flops=flops,
        samples=power_trace(gpu, events, makespan, n_samples=n_samples),
    )
    return report
