"""The trace-walking energy integrator: the test tree's oracle for the energy law.

This is the joule integral of the ``energy_report`` that used to be
``repro/perfmodel/energy.py``: it walks one GPU's trace events and integrates
``E = idle·makespan + Σ_events inc_power·duration``, with a compute
event drawing its precision's power above idle, an h2d / d2h event the
copy adder, and any other link nothing.  The engine's closed form
(:func:`repro.perfmodel.energy.joules` over the busy-second counters of
:class:`repro.runtime.simulator.SimReport`) is tested equal to it
(``tests/test_energy_identity.py``).
"""

from __future__ import annotations

from typing import Iterable

from repro.perfmodel.gpus import GPUSpec
from repro.precision import Precision


def _event_power(gpu: GPUSpec, event) -> float:
    """Incremental power (above idle) drawn while ``event`` is active."""
    engine = getattr(event, "engine", "compute")
    if engine == "compute":
        precision = getattr(event, "precision", Precision.FP64)
        return gpu.compute_power(precision) - gpu.idle_power
    if engine in ("h2d", "d2h"):
        return gpu.tdp_watts * gpu.copy_power_fraction
    return 0.0


def energy_report(gpu: GPUSpec, events: Iterable, makespan: float) -> float:
    """Joules of one GPU whose engines ran ``events`` over ``makespan``."""
    joules = gpu.idle_power * makespan
    for ev in events:
        duration = max(0.0, ev.t_end - ev.t_start)
        joules += _event_power(gpu, ev) * duration
    return joules


def run_joules(report, gpu: GPUSpec, n_ranks: int) -> float:
    """Joules of every rank of a recorded run, summed over ranks."""
    return sum(energy_report(gpu, report.trace.events_of_rank(rank), report.makespan)
               for rank in range(n_ranks))
