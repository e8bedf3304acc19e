"""Activity-based energy model (Section VII-E).

The paper samples board power with Nvidia tools while the factorization
runs and reports total joules and Gflops/Watt (Fig. 10).  Our substitute
prices the simulated run with an activity-based law: a GPU draws its
idle power always, adds the per-precision compute power while its
compute engine is busy, and a small adder while a copy engine (h2d or
d2h) is moving data; disk and NIC traffic draw nothing on the GPU.
Lower precision draws less power per second *and* finishes sooner — the
two effects that produce the paper's energy savings.

The law is linear in busy seconds per (engine, precision), so the engine
counts those as it prices each task
(:attr:`repro.runtime.simulator.SimReport.compute_seconds` /
``copy_seconds``) and no trace is needed.  Power is not clipped at the
TDP: the paper's samples occasionally exceed it, and a clip would only
hide a calibration that puts a whole run above it.
"""

from __future__ import annotations

from typing import Mapping

from ..precision.formats import Precision
from .gpus import GPUSpec

__all__ = ["joules"]


def joules(
    gpu: GPUSpec,
    makespan: float,
    compute_seconds: Mapping[Precision, float],
    copy_seconds: float,
    *,
    n_gpus: int = 1,
) -> float:
    """Energy of ``n_gpus`` GPUs over ``makespan`` seconds.

    ``n_gpus·idle·makespan + Σ_p (P_p − idle)·t_p + copy_frac·TDP·t_copy``,
    with ``t_p`` the compute seconds spent in precision ``p`` and
    ``t_copy`` the copy-engine seconds, both summed over the GPUs.  A
    precision whose compute power sits below idle draws less than an
    idle board: its increment is negative and subtracts.
    """
    idle = gpu.idle_power
    total = n_gpus * idle * makespan
    for precision, seconds in compute_seconds.items():
        total += (gpu.compute_power(precision) - idle) * seconds
    return total + gpu.copy_power_fraction * gpu.tdp_watts * copy_seconds
