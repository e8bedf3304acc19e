"""Calibrated performance, power, and network models for the simulator.

This subpackage replaces the paper's physical testbeds (Summit V100s,
Guyot A100s, Haxane's H100) with analytical models anchored to the
numbers the paper itself publishes: Table I peaks, Table II transfer and
GEMM times, and the Fig. 1 sustained-GEMM curves.  The discrete-event
runtime (:mod:`repro.runtime`) prices every task and transfer through
these models and every run's energy through :func:`energy.joules` (the
paper's Fig. 10 observables; Fig. 9's occupancy is
:func:`repro.obs.analysis.utilization_timeline`).
"""

from .calibration import CalibrationReport, verify_table2
from .energy import joules
from .gpus import (
    A100,
    GPU_BY_NAME,
    GUYOT_NODE,
    H100,
    SUMMIT_NODE,
    V100,
    GPUSpec,
    NodeSpec,
)
from .kernels import (
    KernelKind,
    conversion_time,
    gemm_time,
    kernel_flops,
    kernel_flops_rect,
    kernel_time,
)
from .transfers import h2d_time, tile_bytes

__all__ = [
    "A100",
    "GPU_BY_NAME",
    "GUYOT_NODE",
    "H100",
    "SUMMIT_NODE",
    "V100",
    "CalibrationReport",
    "GPUSpec",
    "KernelKind",
    "NodeSpec",
    "conversion_time",
    "gemm_time",
    "h2d_time",
    "joules",
    "kernel_flops",
    "kernel_flops_rect",
    "kernel_time",
    "tile_bytes",
    "verify_table2",
]
