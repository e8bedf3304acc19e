"""Calibrated performance, power, and network models for the simulator.

This subpackage replaces the paper's physical testbeds (Summit V100s,
Guyot A100s, Haxane's H100) with analytical models anchored to the
numbers the paper itself publishes: Table I peaks, Table II transfer and
GEMM times, and the Fig. 1 sustained-GEMM curves.  The discrete-event
runtime (:mod:`repro.runtime`) prices every task and transfer through
these models, and the energy/occupancy modules post-process the resulting
timelines into the paper's Fig. 9/10 observables.
"""

from .calibration import CalibrationReport, verify_table2
from .energy import EnergyReport, PowerSample, energy_report, power_trace
from .gpus import (
    A100,
    GPU_BY_NAME,
    GUYOT_NODE,
    H100,
    HAXANE_NODE,
    SUMMIT,
    SUMMIT_NODE,
    V100,
    ClusterSpec,
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
from .occupancy import (
    OccupancySample,
    mean_occupancy,
    occupancy_trace,
)
from .transfers import h2d_time, tile_bytes

__all__ = [
    "A100",
    "GPU_BY_NAME",
    "GUYOT_NODE",
    "H100",
    "HAXANE_NODE",
    "SUMMIT",
    "SUMMIT_NODE",
    "V100",
    "CalibrationReport",
    "ClusterSpec",
    "EnergyReport",
    "GPUSpec",
    "KernelKind",
    "NodeSpec",
    "OccupancySample",
    "PowerSample",
    "conversion_time",
    "energy_report",
    "gemm_time",
    "h2d_time",
    "kernel_flops",
    "kernel_flops_rect",
    "kernel_time",
    "mean_occupancy",
    "occupancy_trace",
    "power_trace",
    "tile_bytes",
    "verify_table2",
]
