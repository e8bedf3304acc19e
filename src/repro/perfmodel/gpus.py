"""Hardware specifications of the evaluated GPUs and nodes.

Table I of the paper lists theoretical peak performance per precision for
the three Nvidia generations it evaluates (V100 NVLink on Summit, A100 SXM
on Guyot, H100 PCIe on Haxane).  This module encodes those peaks together
with the link bandwidths, memory sizes, and power envelopes the simulator
needs.  Where the paper does not state a number explicitly, the value is
taken from the vendor datasheet of the exact SKU named in Section VII-A
and marked accordingly.

Calibration anchors from the paper itself:

* Table II implies a 50 GB/s host↔device effective bandwidth on Summit's
  V100 (33.55 MB FP64 tile in 0.67 ms) and GEMM execution at the
  theoretical peak rate for 2048-sized tiles.
* Fig. 8c notes that the H100's *sustained* GEMM is "marginally lower"
  than peak (the Cholesky reaches 62 % of peak but >82 % of sustained).
* Section VII-E: FP64 on A100/H100 runs on tensor cores, so FP64 and FP32
  share a peak there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..precision.formats import Precision

__all__ = ["GPUSpec", "NodeSpec", "V100", "A100", "H100", "SUMMIT_NODE", "GUYOT_NODE", "GPU_BY_NAME"]

_TFLOP = 1e12


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one GPU model.

    ``peak_flops`` maps each precision format to the theoretical peak of
    the *execution unit the adaptive framework uses for it* (Table I):
    tensor cores where available, otherwise the vector pipeline.
    ``sustained_fraction`` scales peak down to the achievable large-tile
    GEMM rate (Fig. 1 bottom row), and ``half_perf_size`` is the tile edge
    at which a GEMM reaches half of that sustained rate — tensor-core
    formats need larger tiles to saturate.
    """

    name: str
    peak_flops: dict[Precision, float]
    sustained_fraction: dict[Precision, float]
    half_perf_size: dict[Precision, int]
    memory_bytes: float
    memory_bandwidth: float  # HBM, bytes/s
    host_link_bandwidth: float  # H2D/D2H per direction, bytes/s
    host_link_latency: float  # seconds per transfer
    tdp_watts: float
    idle_fraction: float = 0.12  # idle power as a fraction of TDP
    copy_power_fraction: float = 0.08  # adder while a copy engine is busy
    #: fraction of HBM bandwidth a datatype-conversion kernel achieves
    #: (strided narrow-word traffic + launch overheads keep it well below
    #: the streaming peak; Fig. 1 of the paper shows the conversion cost
    #: is a first-order effect)
    conversion_efficiency: float = 0.45
    #: fixed launch overhead of one conversion kernel (seconds)
    conversion_launch: float = 5e-6
    #: active compute power as a fraction of TDP, per precision
    compute_power_fraction: dict[Precision, float] = field(default_factory=dict)

    def peak(self, precision: Precision) -> float:
        """Theoretical peak flop/s for ``precision`` (Table I)."""
        return self.peak_flops[precision]

    def sustained_gemm_rate(self, precision: Precision, nb: int) -> float:
        """Achievable GEMM flop/s for an ``nb``-sized tile (Fig. 1d model).

        A saturating curve ``R(nb) = R_sus / (1 + (n_half/nb)^2)``-style
        law:  small tiles are launch/memory bound, large tiles approach the
        sustained fraction of peak.
        """
        r_sus = self.peak_flops[precision] * self.sustained_fraction[precision]
        n_half = self.half_perf_size[precision]
        x = nb / n_half
        return r_sus * x * x / (1.0 + x * x)

    def compute_power(self, precision: Precision) -> float:
        """Active board power (W) while running kernels in ``precision``."""
        frac = self.compute_power_fraction.get(precision, 0.9)
        return self.tdp_watts * frac

    @property
    def idle_power(self) -> float:
        return self.tdp_watts * self.idle_fraction


def _shared_fp64_tensor(peak64: float, peak_low: float, peak_tf32: float) -> dict[Precision, float]:
    """Peak table for A100/H100-style GPUs where FP64 uses tensor cores."""
    return {
        Precision.FP64: peak64,
        Precision.FP32: peak64,  # FP32 runs on regular cores; equals FP64-TC peak
        Precision.TF32: peak_tf32,
        Precision.FP16_32: peak_low,
        Precision.BF16_32: peak_low,
        Precision.FP16: peak_low,
    }


V100 = GPUSpec(
    name="V100",
    peak_flops={
        Precision.FP64: 7.8 * _TFLOP,
        Precision.FP32: 15.7 * _TFLOP,
        Precision.TF32: 15.7 * _TFLOP,  # no TF32 unit on Volta; falls back to FP32
        Precision.FP16_32: 125.0 * _TFLOP,
        Precision.BF16_32: 125.0 * _TFLOP,  # no BF16 on Volta; modeled as FP16 TC
        Precision.FP16: 125.0 * _TFLOP,
    },
    sustained_fraction={
        Precision.FP64: 0.97,
        Precision.FP32: 0.96,
        Precision.TF32: 0.96,
        Precision.FP16_32: 0.93,
        Precision.BF16_32: 0.93,
        Precision.FP16: 0.95,
    },
    half_perf_size={
        Precision.FP64: 192,
        Precision.FP32: 224,
        Precision.TF32: 224,
        Precision.FP16_32: 640,
        Precision.BF16_32: 640,
        Precision.FP16: 576,
    },
    memory_bytes=16e9,
    memory_bandwidth=900e9,
    host_link_bandwidth=50e9,  # NVLink2 CPU<->GPU on Summit (Table II anchor)
    host_link_latency=10e-6,
    tdp_watts=300.0,
    compute_power_fraction={
        Precision.FP64: 0.97,
        Precision.FP32: 0.90,
        Precision.TF32: 0.90,
        Precision.FP16_32: 0.84,
        Precision.BF16_32: 0.84,
        Precision.FP16: 0.78,
    },
)

A100 = GPUSpec(
    name="A100",
    peak_flops={
        **_shared_fp64_tensor(19.5 * _TFLOP, 312.0 * _TFLOP, 156.0 * _TFLOP),
    },
    sustained_fraction={
        Precision.FP64: 0.95,
        Precision.FP32: 0.95,
        Precision.TF32: 0.92,
        Precision.FP16_32: 0.90,
        Precision.BF16_32: 0.90,
        Precision.FP16: 0.92,
    },
    half_perf_size={
        Precision.FP64: 224,
        Precision.FP32: 224,
        Precision.TF32: 640,
        Precision.FP16_32: 768,
        Precision.BF16_32: 768,
        Precision.FP16: 704,
    },
    memory_bytes=80e9,
    memory_bandwidth=2039e9,
    host_link_bandwidth=25e9,  # PCIe gen4 host link on Guyot
    host_link_latency=10e-6,
    tdp_watts=400.0,
    compute_power_fraction={
        Precision.FP64: 0.95,
        Precision.FP32: 0.88,
        Precision.TF32: 0.85,
        Precision.FP16_32: 0.82,
        Precision.BF16_32: 0.82,
        Precision.FP16: 0.76,
    },
)

H100 = GPUSpec(
    name="H100",
    peak_flops={
        **_shared_fp64_tensor(51.2 * _TFLOP, 756.0 * _TFLOP, 378.0 * _TFLOP),
    },
    # Fig. 1d / Fig. 8c: practical GEMM on the PCIe H100 is noticeably
    # below peak (power-capped SKU); Cholesky reaches 62 % of peak yet
    # >82 % of the sustained rate.
    sustained_fraction={
        Precision.FP64: 0.75,
        Precision.FP32: 0.75,
        Precision.TF32: 0.72,
        Precision.FP16_32: 0.70,
        Precision.BF16_32: 0.70,
        Precision.FP16: 0.72,
    },
    half_perf_size={
        Precision.FP64: 256,
        Precision.FP32: 256,
        Precision.TF32: 704,
        Precision.FP16_32: 832,
        Precision.BF16_32: 832,
        Precision.FP16: 768,
    },
    memory_bytes=80e9,
    memory_bandwidth=2000e9,
    host_link_bandwidth=28e9,  # PCIe gen5 x16 effective on Haxane
    host_link_latency=10e-6,
    tdp_watts=350.0,
    compute_power_fraction={
        Precision.FP64: 0.85,
        Precision.FP32: 0.80,
        Precision.TF32: 0.78,
        Precision.FP16_32: 0.75,
        Precision.BF16_32: 0.75,
        Precision.FP16: 0.70,
    },
)

GPU_BY_NAME: dict[str, GPUSpec] = {"V100": V100, "A100": A100, "H100": H100}


@dataclass(frozen=True)
class NodeSpec:
    """One compute node: GPUs plus host memory and an injection NIC."""

    name: str
    gpu: GPUSpec
    gpus_per_node: int
    host_memory_bytes: float
    nic_bandwidth: float  # injection bandwidth per direction, bytes/s
    nic_latency: float  # per-message latency, seconds
    cpu_memory_bandwidth: float = 100e9  # host-side staging copies
    disk_bandwidth: float = 2e9  # NVMe spill tier, bytes/s per direction
    disk_latency: float = 100e-6  # per-transfer latency, seconds


SUMMIT_NODE = NodeSpec(
    name="summit-node",
    gpu=V100,
    gpus_per_node=6,
    host_memory_bytes=256e9,
    nic_bandwidth=25e9,  # dual-rail EDR InfiniBand
    nic_latency=1.5e-6,
)

GUYOT_NODE = NodeSpec(
    name="guyot",
    gpu=A100,
    gpus_per_node=8,
    host_memory_bytes=2063e9,
    nic_bandwidth=25e9,
    nic_latency=1.5e-6,
)
