"""Execution-time model for the tile kernels of Algorithm 1.

Times are derived from flop counts and the per-GPU sustained GEMM rate
(:meth:`GPUSpec.sustained_gemm_rate`).  Non-GEMM kernels achieve a
kernel-specific fraction of that rate: POTRF is a small, partially
sequential panel kernel; TRSM and SYRK are closer to GEMM-shaped.

The model also prices datatype conversions (Section VI): converting a
tile between precisions on the GPU is a bandwidth-bound pass reading the
source and writing the destination encoding through HBM.
"""

from __future__ import annotations


from ..precision.formats import Precision, bytes_per_element
from .gpus import GPUSpec

__all__ = [
    "KernelKind",
    "kernel_flops",
    "kernel_flops_rect",
    "kernel_time",
    "gemm_time",
    "conversion_time",
]


class KernelKind:
    """String constants for the four Cholesky kernels."""

    POTRF = "POTRF"
    TRSM = "TRSM"
    SYRK = "SYRK"
    GEMM = "GEMM"

    ALL = (POTRF, TRSM, SYRK, GEMM)


#: fraction of the sustained GEMM rate each kernel achieves
_KERNEL_EFFICIENCY = {
    KernelKind.POTRF: 0.30,
    KernelKind.TRSM: 0.60,
    KernelKind.SYRK: 0.90,
    KernelKind.GEMM: 1.00,
}


def kernel_flops(kind: str, nb: int) -> float:
    """Flop count of one tile kernel on an ``nb`` × ``nb`` tile.

    Standard tile-algorithm counts: POTRF nb³/3, TRSM nb³, SYRK nb³
    (nb²·(nb+1) ≈ nb³), GEMM 2·nb³.
    """
    n3 = float(nb) ** 3
    if kind == KernelKind.POTRF:
        return n3 / 3.0
    if kind == KernelKind.TRSM:
        return n3
    if kind == KernelKind.SYRK:
        return n3 + float(nb) ** 2
    if kind == KernelKind.GEMM:
        return 2.0 * n3
    raise ValueError(f"unknown kernel kind {kind!r}")


def kernel_flops_rect(kind: str, *dims: int) -> float:
    """Flop count of one tile kernel on a rectangular tile.

    When ``nb ∤ n`` the last tile row/column is ragged, so TRSM, SYRK,
    and GEMM operate on rectangular blocks; cubing a single edge (what
    :func:`kernel_flops` does) misprices them.  Per-dimension counts:

    * ``POTRF(n)``       → n³/3
    * ``TRSM(m, k)``     → m·k²  (m×k block solved against the k×k triangle)
    * ``SYRK(m, k)``     → m²·k + m²  (m×m update from an m×k panel)
    * ``GEMM(m, n, k)``  → 2·m·n·k

    Each reduces exactly to ``kernel_flops(kind, nb)`` when every
    dimension equals ``nb``, so square-tile pricing is unchanged.
    """
    if kind == KernelKind.POTRF:
        (n,) = dims
        return float(n) ** 3 / 3.0
    if kind == KernelKind.TRSM:
        m, k = dims
        return float(m) * float(k) ** 2
    if kind == KernelKind.SYRK:
        m, k = dims
        return float(m) ** 2 * float(k) + float(m) ** 2
    if kind == KernelKind.GEMM:
        m, n, k = dims
        return 2.0 * float(m) * float(n) * float(k)
    raise ValueError(f"unknown kernel kind {kind!r}")


def kernel_time(gpu: GPUSpec, kind: str, nb: int, precision: Precision) -> float:
    """Seconds to execute one tile kernel on ``gpu`` in ``precision``."""
    rate = gpu.sustained_gemm_rate(precision, nb) * _KERNEL_EFFICIENCY[kind]
    return kernel_flops(kind, nb) / rate


def gemm_time(gpu: GPUSpec, n: int, precision: Precision) -> float:
    """Seconds for a square n×n×n GEMM — the Section IV benchmark."""
    return kernel_time(gpu, KernelKind.GEMM, n, precision)


def conversion_time(gpu: GPUSpec, elements: int, src: Precision, dst: Precision) -> float:
    """Seconds to convert ``elements`` values between precisions on-device.

    Bandwidth-bound: read the source encoding, write the destination
    encoding, both through HBM.  A no-op when the formats share an
    encoding (e.g. FP32 → TF32 inputs are re-read natively by the tensor
    core and cost nothing extra here; that cost lives inside the GEMM
    sustained rate).
    """
    if src == dst:
        return 0.0
    nbytes = elements * (bytes_per_element(src) + bytes_per_element(dst))
    return gpu.conversion_launch + nbytes / (
        gpu.memory_bandwidth * gpu.conversion_efficiency
    )
