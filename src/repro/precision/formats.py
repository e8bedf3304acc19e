"""Floating-point precision formats used by the adaptive framework.

The paper (Section IV) considers the precision formats supported by Nvidia
V100/A100/H100 GPUs: FP64, FP32, TF32, FP16_32 (inputs in FP16, computation
and output in FP32), BF16_32 (inputs in BF16, computation and output in
FP32), and FP16 (everything in FP16).  The adaptive framework ultimately
incorporates FP64, FP32, FP16_32, and FP16 (BF16_32 is dropped because its
measured performance matches FP16_32 on the considered GPUs).

This module defines the :class:`Precision` lattice together with the
numerical metadata each format carries:

* ``unit_roundoff`` — the classical unit roundoff ``u`` of the arithmetic
  in which products are accumulated (2^-53 for FP64, 2^-24 for FP32, ...).
* ``rule_epsilon`` — the machine epsilon ``u_low`` plugged into the
  Higham–Mary tile-selection rule ``‖A_ij‖·NT/‖A‖ ≤ u_req/u_low``
  (Section V).  For the three-way input/compute formats (FP16_32,
  BF16_32) the paper determines this experimentally because the error
  bound lies between the input format's and the accumulator's; we use the
  geometric placement suggested by the block-FMA analysis of Blanchard
  et al. (2^-13 for FP16_32, 2^-11 for BF16_32).
* ``storage_bytes`` — bytes per element when a tile *in this communication
  precision* travels over a link (host↔device or network).  This is the
  quantity the automated conversion strategy (Section VI) minimises.
* ``input_bits`` / ``accum_bits`` — significand widths of the input and
  accumulation formats, used by the emulation layer.

The lattice is totally ordered — ``max`` is Algorithm 2's
``get_higher_precision`` (line 19/25): FP64 > FP32 > TF32 >
FP16_32 > BF16_32 > FP16.  The relative order of TF32/FP16_32/BF16_32 is
immaterial to the paper's framework (only FP64, FP32, FP16_32, FP16 are
adaptively mixed) but a total order keeps the conversion algorithm simple
and deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Precision",
    "FormatInfo",
    "FORMAT_INFO",
    "ADAPTIVE_FORMATS",
    "get_storage_precision",
    "bytes_per_element",
    "rule_epsilon",
]


class Precision(enum.IntEnum):
    """Floating-point formats, ordered from narrowest to widest.

    The integer value encodes the lattice rank, so ``max`` / ``min``
    return the wider / narrower of two formats and ``sorted`` orders
    them narrowest first.
    """

    FP16 = 0
    BF16_32 = 1
    FP16_32 = 2
    TF32 = 3
    FP32 = 4
    FP64 = 5

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class FormatInfo:
    """Numerical metadata for one :class:`Precision` format."""

    precision: Precision
    #: unit roundoff of the accumulation arithmetic
    unit_roundoff: float
    #: machine epsilon ``u_low`` used in the tile-selection rule
    rule_epsilon: float
    #: bytes per element on the wire / in storage for this format
    storage_bytes: int
    #: significand bits (incl. implicit bit) of the *input* format
    input_bits: int
    #: significand bits (incl. implicit bit) of the *accumulation* format
    accum_bits: int
    #: NumPy dtype that most closely matches the storage of a tile held
    #: at rest in this precision (FP16_32/TF32 tiles rest in FP32).
    rest_dtype: np.dtype


FORMAT_INFO: dict[Precision, FormatInfo] = {
    Precision.FP64: FormatInfo(
        Precision.FP64,
        unit_roundoff=2.0**-53,
        rule_epsilon=2.0**-53,
        storage_bytes=8,
        input_bits=53,
        accum_bits=53,
        rest_dtype=np.dtype(np.float64),
    ),
    Precision.FP32: FormatInfo(
        Precision.FP32,
        unit_roundoff=2.0**-24,
        rule_epsilon=2.0**-24,
        storage_bytes=4,
        input_bits=24,
        accum_bits=24,
        rest_dtype=np.dtype(np.float32),
    ),
    Precision.TF32: FormatInfo(
        Precision.TF32,
        unit_roundoff=2.0**-24,
        rule_epsilon=2.0**-11,
        storage_bytes=4,
        input_bits=11,
        accum_bits=24,
        rest_dtype=np.dtype(np.float32),
    ),
    Precision.FP16_32: FormatInfo(
        Precision.FP16_32,
        unit_roundoff=2.0**-24,
        rule_epsilon=2.0**-13,
        storage_bytes=2,
        input_bits=11,
        accum_bits=24,
        rest_dtype=np.dtype(np.float32),
    ),
    Precision.BF16_32: FormatInfo(
        Precision.BF16_32,
        unit_roundoff=2.0**-24,
        rule_epsilon=2.0**-11,
        storage_bytes=2,
        input_bits=8,
        accum_bits=24,
        rest_dtype=np.dtype(np.float32),
    ),
    Precision.FP16: FormatInfo(
        Precision.FP16,
        unit_roundoff=2.0**-11,
        rule_epsilon=2.0**-11,
        storage_bytes=2,
        input_bits=11,
        accum_bits=11,
        rest_dtype=np.dtype(np.float16),
    ),
}

#: The four formats incorporated into the adaptive framework (Section IV):
#: "we incorporate FP64, FP32, FP16_32, and FP16 into our
#: adaptive-precision framework".
ADAPTIVE_FORMATS: tuple[Precision, ...] = (
    Precision.FP64,
    Precision.FP32,
    Precision.FP16_32,
    Precision.FP16,
)


def get_storage_precision(kernel_precision: Precision) -> Precision:
    """Storage precision of a tile given its kernel precision (Fig. 2b).

    Nvidia GPUs only support FP16_32/FP16 in the GEMM kernel; TRSM must run
    in at least FP32.  Tiles whose kernels run in FP16_32 or FP16 are
    therefore *stored* in FP32 from the matrix generation phase onward
    (Section V).  FP64 tiles are stored in FP64; everything else rests in
    FP32.
    """
    if kernel_precision == Precision.FP64:
        return Precision.FP64
    return Precision.FP32


def bytes_per_element(precision: Precision) -> int:
    """Bytes per matrix element when communicated in ``precision``."""
    return FORMAT_INFO[precision].storage_bytes


def rule_epsilon(precision: Precision) -> float:
    """Machine epsilon ``u_low`` of ``precision`` for the selection rule."""
    return FORMAT_INFO[precision].rule_epsilon


def validate_adaptive_set(formats: Sequence[Precision]) -> tuple[Precision, ...]:
    """Validate a user-supplied set of formats for the adaptive framework.

    FP64 must be present (diagonal POTRF/SYRK always run in FP64,
    Algorithm 1) and duplicates are removed while preserving lattice
    order from widest to narrowest, which is the order in which the
    precision-map construction probes candidate formats.
    """
    uniq = sorted(set(formats), reverse=True)
    if not uniq or uniq[0] != Precision.FP64:
        raise ValueError("the adaptive format set must contain FP64 (diagonal tiles)")
    return tuple(uniq)
