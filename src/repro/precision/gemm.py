"""Emulated mixed-precision GEMM (Section IV's benchmark kernel).

The program runs two forms of one product under one of the six precision
formats of the paper's GEMM study: the trailing update ``C − A @ B`` of
Algorithm 1 (the tile kernels' GEMM) and the plain product ``A @ B``
widened to float64 (:func:`mixed_gemm`, Fig. 1).  Both are two steps:
*prepare* — each of ``A`` and ``B`` is taken through
:func:`~repro.precision.emulate.as_input` (rounded to the format's input
grid, narrowed to the dtype the product multiplies in) — and
*multiply-accumulate* (:func:`multiply_accumulate`) — the product is
accumulated at the format's accumulator width and, in the update,
subtracted from ``C``.  The tile kernels call the second step with
operands whose prepared form is shared between all the GEMMs reading one
panel payload (the convert-once rule, see :mod:`repro.precision.emulate`);
``mixed_gemm`` with raw arrays runs the very same code and widens the
product to float64, so callers can measure accuracy against the FP64
reference (Fig. 1, top row).

Nothing is wider than the format, inside the kernel or on the way out
of it: an FP32-class product, ``C`` and the update stay float32, and the
pure-FP16 accumulator and update are float32 arrays whose values sit on
the fp16 grid (the update says so:
:class:`~repro.precision.emulate.OnFp16Grid`).

For the pure-FP16 format, accumulation happens in half precision.  We
emulate the error growth of an fp16 accumulator by splitting the inner
dimension into chunks.  Each fp16×fp16 product is exact in float32; the
products of one chunk are summed by a float32 matmul, which rounds each
of its adds to float32 (a wider intermediate, as tensor cores keep inside
the block FMA, but not an exact one); and the running sum is re-rounded
to fp16 after every chunk.  The chunk width (:data:`_FP16_CHUNK`, 32)
mirrors the effective block size after which V100-era tensor cores round
the accumulator.
"""

from __future__ import annotations

import numpy as np

from .emulate import OnFp16Grid, Operand, as_input, quantize, round_to_fp16
from .formats import Precision

# ``quantize`` is not used here; it stays a name of this module because
# perfbench's kernel profile stopwatches it on every module of the
# numeric path
__all__ = ["mixed_gemm", "multiply_accumulate", "gemm_relative_error", "quantize"]

_FP16_CHUNK = 32


def multiply_accumulate(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    precision: Precision = Precision.FP64,
) -> np.ndarray:
    """``c − a @ b``, or ``a @ b`` without ``c``, for operands already in input form.

    ``a`` (m, k) and ``b`` (k, n) are what
    :func:`~repro.precision.emulate.as_input` returns for ``precision``;
    ``c`` (m, n) is read at whatever dtype it rests in.  All three may
    carry one leading stack axis, ``(s, m, k)`` and so on: a stack is
    updated tile by tile with the bits each tile gets on its own, and one
    tile is a stack of none.  The update of a ``c`` is returned at the
    accumulator's width, float64 for FP64 and float32 for the rest;
    without one the product has left the accumulator, and is returned in
    float64.
    """
    if not 2 <= a.ndim <= 3 or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"incompatible GEMM shapes {a.shape} x {b.shape}")
    if c is not None and np.shape(c) != a.shape[:-1] + b.shape[-1:]:
        raise ValueError(f"c has shape {np.shape(c)}, expected {a.shape[:-1] + b.shape[-1:]}")
    fp16 = precision == Precision.FP16
    # invalid, fp16-grid inputs only: a payload saturated to ±inf (inf·0, or a
    # sum meeting an infinity of the other sign) is a NaN the factorization
    # reports at its next POTRF, not a warning
    with np.errstate(invalid="ignore" if precision in (Precision.FP16, Precision.FP16_32) else None):
        if fp16:
            # the running sum is re-rounded to the fp16 grid after every
            # chunk of the inner dimension: half-precision accumulation
            # error growth and saturation (products of fp16-grid values are
            # exact in float32).  It starts from +0: a product of zeros is +0
            chunk = _FP16_CHUNK
            prod = a[..., :chunk] @ b[..., :chunk, :]
            prod += 0.0
            for start in range(chunk, a.shape[-1], chunk):
                prod = round_to_fp16(prod)
                prod += a[..., start : start + chunk] @ b[..., start : start + chunk, :]
            prod = round_to_fp16(prod)
        else:
            prod = a @ b
        if c is None:
            return prod.astype(np.float64, copy=False)
        # the update at the accumulator's width; FP16 rounds the float32
        # difference back to the fp16 grid
        c = as_input(c, precision) if fp16 else np.asarray(c, dtype=prod.dtype)
        out = np.subtract(c, prod, out=prod)
        return round_to_fp16(out).view(OnFp16Grid) if fp16 else out


def mixed_gemm(
    a: np.ndarray | Operand,
    b: np.ndarray | Operand,
    *,
    precision: Precision = Precision.FP64,
) -> np.ndarray:
    """Emulated ``a @ b`` in the given precision format.

    ``a`` is (m, k) and ``b`` is (k, n).  The result is float64 carrying
    the rounding error of the emulated format.
    """
    return multiply_accumulate(as_input(a, precision), as_input(b, precision), precision=precision)


def gemm_relative_error(
    n: int,
    precision: Precision,
    *,
    rng: np.random.Generator | None = None,
) -> float:
    """Relative Frobenius error of an n×n emulated GEMM vs FP64 (Fig. 1).

    Random uniform inputs in [-1, 1], matching the paper's "randomly
    initialized" benchmark data.
    """
    rng = rng or np.random.default_rng(0)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    b = rng.uniform(-1.0, 1.0, size=(n, n))
    ref = a @ b
    approx = mixed_gemm(a, b, precision=precision)
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(approx - ref)) / denom
