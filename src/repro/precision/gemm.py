"""Emulated mixed-precision GEMM (Section IV's benchmark kernel).

``mixed_gemm`` computes ``C = alpha * A @ B + beta * C`` under one of the
six precision formats of the paper's GEMM study.  It is two steps:
*prepare* — each of ``A`` and ``B`` is taken through
:func:`~repro.precision.emulate.as_input` (rounded to the format's input
grid, narrowed to the dtype the product multiplies in) — and
*multiply-accumulate* (:func:`multiply_accumulate`) — the product is
accumulated at the format's accumulator width and combined with ``C``.
The tile kernels call the second step with operands whose prepared form
is shared between all the GEMMs reading one panel payload (the
convert-once rule, see :mod:`repro.precision.emulate`); ``mixed_gemm``
with raw arrays runs the very same code.  The result is returned in
float64 so callers can measure accuracy against the FP64 reference
(Fig. 1, top row).

Inside the kernel nothing is wider than the format: an FP32-class
product, its ``alpha``/``beta`` scaling and ``C`` stay float32, and the
pure-FP16 accumulator is a float32 array whose values sit on the fp16
grid.

For the pure-FP16 format, accumulation happens in half precision.  We
emulate the error growth of an fp16 accumulator by splitting the inner
dimension into chunks: within a chunk the product is formed exactly (this
matches tensor cores, which keep a wider intermediate inside the block
FMA), and the running sum is re-rounded to fp16 after every chunk.  The
chunk width (default 32) mirrors the effective block size after which
V100-era tensor cores round the accumulator.
"""

from __future__ import annotations

import numpy as np

from .emulate import Operand, as_input, quantize, round_to_fp16
from .formats import Precision

# ``quantize`` is not used here; it stays a name of this module because
# perfbench's kernel profile stopwatches it on every module of the
# numeric path
__all__ = ["mixed_gemm", "multiply_accumulate", "mixed_syrk", "gemm_relative_error", "quantize"]

_FP16_CHUNK = 32


def _scale_fp16(scalar: float, x: np.ndarray) -> np.ndarray:
    """NumPy's half multiply ``float16(scalar) * x`` for ``x`` on the fp16 grid.

    The product of two fp16 values is exact in float32, so one rounding
    of it is the half multiply bit for bit; by ±1 it is already on the
    grid and the rounding is skipped.
    """
    s = np.float32(np.float16(scalar))
    return s * x if abs(s) == 1.0 else round_to_fp16(s * x)


def multiply_accumulate(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    precision: Precision = Precision.FP64,
    alpha: float = 1.0,
    beta: float = 0.0,
    fp16_chunk: int = _FP16_CHUNK,
) -> np.ndarray:
    """``alpha * a @ b + beta * c`` for operands already in input form.

    ``a`` (m, k) and ``b`` (k, n) are what
    :func:`~repro.precision.emulate.as_input` returns for ``precision``;
    ``c`` (m, n) is read at whatever dtype it rests in.  Returns float64.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible GEMM shapes {a.shape} x {b.shape}")
    if precision == Precision.FP16:
        # the running sum is re-rounded to the fp16 grid after every
        # chunk of the inner dimension: half-precision accumulation
        # error growth and saturation (products of fp16-grid values are
        # exact in float32)
        prod = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
        for start in range(0, a.shape[1], fp16_chunk):
            stop = start + fp16_chunk
            prod += a[:, start:stop] @ b[start:stop, :]
            prod = round_to_fp16(prod)
    else:
        prod = a @ b

    if c is None:
        if beta != 0.0:
            raise ValueError("beta != 0 requires c")
        return alpha * prod.astype(np.float64, copy=False)
    if np.shape(c) != prod.shape:
        raise ValueError(f"c has shape {np.shape(c)}, expected {prod.shape}")
    if precision == Precision.FP16:
        out = round_to_fp16(_scale_fp16(alpha, prod) + _scale_fp16(beta, as_input(c, precision)))
    else:
        # at the accumulator's width: float64 for FP64, float32 for the rest
        width = prod.dtype.type
        out = width(alpha) * prod + width(beta) * np.asarray(c, dtype=width)
    return out.astype(np.float64, copy=False)


def mixed_gemm(
    a: np.ndarray | Operand,
    b: np.ndarray | Operand,
    c: np.ndarray | None = None,
    *,
    precision: Precision = Precision.FP64,
    alpha: float = 1.0,
    beta: float = 0.0,
    fp16_chunk: int = _FP16_CHUNK,
) -> np.ndarray:
    """Emulated ``alpha * a @ b + beta * c`` in the given precision format.

    Parameters mirror BLAS xGEMM.  ``a`` is (m, k), ``b`` is (k, n) and the
    optional ``c`` is (m, n).  The result is float64 carrying the rounding
    error of the emulated format.
    """
    return multiply_accumulate(
        as_input(a, precision),
        as_input(b, precision),
        c,
        precision=precision,
        alpha=alpha,
        beta=beta,
        fp16_chunk=fp16_chunk,
    )


def mixed_syrk(
    a: np.ndarray,
    c: np.ndarray,
    *,
    precision: Precision = Precision.FP64,
    alpha: float = -1.0,
    beta: float = 1.0,
) -> np.ndarray:
    """Emulated symmetric rank-k update ``alpha * a @ a.T + beta * c``.

    The diagonal SYRK of Algorithm 1 always runs in FP64, but the helper
    accepts any format for completeness and for the GEMM-equivalence
    property tests.
    """
    return mixed_gemm(a, np.asarray(a).T, c, precision=precision, alpha=alpha, beta=beta)


def gemm_relative_error(
    n: int,
    precision: Precision,
    *,
    rng: np.random.Generator | None = None,
    scale: float = 1.0,
) -> float:
    """Relative Frobenius error of an n×n emulated GEMM vs FP64 (Fig. 1).

    Random uniform inputs in [-scale, scale], matching the paper's
    "randomly initialized" benchmark data.
    """
    rng = rng or np.random.default_rng(0)
    a = rng.uniform(-scale, scale, size=(n, n))
    b = rng.uniform(-scale, scale, size=(n, n))
    ref = a @ b
    approx = mixed_gemm(a, b, precision=precision)
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(approx - ref)) / denom
