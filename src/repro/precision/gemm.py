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
with raw arrays runs the very same code and widens the result to
float64, so callers can measure accuracy against the FP64 reference
(Fig. 1, top row).

Nothing is wider than the format, inside the kernel or on the way out
of it: an FP32-class product, its ``alpha``/``beta`` scaling, ``C`` and
the result stay float32, and the pure-FP16 accumulator and result are
float32 arrays whose values sit on the fp16 grid (the result says so:
:class:`~repro.precision.emulate.OnFp16Grid`).

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

from .emulate import OnFp16Grid, Operand, as_input, quantize, round_to_fp16
from .formats import Precision

# ``quantize`` is not used here; it stays a name of this module because
# perfbench's kernel profile stopwatches it on every module of the
# numeric path
__all__ = ["mixed_gemm", "multiply_accumulate", "mixed_syrk", "gemm_relative_error", "quantize"]

_FP16_CHUNK = 32


def _scaled(scalar: float, x: np.ndarray, fp16: bool, out: np.ndarray | None = None) -> np.ndarray:
    """``scalar * x`` at ``x``'s width, into ``out`` if given; by 1 it is ``x`` itself.

    For the pure-FP16 format (``x`` on the fp16 grid) it is NumPy's half
    multiply ``float16(scalar) * x``: the product of two fp16 values is
    exact in float32, so one rounding of it is the half multiply bit for
    bit, and by −1 it is already on the grid and the rounding is skipped.
    """
    scalar = np.float32(np.float16(scalar)) if fp16 else x.dtype.type(scalar)
    if scalar == 1.0:
        return x
    y = np.multiply(x, scalar, out=out)
    return round_to_fp16(y) if fp16 and scalar != -1.0 else y


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
    ``c`` (m, n) is read at whatever dtype it rests in.  The update of a
    ``c`` is returned at the accumulator's width, float64 for FP64 and
    float32 for the rest; without one the product has left the
    accumulator, and is scaled and returned in float64.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible GEMM shapes {a.shape} x {b.shape}")
    if c is None and beta != 0.0:
        raise ValueError("beta != 0 requires c")
    if c is not None and np.shape(c) != (a.shape[0], b.shape[1]):
        raise ValueError(f"c has shape {np.shape(c)}, expected {(a.shape[0], b.shape[1])}")
    fp16 = precision == Precision.FP16
    # invalid, FP16 only: a saturated half sum meeting an infinity of the other sign
    # is a NaN the factorization reports at its next POTRF, not a warning
    with np.errstate(invalid="ignore" if fp16 else None):
        if fp16:
            # the running sum is re-rounded to the fp16 grid after every
            # chunk of the inner dimension: half-precision accumulation
            # error growth and saturation (products of fp16-grid values are
            # exact in float32).  It starts from +0: a product of zeros is +0
            prod = a[:, :fp16_chunk] @ b[:fp16_chunk, :]
            prod += 0.0
            for start in range(fp16_chunk, a.shape[1], fp16_chunk):
                prod = round_to_fp16(prod)
                prod += a[:, start : start + fp16_chunk] @ b[start : start + fp16_chunk, :]
            prod = round_to_fp16(prod)
        else:
            prod = a @ b
        if c is None:
            return alpha * prod.astype(np.float64, copy=False)
        c = as_input(c, precision) if fp16 else np.asarray(c, dtype=prod.dtype)
        out = _scaled(alpha, prod, fp16, out=prod)
        out += _scaled(beta, c, fp16)
        return round_to_fp16(out).view(OnFp16Grid) if fp16 else out


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
    out = multiply_accumulate(
        as_input(a, precision),
        as_input(b, precision),
        c,
        precision=precision,
        alpha=alpha,
        beta=beta,
        fp16_chunk=fp16_chunk,
    )
    return np.asarray(out, dtype=np.float64)


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
