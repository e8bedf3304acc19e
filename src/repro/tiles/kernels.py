"""Numeric tile kernels of Algorithm 1 with emulated precision.

The four kernels of the tile Cholesky factorization:

* ``potrf`` — Cholesky of a diagonal tile; always FP64 (the "D" prefix in
  Algorithm 1).
* ``trsm`` — triangular solve of a panel tile against the diagonal
  factor.  Nvidia GPUs expose no FP16 TRSM, so the kernel floor is FP32:
  tiles whose selected precision is FP16_32/FP16 run their TRSM in FP32
  (Section V).
* ``syrk`` — symmetric rank-k update of a diagonal tile; always FP64.
* ``gemm`` — the workhorse (>90 % of the flops); runs in any of the
  adaptive formats via the emulated mixed-precision GEMM.

Each kernel returns its tile at the width it computed in — float64 for
``potrf``, ``syrk`` and the FP64 ``trsm``/``gemm``, float32 below — which
is the dtype the tile rests in (Fig. 2b); reduced precision enters via
quantisation of inputs and emulated low-precision accumulation.  Every
operand is taken through :func:`repro.precision.emulate.as_input`, so a
panel payload passed as an :class:`~repro.precision.emulate.Operand` is
converted once per input format, not once per kernel that reads it, and
the inout tile of a chain of FP16 ``gemm`` updates at the first only.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from ..precision.emulate import Operand, as_input, quantize
from ..precision.formats import Precision
from ..precision.gemm import multiply_accumulate

__all__ = [
    "NotPositiveDefiniteError",
    "potrf",
    "trsm",
    "syrk",
    "gemm",
    "trsm_execution_precision",
]


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a diagonal tile fails the Cholesky factorization.

    In the MLE driver this is a *signal*, not a bug: the optimizer probes
    parameter vectors whose covariance matrix can be numerically singular,
    and the likelihood evaluation reports -inf for them.
    """


def trsm_execution_precision(precision: Precision) -> Precision:
    """Precision at which a TRSM for ``precision``-tiles actually runs.

    FP16-family tiles execute their TRSM in FP32 (hardware limitation,
    Section V); everything else runs natively.
    """
    return Precision.FP64 if precision == Precision.FP64 else Precision.FP32


def potrf(c_kk: np.ndarray) -> np.ndarray:
    """FP64 Cholesky of a diagonal tile: returns lower factor L_kk."""
    c_kk = np.asarray(c_kk, dtype=np.float64)
    try:
        return np.linalg.cholesky(c_kk)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


#: the LAPACK routine ``scipy.linalg.solve_triangular`` resolves to, per execution precision
_TRTRS = {Precision.FP64: lapack.dtrtrs, Precision.FP32: lapack.strtrs}


def trsm(
    l_kk: np.ndarray | Operand, c_mk: np.ndarray, precision: Precision = Precision.FP64
) -> np.ndarray:
    """Triangular solve ``C_mk ← C_mk · L_kk^{-T}``.

    Runs in FP64 or FP32 depending on :func:`trsm_execution_precision`.
    ``L X^T = C^T`` as ``scipy.linalg.solve_triangular`` poses it to
    LAPACK — finiteness checked, a row-major ``L`` handed over as its
    upper-triangular transpose — without that wrapper's per-call cost.
    """
    exec_prec = trsm_execution_precision(precision)
    lower = np.asarray_chkfinite(as_input(l_kk, exec_prec))
    ct = np.asarray_chkfinite(as_input(c_mk, exec_prec)).T
    if lower.flags.f_contiguous:
        xt, info = _TRTRS[exec_prec](lower, ct, lower=True)
    else:
        xt, info = _TRTRS[exec_prec](lower.T, ct, lower=False, trans=True)
    if info:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return xt.T


def syrk(
    c_mk: np.ndarray | Operand, c_mm: np.ndarray, precision: Precision = Precision.FP64
) -> np.ndarray:
    """Symmetric rank-k update ``C_mm ← C_mm − C_mk · C_mk^T`` (FP64).

    ``precision`` controls the quantisation of the incoming panel tile
    (its data may have travelled at reduced precision), while the update
    itself always accumulates in FP64 as in Algorithm 1.
    """
    a = quantize(c_mk, precision)
    out = a @ a.T
    np.subtract(c_mm, out, out=out)  # a float32 tile is widened by the subtraction
    sym = out + out.T
    sym *= 0.5
    return sym


def gemm(
    c_mk: np.ndarray | Operand,
    c_nk: np.ndarray | Operand,
    c_mn: np.ndarray,
    precision: Precision = Precision.FP64,
) -> np.ndarray:
    """Trailing update ``C_mn ← C_mn − C_mk · C_nk^T`` in ``precision``."""
    a, bt = as_input(c_mk, precision), as_input(c_nk, precision).T
    return multiply_accumulate(a, bt, c_mn, precision=precision, alpha=-1.0, beta=1.0)
