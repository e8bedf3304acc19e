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

All kernels return float64 arrays; reduced precision enters via
quantisation of inputs and emulated low-precision accumulation.  Every
operand is taken through :func:`repro.precision.emulate.as_input`, so a
panel payload passed as an :class:`~repro.precision.emulate.Operand` is
converted once per input format, not once per kernel that reads it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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
    if precision in (Precision.FP16, Precision.FP16_32, Precision.BF16_32, Precision.TF32):
        return Precision.FP32
    return precision


def potrf(c_kk: np.ndarray) -> np.ndarray:
    """FP64 Cholesky of a diagonal tile: returns lower factor L_kk."""
    c_kk = np.asarray(c_kk, dtype=np.float64)
    try:
        return np.linalg.cholesky(c_kk)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def trsm(
    l_kk: np.ndarray | Operand, c_mk: np.ndarray, precision: Precision = Precision.FP64
) -> np.ndarray:
    """Triangular solve ``C_mk ← C_mk · L_kk^{-T}``.

    Runs in FP64 or FP32 depending on :func:`trsm_execution_precision`.
    """
    exec_prec = trsm_execution_precision(precision)
    xt = scipy.linalg.solve_triangular(
        as_input(l_kk, exec_prec), as_input(c_mk, exec_prec).T, lower=True
    )
    return np.ascontiguousarray(xt.T).astype(np.float64, copy=False)


def syrk(
    c_mk: np.ndarray | Operand, c_mm: np.ndarray, precision: Precision = Precision.FP64
) -> np.ndarray:
    """Symmetric rank-k update ``C_mm ← C_mm − C_mk · C_mk^T`` (FP64).

    ``precision`` controls the quantisation of the incoming panel tile
    (its data may have travelled at reduced precision), while the update
    itself always accumulates in FP64 as in Algorithm 1.
    """
    a = quantize(c_mk, precision)
    c = np.asarray(c_mm, dtype=np.float64)
    out = c - a @ a.T
    return (out + out.T) * 0.5


def gemm(
    c_mk: np.ndarray | Operand,
    c_nk: np.ndarray | Operand,
    c_mn: np.ndarray,
    precision: Precision = Precision.FP64,
) -> np.ndarray:
    """Trailing update ``C_mn ← C_mn − C_mk · C_nk^T`` in ``precision``."""
    return multiply_accumulate(
        as_input(c_mk, precision),
        as_input(c_nk, precision).T,
        c_mn,
        precision=precision,
        alpha=-1.0,
        beta=1.0,
    )
