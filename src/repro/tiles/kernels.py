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

from collections.abc import Sequence

import numpy as np

from ..precision.emulate import OnFp16Grid, Operand, as_input, quantize, round_to_fp16
from ..precision.formats import Precision
from ..precision.gemm import multiply_accumulate

__all__ = [
    "FP16_STACK_BYTES",
    "Fp16Stacks",
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


#: the LAPACK routine ``scipy.linalg.solve_triangular`` resolves to, per execution
#: precision; filled by the first :func:`trsm`, so a process that runs none never loads SciPy
_TRTRS: dict = {}


def _finite_input(x: np.ndarray | Operand, precision: Precision) -> np.ndarray:
    """``as_input(x, precision)``, or NumPy's "infs or NaNs" ValueError.

    An :class:`~repro.precision.emulate.Operand`'s form is checked by its
    first reader only; one found non-finite is checked, and refused,
    again by every later reader.
    """
    form = as_input(x, precision)
    if not isinstance(x, Operand):
        return np.asarray_chkfinite(form)
    if precision not in x.finite:
        form = np.asarray_chkfinite(form)
        x.finite.add(precision)
    return form


def trsm(
    l_kk: np.ndarray | Operand, c_mk: np.ndarray, precision: Precision = Precision.FP64
) -> np.ndarray:
    """Triangular solve ``C_mk ← C_mk · L_kk^{-T}``.

    Runs in FP64 or FP32 depending on :func:`trsm_execution_precision`.
    ``L X^T = C^T`` as ``scipy.linalg.solve_triangular`` poses it to
    LAPACK — finiteness checked (an ``Operand``'s form by its first
    reader), a row-major ``L`` handed over as its upper-triangular
    transpose — without that wrapper's per-call cost.
    """
    if not _TRTRS:
        from scipy.linalg import lapack

        _TRTRS.update({Precision.FP64: lapack.dtrtrs, Precision.FP32: lapack.strtrs})
    exec_prec = trsm_execution_precision(precision)
    lower = _finite_input(l_kk, exec_prec)
    ct = _finite_input(c_mk, exec_prec).T
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
    if precision in (Precision.FP16, Precision.FP16_32):
        # a panel saturated to ±inf on the fp16 grid (inf − inf): a NaN the
        # next POTRF reports, not a warning
        with np.errstate(invalid="ignore"):
            out = a @ a.T
    else:
        out = a @ a.T
    np.subtract(c_mm, out, out=out)  # a float32 tile is widened by the subtraction
    sym = out + out.T
    sym *= 0.5
    return sym


def gemm(
    c_mk: np.ndarray | Operand | Sequence[np.ndarray | Operand],
    c_nk: np.ndarray | Operand | Sequence[np.ndarray | Operand],
    c_mn: np.ndarray | Sequence[np.ndarray],
    precision: Precision = Precision.FP64,
) -> np.ndarray:
    """Trailing update ``C_mn ← C_mn − C_mk · C_nk^T`` in ``precision``.

    On one tile, or on a stack: ``c_mn`` a sequence of equal-shape tiles
    and ``c_mk``/``c_nk`` the sequences of their operands, updated in one
    :func:`~repro.precision.gemm.multiply_accumulate` call and returned as
    one array with a leading stack axis.  Each tile of a stack gets the
    bits it gets on its own; a ``C`` that arrives as an
    :class:`~repro.precision.emulate.OnFp16Grid` is not rounded again.
    """
    if isinstance(c_mn, np.ndarray):
        a, bt = as_input(c_mk, precision), as_input(c_nk, precision).T
        return multiply_accumulate(a, bt, c_mn, precision=precision)
    a = np.array([as_input(x, precision) for x in c_mk])
    bt = np.array([as_input(x, precision) for x in c_nk]).transpose(0, 2, 1)
    c = np.array(c_mn)
    if precision == Precision.FP16:
        # C's input form, made here for the whole stack in one rounding
        rough = [i for i, tile in enumerate(c_mn) if not isinstance(tile, OnFp16Grid)]
        if len(rough) == len(c):
            c = round_to_fp16(c)
        elif rough:
            c[rough] = round_to_fp16(c[rough])
        c = c.astype(np.float32, copy=False).view(OnFp16Grid)
    return multiply_accumulate(a, bt, c, precision=precision)


#: float32 bytes of ``C`` per stacked pure-FP16 update: 16 tiles at nb = 64,
#: where a stack rounds ~2.4× cheaper per tile than one tile alone (~1.2× at
#: 128 tiles); one tile from nb = 256 up
FP16_STACK_BYTES = 256 * 1024


class Fp16Stacks:
    """Independent pure-FP16 updates waiting to run as stacked :func:`gemm` calls.

    The one stacking rule of ``mp_cholesky`` and the task executors:
    updates of equal-shape tiles are grouped, and a group is full once its
    ``C`` reaches :data:`FP16_STACK_BYTES`.  At nb = 64 an fp16 rounding
    costs its per-call overhead, not its element work, so the three
    roundings of an update (two accumulator chunks and the result) are
    paid once per stack.  Every other format is updated one tile at a
    time: stacking FP16_32 or FP32 updates gained nothing end to end, and
    FP64 ones at nb = 128 ran slower.  The caller decides which updates
    are independent and runs the stacks; an item is whatever names an
    update to it.
    """

    __slots__ = ("_open",)

    def __init__(self) -> None:
        self._open: dict[tuple[int, ...], list] = {}

    @staticmethod
    def depth(shape: tuple[int, ...]) -> int:
        """Updates of ``shape`` tiles in a full stack: the first count whose ``C`` reaches the budget."""
        return -(-FP16_STACK_BYTES // (4 * shape[0] * shape[1]))

    def add(self, shape: tuple[int, ...], item) -> list | None:
        """Queue ``item``, an update of a ``shape`` tile; returns its stack once that is full."""
        stack = self._open.setdefault(shape, [])
        stack.append(item)
        if len(stack) * 4 * shape[0] * shape[1] < FP16_STACK_BYTES:
            return None
        del self._open[shape]
        return stack

    def drain(self) -> list[list]:
        """The stacks not yet full, to run now, each in the order its items came."""
        stacks, self._open = list(self._open.values()), {}
        return stacks
