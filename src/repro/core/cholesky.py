"""Adaptive mixed-precision tile Cholesky (Algorithm 1) — numeric path.

This is the sequential numerical reference of the factorization the
runtime executes as a DAG: identical arithmetic, identical conversion
semantics, no scheduling.  The Monte Carlo accuracy study (Figs. 5/6)
runs through this path.

Per iteration ``k`` (Algorithm 1):

* ``DPOTRF(k,k)`` factors the diagonal tile in FP64 and broadcasts the
  factor at the diagonal's communication precision;
* ``TRSM(m,k)`` solves each panel tile at its execution precision (FP32
  floor for FP16-class tiles) against the received diagonal payload and
  broadcasts the result at the panel tile's communication precision;
* ``DSYRK(m,k)`` updates the diagonal in FP64 from the received payload;
* ``GEMM(m,n,k)`` updates trailing tiles in their kernel precision from
  the received payloads.

The conversion strategy enters as *payload quantisation*: under TTC a
tile travels at its storage precision; under AUTO it travels at the
Algorithm 2 communication precision (STC wherever that is below
storage).  Receivers re-quantise to their kernel's input format, so STC
and TTC are numerically near-identical (the paper's "no unnecessary
accuracy loss" invariant) while moving different byte volumes — the
property the tests assert and the simulator prices.
That receiver-side rounding is made once per payload and input format,
not once per receiving kernel: each broadcast payload of a panel is an
:class:`~repro.precision.emulate.Operand`, which lives as long as the
panel's updates do.  Between kernels a tile stays at the dtype it rests
in (float64 for FP64 storage, float32 below): ``get``/``set`` and their
float64 round trip are the generation-phase cast only.

An iteration's pure-FP16 trailing updates are issued as stacks of
equal-shape tiles through :class:`repro.tiles.kernels.Fp16Stacks`, the
rule the task executors share: up to ``FP16_STACK_BYTES`` of ``C`` per
``tk.gemm`` call, each tile with the bits it gets on its own.  The
per-tile check of the stacks is the float64-round-trip loop
``tests/cholesky_numeric_oracle.py``, which updates one tile per call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..precision.emulate import Operand, as_input, quantize  # noqa: F401
from ..precision.formats import Precision, get_storage_precision
from ..tiles import kernels as tk
from ..tiles.tilematrix import TiledSymmetricMatrix
from .config import ConversionStrategy
from .conversion import CommPrecisionMap, build_comm_precision_map
from .precision_map import KernelPrecisionMap, precision_rows, uniform_map

# ``quantize`` is not used here; it stays a name of this module because
# perfbench's kernel profile stopwatches it on every module of the numeric path
__all__ = [
    "CholeskyResult",
    "mp_cholesky",
    "kernel_counts",
    "logdet_from_factor",
    "solve_with_factor",
]


@dataclass
class CholeskyResult:
    """Factorization output plus the precision bookkeeping of the run."""

    factor: TiledSymmetricMatrix
    kernel_map: KernelPrecisionMap
    comm_map: CommPrecisionMap
    strategy: ConversionStrategy
    #: kernel invocation counts per (kind, precision)
    kernel_counts: dict[tuple[str, Precision], int] = field(default_factory=dict)

    def logdet(self) -> float:
        return logdet_from_factor(self.factor)


def mp_cholesky(
    mat: TiledSymmetricMatrix,
    kernel_map: KernelPrecisionMap | None = None,
    *,
    strategy: ConversionStrategy = ConversionStrategy.AUTO,
    comm_map: CommPrecisionMap | None = None,
    overwrite: bool = False,
) -> CholeskyResult:
    """Factor a tiled SPD matrix with adaptive mixed precision.

    ``kernel_map`` defaults to all-FP64 (the exact baseline).  Raises
    :class:`repro.tiles.kernels.NotPositiveDefiniteError` when a diagonal
    tile loses positive definiteness (the MLE driver catches this and
    reports ``-inf`` likelihood).
    """
    nt = mat.nt
    if kernel_map is None:
        kernel_map = uniform_map(nt, Precision.FP64)
    if kernel_map.nt != nt:
        raise ValueError(f"kernel map is {kernel_map.nt}×{kernel_map.nt}, matrix has NT={nt}")
    if comm_map is None:
        comm_map = build_comm_precision_map(kernel_map)
    kernel = precision_rows(kernel_map.codes)
    payload = precision_rows(comm_map.payload_codes(strategy))

    # generation-phase cast (Section V): every tile rests at the storage
    # precision implied by its kernel precision before the factorization
    # starts, regardless of how the caller built the matrix.  From here on
    # a tile is read and replaced at that dtype; no kernel writes into one
    work = mat if overwrite else TiledSymmetricMatrix(n=mat.n, nb=mat.nb)
    for i, j in work.lower_indices():
        work.set(i, j, mat.get(i, j), precision=get_storage_precision(kernel[i][j]))
    tiles = work.tiles
    stacks = tk.Fp16Stacks()

    for k in range(nt):
        tiles[k, k] = l_kk = np.tril(tk.potrf(tiles[k, k]))
        work.storage_precision[k, k] = Precision.FP64

        if k == nt - 1:
            break

        # POTRF broadcast payload
        diag_payload = Operand(as_input(l_kk, payload[k][k]))

        # panel solves, and their broadcast payloads
        payloads: dict[int, Operand] = {}
        for m in range(k + 1, nt):
            tiles[m, k] = solved = tk.trsm(diag_payload, tiles[m, k], precision=kernel[m][k])
            payloads[m] = Operand(as_input(solved, payload[m][k]))

        # diagonal updates
        for m in range(k + 1, nt):
            updated = tk.syrk(payloads[m], tiles[m, m], precision=payload[m][k])
            tiles[m, m] = updated.astype(tiles[m, m].dtype, copy=False)

        # trailing updates: pure FP16 ones in stacks of equal-shape tiles, the rest one by one
        for m in range(k + 2, nt):
            row = kernel[m]
            for n in range(k + 1, m):
                prec = row[n]
                if prec is not Precision.FP16:
                    tiles[m, n] = tk.gemm(payloads[m], payloads[n], tiles[m, n], precision=prec)
                    continue
                full = stacks.add(tiles[m, n].shape, (m, n))
                if full:
                    _fp16_update(tiles, payloads, full)
        for stack in stacks.drain():
            _fp16_update(tiles, payloads, stack)

    return CholeskyResult(work, kernel_map, comm_map, strategy, kernel_counts=kernel_counts(kernel_map))


def _fp16_update(tiles: dict, payloads: dict[int, Operand], stack: list[tuple[int, int]]) -> None:
    """The pure-FP16 updates of the tiles ``stack`` names, as one stacked ``tk.gemm``."""
    updated = tk.gemm(
        [payloads[m] for m, _n in stack],
        [payloads[n] for _m, n in stack],
        [tiles[t] for t in stack],
        precision=Precision.FP16,
    )
    # each tile its own array (an ``OnFp16Grid`` still): a view would hold
    # the whole stack until its last tile is replaced
    for t, tile in zip(stack, updated):
        tiles[t] = tile.copy()


def kernel_counts(kernel_map: KernelPrecisionMap) -> dict[tuple[str, Precision], int]:
    """Kernel calls per (kind, precision) of one factorization under ``kernel_map``.

    In closed form: a POTRF per diagonal tile, a TRSM and a SYRK per
    off-diagonal tile, and tile ``(m, n)`` takes one GEMM per ``k < n``.
    A stacked update counts one call per tile.
    """
    nt = kernel_map.nt
    il, jl = np.tril_indices(nt, -1)
    codes = kernel_map.codes[il, jl]
    counts: Counter[tuple[str, Precision]] = Counter({("POTRF", Precision.FP64): nt})
    for code, n in zip(*np.unique(codes, return_counts=True)):
        counts["TRSM", tk.trsm_execution_precision(Precision(int(code)))] += int(n)
    if nt > 1:
        counts["SYRK", Precision.FP64] = nt * (nt - 1) // 2
    for code, n in enumerate(np.bincount(codes, weights=jl).tolist()):
        if n:
            counts["GEMM", Precision(code)] = int(n)
    return dict(counts)


def logdet_from_factor(factor: TiledSymmetricMatrix) -> float:
    """``log |Σ| = 2 Σ_i log L_ii`` from the tiled Cholesky factor."""
    total = 0.0
    for t in range(factor.nt):
        diag = np.diag(factor.get(t, t))
        if np.any(diag <= 0.0):
            return -math.inf
        total += float(np.sum(np.log(diag)))
    return 2.0 * total


def solve_with_factor(factor: TiledSymmetricMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``Σ x = rhs`` given the tiled Cholesky factor ``L`` (FP64 path).

    The triangular solves are O(n²) — negligible next to the O(n³)
    factorization — so the paper (like ExaGeoStat) runs them in full
    precision, on the factor's own tiles: ``L y = rhs``, then ``Lᵀ x = y``.
    ``rhs`` is a vector or an n×k block; no n×n array is formed.  A singular
    diagonal tile raises :class:`numpy.linalg.LinAlgError`; a non-finite
    factor entry is not checked for and reaches ``x``.
    """
    x = np.array(rhs, dtype=np.float64)  # solved in place, one tile row at a time
    _substitute(factor, x, transpose=False)
    _substitute(factor, x, transpose=True)
    return x


def _substitute(factor: TiledSymmetricMatrix, x: np.ndarray, *, transpose: bool) -> None:
    """Overwrite ``x`` with ``L⁻¹x`` (tile rows top down) or ``L⁻ᵀx`` (bottom up):
    each row block less its products with the solved ones (float32 tiles
    widened exactly), then ``dtrtrs`` against the diagonal tile."""
    from scipy.linalg.lapack import dtrtrs

    tiles, nb, nt = factor.tiles, factor.nb, factor.nt
    rows = [slice(t * nb, (t + 1) * nb) for t in range(nt)]
    for i in reversed(range(nt)) if transpose else range(nt):
        block = x[rows[i]]
        for j in range(i + 1, nt) if transpose else range(i):
            tile = tiles[j, i].T if transpose else tiles[i, j]
            block -= tile.astype(np.float64, copy=False) @ x[rows[j]]
        # as Lᵀ (upper), which a row-major tile — every factor's — is in LAPACK's order
        x[rows[i]], info = dtrtrs(tiles[i, i].T, block, lower=0, trans=int(not transpose))
        if info:
            raise np.linalg.LinAlgError(f"singular factor: tile {i}, diagonal {info - 1}")
