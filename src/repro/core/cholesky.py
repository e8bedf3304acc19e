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
tile travels at its storage precision; under STC/AUTO it travels at the
Algorithm 2 communication precision.  Receivers re-quantise to their
kernel's input format, so STC and TTC are numerically near-identical (the
paper's "no unnecessary accuracy loss" invariant) while moving different
byte volumes — the property the tests assert and the simulator prices.
That receiver-side rounding is made once per payload and input format,
not once per receiving kernel: each broadcast payload of a panel is an
:class:`~repro.precision.emulate.Operand`, which lives as long as the
panel's updates do.  Between kernels a tile stays at the dtype it rests
in (float64 for FP64 storage, float32 below): ``get``/``set`` and their
float64 round trip are the generation-phase cast only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..precision.emulate import Operand, as_input, quantize  # noqa: F401
from ..precision.formats import Precision
from ..tiles import kernels as tk
from ..tiles.tilematrix import TiledSymmetricMatrix
from .config import ConversionStrategy
from .conversion import CommPrecisionMap, build_comm_precision_map
from .precision_map import KernelPrecisionMap, uniform_map

# ``quantize`` is not used here; it stays a name of this module because
# perfbench's kernel profile stopwatches it on every module of the numeric path
__all__ = ["CholeskyResult", "mp_cholesky", "logdet_from_factor", "solve_with_factor"]


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

    # generation-phase cast (Section V): every tile rests at the storage
    # precision implied by its kernel precision before the factorization
    # starts, regardless of how the caller built the matrix.  From here on
    # a tile is read and replaced at that dtype; no kernel writes into one
    work = mat if overwrite else TiledSymmetricMatrix(n=mat.n, nb=mat.nb)
    for i, j in work.lower_indices():
        work.set(i, j, mat.get(i, j), precision=kernel_map.storage(i, j))
    tiles = work.tiles
    counts: Counter[tuple[str, Precision]] = Counter()

    for k in range(nt):
        tiles[k, k] = l_kk = np.tril(tk.potrf(tiles[k, k]))
        work.storage_precision[k, k] = Precision.FP64
        counts["POTRF", Precision.FP64] += 1

        if k == nt - 1:
            break

        # POTRF broadcast payload
        diag_payload = Operand(as_input(l_kk, comm_map.payload(k, k, strategy)))

        # panel solves, and their broadcast payloads
        payloads: dict[int, Operand] = {}
        for m in range(k + 1, nt):
            prec = kernel_map.kernel(m, k)
            tiles[m, k] = solved = tk.trsm(diag_payload, tiles[m, k], precision=prec)
            counts["TRSM", tk.trsm_execution_precision(prec)] += 1
            payloads[m] = Operand(as_input(solved, comm_map.payload(m, k, strategy)))

        # diagonal updates
        for m in range(k + 1, nt):
            updated = tk.syrk(payloads[m], tiles[m, m], precision=comm_map.payload(m, k, strategy))
            tiles[m, m] = updated.astype(tiles[m, m].dtype, copy=False)
            counts["SYRK", Precision.FP64] += 1

        # trailing updates
        for m in range(k + 2, nt):
            for n in range(k + 1, m):
                prec = kernel_map.kernel(m, n)
                tiles[m, n] = tk.gemm(payloads[m], payloads[n], tiles[m, n], precision=prec)
                counts["GEMM", prec] += 1

    return CholeskyResult(work, kernel_map, comm_map, strategy, kernel_counts=dict(counts))


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
    """Solve ``Σ x = rhs`` given the Cholesky factor ``L`` (FP64 path).

    The triangular solves are O(n²) — negligible next to the O(n³)
    factorization — so the paper (like ExaGeoStat) runs them in full
    precision; we materialise the lower factor and use two dense solves.
    """
    import scipy.linalg

    rhs = np.asarray(rhs, dtype=np.float64)
    lower = factor.lower_dense()
    y = scipy.linalg.solve_triangular(lower, rhs, lower=True)
    return scipy.linalg.solve_triangular(lower.T, y, lower=False)
