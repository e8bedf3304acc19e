"""TLR Cholesky factorization, optionally combined with mixed precision.

The right-looking tile Cholesky of Algorithm 1 re-expressed on TLR
storage (refs [16], [17]; the paper's Section VIII roadmap):

* ``POTRF`` — dense FP64 on the diagonal tile, unchanged;
* ``TRSM``  — ``(U Vᵀ) L⁻ᵀ = U (L⁻¹ V)ᵀ``: a triangular solve against
  the *narrow* V factor only — O(nb²·r) instead of O(nb³);
* ``SYRK``  — ``C −= (U Vᵀ)(V Uᵀ) = U (VᵀV) Uᵀ``: a small core product
  expanded densely onto the diagonal — O(nb·r² + nb²·r);
* ``GEMM``  — ``C_mn −= U_m (V_mᵀ V_n) U_nᵀ``: a rank-``min(r_m, r_n)``
  update folded into C's low-rank representation and *recompressed* —
  never densified.

Mixed precision enters exactly as the paper envisions: each off-diagonal
tile's U/V factors are quantised to the tile's kernel precision from the
Fig. 2a map, so the TLR factors inherit the same tile-centric precision
selection (and the same accuracy argument — the perturbation is bounded
by the tile's norm share).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.precision_map import KernelPrecisionMap
from ..precision.formats import Precision
from ..tiles.kernels import NotPositiveDefiniteError
from .compression import LowRankTile, add_lowrank
from .tlrmatrix import TLRSymmetricMatrix

__all__ = ["TLRCholeskyResult", "tlr_cholesky"]


@dataclass
class TLRCholeskyResult:
    """Factor in TLR form plus operation statistics."""

    factor: TLRSymmetricMatrix
    flops: float
    dense_flops: float
    max_rank: int

    @property
    def flop_savings(self) -> float:
        """dense flops / TLR flops (>1 means TLR wins)."""
        return self.dense_flops / self.flops if self.flops else float("inf")

    def logdet(self) -> float:
        total = 0.0
        for t in range(self.factor.nt):
            diag = np.diag(self.factor.diag[t])
            if np.any(diag <= 0.0):
                return -np.inf
            total += float(np.sum(np.log(diag)))
        return 2.0 * total


def tlr_cholesky(
    mat: TLRSymmetricMatrix,
    *,
    kernel_map: KernelPrecisionMap | None = None,
) -> TLRCholeskyResult:
    """Factor a TLR symmetric positive definite matrix in place (copy).

    ``kernel_map`` (optional) applies the adaptive mixed-precision map to
    the low-rank factors tile-by-tile — the mixed-precision + TLR
    combination of the paper's future work.
    """
    import scipy.linalg

    nt = mat.nt
    if kernel_map is not None and kernel_map.nt != nt:
        raise ValueError("kernel map NT mismatch")
    tol = mat.tol
    work = TLRSymmetricMatrix(
        n=mat.n,
        nb=mat.nb,
        tol=tol,
        diag={t: tile.copy() for t, tile in mat.diag.items()},
        lowrank={k: LowRankTile(v.u.copy(), v.v.copy()) for k, v in mat.lowrank.items()},
    )

    flops = 0.0
    dense_flops = 0.0
    peak_rank = 0

    def _prec(i: int, j: int) -> Precision | None:
        if kernel_map is None:
            return None
        return kernel_map.kernel(i, j)

    def _q(lr: LowRankTile, i: int, j: int) -> LowRankTile:
        prec = _prec(i, j)
        if prec is None or prec == Precision.FP64:
            return lr
        return lr.quantized(prec)

    for k in range(nt):
        c_kk = work.diag[k]
        nb_k = c_kk.shape[0]
        try:
            l_kk = np.linalg.cholesky(c_kk)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc
        work.diag[k] = np.tril(l_kk)
        flops += nb_k**3 / 3.0
        dense_flops += nb_k**3 / 3.0

        panels: dict[int, LowRankTile] = {}
        for m in range(k + 1, nt):
            lr = work.lowrank[(m, k)]
            # TRSM: U (L⁻¹ V)ᵀ — solve against the narrow factor
            v_new = scipy.linalg.solve_triangular(l_kk, lr.v, lower=True)
            solved = LowRankTile(lr.u, v_new)
            solved = _q(solved, m, k)
            work.lowrank[(m, k)] = solved
            panels[m] = solved
            peak_rank = max(peak_rank, solved.rank)
            flops += nb_k**2 * solved.rank
            dense_flops += float(lr.shape[0]) * nb_k**2

        for m in range(k + 1, nt):
            a = panels[m]
            # SYRK: C_mm −= U (VᵀV) Uᵀ (dense diagonal update)
            core = a.v.T @ a.v
            work.diag[m] = work.diag[m] - a.u @ core @ a.u.T
            work.diag[m] = (work.diag[m] + work.diag[m].T) * 0.5
            r = a.rank
            nb_m = a.shape[0]
            flops += 2.0 * nb_m * r * r + 2.0 * nb_m * nb_m * r
            dense_flops += float(nb_m) ** 3

        for m in range(k + 2, nt):
            a = panels[m]
            for n in range(k + 1, m):
                b = panels[n]
                # GEMM: C_mn −= U_m (V_mᵀ V_n) U_nᵀ, folded into C's LR rep
                core = a.v.T @ b.v  # (r_m, r_n)
                w = a.u @ core  # (nb, r_n)
                update = LowRankTile(-w, b.u)
                c = work.lowrank[(m, n)]
                work.lowrank[(m, n)] = add_lowrank(c, update, tol)
                peak_rank = max(peak_rank, work.lowrank[(m, n)].rank)
                r_sum = c.rank + update.rank
                nb_m = a.shape[0]
                flops += (
                    2.0 * a.rank * b.rank * a.v.shape[0]  # core
                    + 2.0 * nb_m * a.rank * b.rank  # w
                    + 6.0 * nb_m * r_sum * r_sum  # recompression QRs + core SVD
                )
                dense_flops += 2.0 * float(nb_m) ** 3

    return TLRCholeskyResult(
        factor=work, flops=flops, dense_flops=dense_flops, max_rank=peak_rank
    )
