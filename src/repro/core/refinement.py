"""Mixed-precision iterative refinement on top of the MP factorization.

The related work the paper builds on ([33] Haidar et al.) obtains
energy-efficient *linear solvers* by factoring in low precision and
recovering FP64 accuracy through iterative refinement.  This module adds
that capability to the reproduction: factor Σ once with the adaptive
mixed-precision Cholesky (cheap, low precision), then iterate

    r_k = b − Σ x_k           (FP64 residual)
    x_{k+1} = x_k + L⁻ᵀ L⁻¹ r_k

until the residual reaches FP64 working accuracy.  Convergence is
geometric with rate ≈ cond(Σ)·u_factor, so a factorization at accuracy
``u_req`` refines successfully whenever the matrix is reasonably
conditioned — exactly the regime the tile-selection rule creates.

The residual is taken from Σ's lower tiles as a symmetric tiled
mat-vec, so no n×n array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..tiles.tilematrix import TiledSymmetricMatrix
from .cholesky import CholeskyResult, solve_with_factor

__all__ = ["RefinementResult", "refine_solve"]


@dataclass
class RefinementResult:
    """Solution of Σx = b via low-precision factor + FP64 refinement."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        """The relative residual of ``x``: the smallest seen, as ``x`` is
        the best iterate."""
        return min(self.residual_norms, default=float("inf"))


def _residual(matrix: TiledSymmetricMatrix, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``b − Σx`` from Σ's lower tiles, each applied as itself and, off the
    diagonal, as its transpose (float32 tiles widened exactly)."""
    r = b.copy()
    rows = [slice(t * matrix.nb, (t + 1) * matrix.nb) for t in range(matrix.nt)]
    for (i, j), tile in matrix.tiles.items():
        tile = tile.astype(np.float64, copy=False)
        r[rows[i]] -= tile @ x[rows[j]]
        if i != j:
            r[rows[j]] -= tile.T @ x[rows[i]]
    return r


def refine_solve(
    matrix: TiledSymmetricMatrix,
    result: CholeskyResult,
    b: np.ndarray,
    *,
    tol: float = 1e-12,
    max_iterations: int = 50,
) -> RefinementResult:
    """Solve ``Σ x = b`` with the MP factor and FP64 iterative refinement.

    Parameters
    ----------
    matrix:
        The *original* (unfactored) matrix Σ, used for FP64 residuals.
    result:
        A :class:`CholeskyResult` from :func:`repro.core.cholesky.mp_cholesky`
        on the same matrix (any accuracy).
    tol:
        Target relative residual ``‖b − Σx‖ / ‖b‖``.

    Divergence (residual growth over two consecutive iterations — the
    factor was too inaccurate for this conditioning) stops early with
    ``converged=False`` and the best iterate found.
    """
    b = np.asarray(b, dtype=np.float64)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return RefinementResult(np.zeros_like(b), 0, True, [0.0])

    x = solve_with_factor(result.factor, b)
    best_x = x
    best_res = float("inf")
    norms: list[float] = []
    growth = 0
    for it in range(1, max_iterations + 1):
        r = _residual(matrix, x, b)
        rel = float(np.linalg.norm(r)) / norm_b
        norms.append(rel)
        if rel < best_res:
            best_res = rel
            best_x = x
            growth = 0
        else:
            growth += 1
            if growth >= 2:
                return RefinementResult(best_x, it, False, norms)
        if rel <= tol:
            return RefinementResult(x, it, True, norms)
        x = x + solve_with_factor(result.factor, r)

    return RefinementResult(best_x, max_iterations, best_res <= tol, norms)
