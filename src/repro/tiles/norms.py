"""Tile-level Frobenius norms and sampled estimation.

The tile-centric precision selection rule (Section V) thresholds
``‖A_ij‖_F · NT / ‖A‖_F``.  For matrices small enough to materialise we
compute the norms exactly; for the Fig. 7 scale (409,600² — 20,100 tiles
of 2048²) the paper's matrix never fits in our environment, so we provide
an unbiased sampled estimator: draw ``s`` random entries of tile (i, j)
through the covariance function and scale the root-mean-square by the
tile's element count.  The estimator's relative error decays as
``1/sqrt(s)`` for covariance tiles (smooth, positive entries), which is
ample to decide a threshold spanning orders of magnitude.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tilematrix import TiledSymmetricMatrix, tile_index_range

__all__ = [
    "tile_norms",
    "global_norm_from_tile_norms",
    "sampled_tile_norms",
]


def tile_norms(mat: TiledSymmetricMatrix) -> np.ndarray:
    """Exact per-tile Frobenius norms (full NT×NT array, mirrored)."""
    nt = mat.nt
    out = np.zeros((nt, nt), dtype=np.float64)
    for i, j in mat.lower_indices():
        norm = float(np.linalg.norm(mat.get(i, j)))
        out[i, j] = norm
        out[j, i] = norm
    return out


def global_norm_from_tile_norms(norms: np.ndarray) -> float:
    """Global Frobenius norm from the full (mirrored) tile-norm array.

    ``‖A‖_F² = Σ_ij ‖A_ij‖_F²``.  Off-diagonal tiles appear twice in the
    mirrored array, which is exactly right: the symmetric matrix contains
    both (i, j) and (j, i) blocks.
    """
    partials = np.asarray(norms.ravel(), dtype=np.float64)
    return float(np.sqrt(np.sum(partials**2)))


def sampled_tile_norms(
    n: int,
    nb: int,
    entry: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    samples_per_tile: int = 64,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Estimate per-tile Frobenius norms without forming the matrix.

    Parameters
    ----------
    entry:
        Vectorised element oracle ``entry(rows, cols) -> values`` giving
        matrix entries at global index pairs (e.g. the covariance kernel
        applied to location pairs).
    samples_per_tile:
        Monte Carlo sample count per tile.  Tiles smaller than this are
        evaluated exactly.

    Returns the full mirrored NT×NT norm-estimate array.
    """
    rng = rng or np.random.default_rng(0)
    nt = -(-n // nb)
    out = np.zeros((nt, nt), dtype=np.float64)
    for i in range(nt):
        ri = tile_index_range(n, nb, i)
        for j in range(i + 1):
            rj = tile_index_range(n, nb, j)
            n_rows = ri[1] - ri[0]
            n_cols = rj[1] - rj[0]
            n_elem = n_rows * n_cols
            if n_elem <= samples_per_tile:
                rows = np.repeat(np.arange(ri[0], ri[1]), n_cols)
                cols = np.tile(np.arange(rj[0], rj[1]), n_rows)
                vals = np.asarray(entry(rows, cols), dtype=np.float64)
                norm = float(np.linalg.norm(vals))
            else:
                rows = rng.integers(ri[0], ri[1], size=samples_per_tile)
                cols = rng.integers(rj[0], rj[1], size=samples_per_tile)
                vals = np.asarray(entry(rows, cols), dtype=np.float64)
                norm = float(np.sqrt(np.mean(vals**2) * n_elem))
            out[i, j] = norm
            out[j, i] = norm
    return out
