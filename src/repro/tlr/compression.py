"""Low-rank tile compression (the TLR substrate of refs [16], [17]).

The paper's future work combines adaptive mixed precision with Tile
Low-Rank (TLR) compression: off-diagonal covariance tiles are numerically
low-rank (smooth kernels ⇒ rapidly decaying singular values), so storing
them as ``U Vᵀ`` outer products shrinks both memory and flops.

This module provides the rank arithmetic: SVD truncation to a target
accuracy, the QR+SVD *recompression* (rounding) used after low-rank
additions, and the addition itself — the three primitives the TLR
Cholesky consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..precision.emulate import quantize_batch
from ..precision.formats import Precision

__all__ = ["LowRankTile", "compress", "recompress", "add_lowrank"]


@dataclass
class LowRankTile:
    """A tile stored as ``u @ v.T`` with ``u: (m, r)``, ``v: (n, r)``."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.u.ndim != 2 or self.v.ndim != 2 or self.u.shape[1] != self.v.shape[1]:
            raise ValueError(
                f"incompatible low-rank factors {self.u.shape}, {self.v.shape}"
            )

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def nbytes(self) -> int:
        return self.u.nbytes + self.v.nbytes

    def to_dense(self) -> np.ndarray:
        return self.u @ self.v.T

    @property
    def T(self) -> "LowRankTile":
        return LowRankTile(self.v, self.u)

    def scaled(self, alpha: float) -> "LowRankTile":
        return LowRankTile(alpha * self.u, self.v)

    def quantized(self, precision: Precision) -> "LowRankTile":
        """Mixed-precision TLR: round both factors to ``precision``.

        Both factors go through one batched quantisation pass.
        """
        u, v = quantize_batch([self.u, self.v], precision)
        return LowRankTile(u, v)


def compress(tile: np.ndarray, tol: float, *, max_rank: int | None = None) -> LowRankTile:
    """SVD-truncate ``tile`` to relative accuracy ``tol``.

    Keeps the singular values with ``σ_i > tol · σ_0`` (at least one), so
    ``‖A − UVᵀ‖₂ ≤ tol · ‖A‖₂``.  ``max_rank`` optionally caps the rank.
    """
    tile = np.asarray(tile, dtype=np.float64)
    if tile.ndim != 2:
        raise ValueError("expected a 2D tile")
    u, s, vt = np.linalg.svd(tile, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return LowRankTile(np.zeros((tile.shape[0], 1)), np.zeros((tile.shape[1], 1)))
    r = int(np.sum(s > tol * s[0]))
    r = max(1, r)
    if max_rank is not None:
        r = min(r, max_rank)
    return LowRankTile(u[:, :r] * s[:r], vt[:r, :].T)


def recompress(lr: LowRankTile, tol: float) -> LowRankTile:
    """Round a low-rank representation back to numerical rank.

    The standard QR+SVD rounding: orthonormalise both factors, truncate
    the small ``r × r`` core.  Cost O((m+n) r² + r³) — never touches a
    dense tile.
    """
    if lr.rank == 0:
        return lr
    qu, ru = np.linalg.qr(lr.u)
    qv, rv = np.linalg.qr(lr.v)
    core = ru @ rv.T
    uc, s, vtc = np.linalg.svd(core)
    if s.size == 0 or s[0] == 0.0:
        m, n = lr.shape
        return LowRankTile(np.zeros((m, 1)), np.zeros((n, 1)))
    r = max(1, int(np.sum(s > tol * s[0])))
    return LowRankTile(qu @ (uc[:, :r] * s[:r]), qv @ vtc[:r, :].T)


def add_lowrank(a: LowRankTile, b: LowRankTile, tol: float) -> LowRankTile:
    """``a + b`` in low-rank form with rounding (rank-truncated sum)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    stacked = LowRankTile(np.hstack([a.u, b.u]), np.hstack([a.v, b.v]))
    return recompress(stacked, tol)
