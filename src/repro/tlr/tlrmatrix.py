"""TLR storage: dense diagonal tiles, low-rank off-diagonal tiles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..tiles.tilematrix import TiledSymmetricMatrix, tile_index_range
from .compression import LowRankTile, compress

__all__ = ["TLRSymmetricMatrix"]


@dataclass
class TLRSymmetricMatrix:
    """Symmetric matrix in TLR format.

    Diagonal tiles are dense (they carry the strongest correlations and
    feed POTRF); off-diagonal lower-triangle tiles are
    :class:`LowRankTile` outer products compressed to ``tol``.
    """

    n: int
    nb: int
    tol: float
    diag: dict[int, np.ndarray] = field(default_factory=dict)
    lowrank: dict[tuple[int, int], LowRankTile] = field(default_factory=dict)

    @property
    def nt(self) -> int:
        return -(-self.n // self.nb)

    @classmethod
    def from_tiled(cls, mat: TiledSymmetricMatrix, tol: float) -> "TLRSymmetricMatrix":
        """Compress a tiled dense matrix into TLR format."""
        out = cls(n=mat.n, nb=mat.nb, tol=tol)
        for i, j in mat.lower_indices():
            if i == j:
                out.diag[i] = mat.get(i, i).copy()
            else:
                out.lowrank[(i, j)] = compress(mat.get(i, j), tol)
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=np.float64)
        for t, tile in self.diag.items():
            lo, hi = tile_index_range(self.n, self.nb, t)
            out[lo:hi, lo:hi] = tile
        for (i, j), lr in self.lowrank.items():
            ri = tile_index_range(self.n, self.nb, i)
            rj = tile_index_range(self.n, self.nb, j)
            block = lr.to_dense()
            out[ri[0]: ri[1], rj[0]: rj[1]] = block
            out[rj[0]: rj[1], ri[0]: ri[1]] = block.T
        return out

    # -- statistics -------------------------------------------------------
    def memory_bytes(self) -> int:
        total = sum(t.nbytes for t in self.diag.values())
        total += sum(lr.nbytes for lr in self.lowrank.values())
        return total

    def dense_bytes(self) -> int:
        """Bytes the same matrix would occupy in dense FP64 tiles."""
        total = 0
        for t in range(self.nt):
            lo, hi = tile_index_range(self.n, self.nb, t)
            total += (hi - lo) ** 2 * 8
        for (i, j) in self.lowrank:
            ri = tile_index_range(self.n, self.nb, i)
            rj = tile_index_range(self.n, self.nb, j)
            total += (ri[1] - ri[0]) * (rj[1] - rj[0]) * 8
        return total

    def compression_ratio(self) -> float:
        """dense bytes / TLR bytes (>1 means compression wins)."""
        mem = self.memory_bytes()
        return self.dense_bytes() / mem if mem else float("inf")

    def max_rank(self) -> int:
        return max((lr.rank for lr in self.lowrank.values()), default=0)

    def mean_rank(self) -> float:
        if not self.lowrank:
            return 0.0
        return float(np.mean([lr.rank for lr in self.lowrank.values()]))
