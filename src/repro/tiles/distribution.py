"""2D block-cyclic data distribution over a process grid (Section VII-A).

The paper distributes tiles over a ``P × Q`` process grid chosen "as
square as possible" with ``P ≤ Q``.  Tile (i, j) lives on grid position
``(i mod P, j mod Q)``; inside a node, tiles are served round-robin to the
node's GPUs.  This module provides the grid arithmetic plus helpers the
scheduler and the analytic scaling model both use (per-rank tile counts,
load-balance statistics for a symmetric lower-triangular tile set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

__all__ = ["ProcessGrid", "squarest_grid", "lower_triangle_tiles"]


def squarest_grid(p: int) -> tuple[int, int]:
    """Factor ``p`` into the squarest ``P × Q`` grid with ``P ≤ Q``."""
    if p < 1:
        raise ValueError("process count must be positive")
    best = (1, p)
    for cand in range(int(math.isqrt(p)), 0, -1):
        if p % cand == 0:
            best = (cand, p // cand)
            break
    return best


def lower_triangle_tiles(nt: int) -> Iterator[tuple[int, int]]:
    """Yield the (row, col) indices of the lower-triangular tile set."""
    for i in range(nt):
        for j in range(i + 1):
            yield (i, j)


@dataclass(frozen=True)
class ProcessGrid:
    """A ``P × Q`` block-cyclic process grid.

    ``rank = row_rank * Q + col_rank`` matches the row-major rank layout
    PaRSEC's two_dim_block_cyclic descriptor uses.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError("grid dimensions must be positive")

    @classmethod
    def squarest(cls, nprocs: int) -> "ProcessGrid":
        p, q = squarest_grid(nprocs)
        return cls(p, q)

    @property
    def size(self) -> int:
        return self.p * self.q

    def coords(self, rank: int) -> tuple[int, int]:
        """Grid coordinates of a rank."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside grid of size {self.size}")
        return divmod(rank, self.q)

    def owner(self, i: int, j: int) -> int:
        """Rank owning tile (i, j) under 2D block-cyclic distribution."""
        return (i % self.p) * self.q + (j % self.q)

    def tiles_owned(self, rank: int, nt: int, *, lower_only: bool = True) -> list[tuple[int, int]]:
        """Tiles of an ``nt × nt`` tiled matrix owned by ``rank``."""
        tiles = lower_triangle_tiles(nt) if lower_only else (
            (i, j) for i in range(nt) for j in range(nt)
        )
        return [(i, j) for i, j in tiles if self.owner(i, j) == rank]

    def tile_counts(self, nt: int, *, lower_only: bool = True) -> list[int]:
        """Number of tiles owned by each rank."""
        counts = [0] * self.size
        tiles = lower_triangle_tiles(nt) if lower_only else (
            (i, j) for i in range(nt) for j in range(nt)
        )
        for i, j in tiles:
            counts[self.owner(i, j)] += 1
        return counts

    def load_imbalance(self, nt: int) -> float:
        """max/mean tile-count ratio over ranks (1.0 = perfect balance)."""
        counts = self.tile_counts(nt)
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 1.0
        return max(counts) / mean
