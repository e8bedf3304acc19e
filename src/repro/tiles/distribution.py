"""2D block-cyclic data distribution over a process grid (Section VII-A).

The paper distributes tiles over a ``P × Q`` process grid chosen "as
square as possible" with ``P ≤ Q``.  Tile (i, j) lives on grid position
``(i mod P, j mod Q)``; inside a node, tiles are served round-robin to the
node's GPUs.  This module is the grid arithmetic alone: the DAG builder
places each task on :meth:`ProcessGrid.owner`'s rank, and the analytic
scaling model reads the grid's ``P`` and ``Q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ProcessGrid", "squarest_grid"]


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

    def owner(self, i: int, j: int) -> int:
        """Rank owning tile (i, j) under 2D block-cyclic distribution."""
        return (i % self.p) * self.q + (j % self.q)
