"""Tiled symmetric matrix storage.

The covariance matrix Σ(θ) of the MLE driver is symmetric positive
definite, so only the lower-triangular tile set is stored (the layout the
tile Cholesky of Algorithm 1 consumes).  Each tile is an independent
NumPy array and can carry its *own* dtype — that is exactly the paper's
mixed-precision storage map (Fig. 2b): FP64 tiles on and near the
diagonal, FP32 for everything whose kernels run at or below FP32.

``get`` and ``set`` speak float64 — what a caller assembling or reading a
matrix wants — and cast to and from the storage dtype, which records, and
enforces by an actual cast, what the tile lost when it was generated at
reduced precision.  The factorization does not go through them between
kernels: it reads and replaces ``tiles[(i, j)]`` at the dtype the tile
rests in (the emulation layer reinstates format rounding at kernel
granularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..precision.emulate import quantize_tile
from ..precision.formats import Precision, get_storage_precision

__all__ = ["TiledSymmetricMatrix", "tile_index_range"]


def tile_index_range(n: int, nb: int, t: int) -> tuple[int, int]:
    """Global index range ``[lo, hi)`` covered by tile row/col ``t``."""
    lo = t * nb
    hi = min(n, lo + nb)
    if lo >= n:
        raise IndexError(f"tile {t} outside matrix of size {n} (nb={nb})")
    return lo, hi


@dataclass
class TiledSymmetricMatrix:
    """Lower-triangular tiled storage of a symmetric n×n matrix.

    Attributes
    ----------
    n, nb:
        Matrix size and tile size.  The last tile row/column may be
        ragged when ``n % nb != 0``.
    tiles:
        ``{(i, j): ndarray}`` for ``j ≤ i``.
    storage_precision:
        ``{(i, j): Precision}`` — dtype in which each tile rests
        (Fig. 2b).  Defaults to FP64 everywhere.
    """

    n: int
    nb: int
    tiles: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    storage_precision: dict[tuple[int, int], Precision] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n <= 0 or self.nb <= 0:
            raise ValueError("n and nb must be positive")

    @property
    def nt(self) -> int:
        """Number of tile rows/columns."""
        return -(-self.n // self.nb)

    def tile_shape(self, i: int, j: int) -> tuple[int, int]:
        ri = tile_index_range(self.n, self.nb, i)
        rj = tile_index_range(self.n, self.nb, j)
        return (ri[1] - ri[0], rj[1] - rj[0])

    def lower_indices(self) -> Iterator[tuple[int, int]]:
        for i in range(self.nt):
            for j in range(i + 1):
                yield (i, j)

    # -- access ---------------------------------------------------------
    def get(self, i: int, j: int) -> np.ndarray:
        """Tile (i, j) as float64 (transposing a mirrored upper access)."""
        if j > i:
            return self.get(j, i).T
        tile = self.tiles[(i, j)]
        return np.asarray(tile, dtype=np.float64)

    def set(self, i: int, j: int, value: np.ndarray, *, precision: Precision | None = None) -> None:
        """Store tile (i, j), casting to its storage precision.

        ``precision`` overrides the recorded storage precision; otherwise
        the existing entry (default FP64) is used.
        """
        if j > i:
            raise IndexError("only lower-triangular tiles are stored; set (j, i) instead")
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self.tile_shape(i, j):
            raise ValueError(
                f"tile ({i},{j}) expects shape {self.tile_shape(i, j)}, got {value.shape}"
            )
        if precision is not None:
            self.storage_precision[(i, j)] = precision
        prec = self.storage_precision.get((i, j), Precision.FP64)
        self.tiles[(i, j)] = quantize_tile(value, prec)

    def precision_of(self, i: int, j: int) -> Precision:
        if j > i:
            i, j = j, i
        return self.storage_precision.get((i, j), Precision.FP64)

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        a: np.ndarray,
        nb: int,
        *,
        kernel_precision: Callable[[int, int], Precision] | None = None,
    ) -> "TiledSymmetricMatrix":
        """Tile a dense symmetric matrix.

        When ``kernel_precision`` is given (the Fig. 2a map as a callable),
        each tile is stored at ``get_storage_precision(kernel_precision)``,
        reproducing the generation-phase casting of Section V.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        return cls.from_tile_function(
            a.shape[0], nb, lambda i, j: a[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb],
            kernel_precision=kernel_precision,
        )

    @classmethod
    def from_tile_function(
        cls,
        n: int,
        nb: int,
        fill: Callable[[int, int], np.ndarray],
        *,
        kernel_precision: Callable[[int, int], Precision] | None = None,
    ) -> "TiledSymmetricMatrix":
        """Build tile-by-tile without ever forming the dense matrix."""
        mat = cls(n=n, nb=nb)
        for i, j in mat.lower_indices():
            prec = Precision.FP64
            if kernel_precision is not None:
                prec = get_storage_precision(kernel_precision(i, j))
            mat.set(i, j, fill(i, j), precision=prec)
        return mat

    # -- conversions ------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise the full symmetric matrix as float64."""
        out = np.zeros((self.n, self.n), dtype=np.float64)
        for i, j in self.lower_indices():
            ri = tile_index_range(self.n, self.nb, i)
            rj = tile_index_range(self.n, self.nb, j)
            block = self.get(i, j)
            out[ri[0] : ri[1], rj[0] : rj[1]] = block
            if i != j:
                out[rj[0] : rj[1], ri[0] : ri[1]] = block.T
        return out

    def lower_dense(self) -> np.ndarray:
        """Materialise only the lower triangle (upper left at zero), in one pass."""
        out = np.zeros((self.n, self.n), dtype=np.float64)
        for i, j in self.lower_indices():
            tile, r, c = self.tiles[(i, j)], i * self.nb, j * self.nb
            out[r : r + tile.shape[0], c : c + tile.shape[1]] = np.tril(tile) if i == j else tile
        return out

    def copy(self) -> "TiledSymmetricMatrix":
        clone = TiledSymmetricMatrix(n=self.n, nb=self.nb)
        clone.storage_precision = dict(self.storage_precision)
        clone.tiles = {k: v.copy() for k, v in self.tiles.items()}
        return clone

    def storage_bytes(self) -> int:
        """Total bytes of the mixed-precision tile storage."""
        return sum(t.nbytes for t in self.tiles.values())
