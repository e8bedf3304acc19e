"""Synthetic spatial location generation (ExaGeoStat-style).

The paper's Monte Carlo study uses synthetic 2D and 3D datasets that
"closely resemble real-world data encountered in climate and weather
applications".  Following ExaGeoStat's generator, we place n points on a
regular √n×√n (or cube-root) grid in the unit square/cube and perturb
each coordinate uniformly, producing an irregular but space-filling
design.

Locations are then sorted along a Morton (Z-order) space-filling curve.
This ordering is what gives the covariance matrix its tile structure:
consecutive indices are spatially close, so norms decay away from the
diagonal tile-by-tile — the property the tile-centric precision
selection exploits (Section V).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = [
    "generate_locations",
    "morton_order",
    "pairwise_distances",
    "cross_distances",
    "TileDistances",
]

_MORTON_BITS = 16


def _spread_bits(x: np.ndarray, dim: int) -> np.ndarray:
    """Interleave zeros between bits of x so dim values can be merged."""
    out = np.zeros_like(x, dtype=np.uint64)
    for bit in range(_MORTON_BITS):
        out |= ((x >> np.uint64(bit)) & np.uint64(1)) << np.uint64(dim * bit)
    return out


def _to_grid(locations: np.ndarray, bits: int) -> np.ndarray:
    """Scale float coordinates onto the 2^bits integer grid (per axis);
    the one quantiser of the Morton and Hilbert orderings."""
    locs = np.asarray(locations, dtype=np.float64)
    if locs.ndim != 2:
        raise ValueError("locations must be (n, dim)")
    lo = locs.min(axis=0)
    hi = locs.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    scale = (1 << bits) - 1
    return np.clip(((locs - lo) / span * scale).astype(np.uint64), 0, scale)


def morton_order(locations: np.ndarray) -> np.ndarray:
    """Indices sorting locations along a Z-order curve."""
    grid = _to_grid(locations, _MORTON_BITS)
    n, dim = grid.shape
    code = np.zeros(n, dtype=np.uint64)
    for d in range(dim):
        code |= _spread_bits(grid[:, d], dim) << np.uint64(d)
    return np.argsort(code, kind="stable")


def generate_locations(
    n: int,
    dim: int = 2,
    *,
    seed: int | np.random.Generator | None = None,
    sort: bool = True,
) -> np.ndarray:
    """Generate ``n`` irregular locations in the unit square/cube.

    Points sit on a perturbed regular grid: grid pitch ``1/m`` with each
    coordinate jittered by ``±0.4/m`` (ExaGeoStat uses a comparable
    scheme), clipped to [0, 1].  With ``sort=True`` (default) the points
    are returned in Morton order.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if dim not in (2, 3):
        raise ValueError("only 2D and 3D locations are supported")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    m = int(math.ceil(n ** (1.0 / dim)))
    axes = [np.arange(m, dtype=np.float64) for _ in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    # random subset when the grid overshoots n
    if pts.shape[0] > n:
        idx = rng.choice(pts.shape[0], size=n, replace=False)
        pts = pts[idx]
    pts = (pts + 0.5) / m
    pts += rng.uniform(-0.4 / m, 0.4 / m, size=pts.shape)
    np.clip(pts, 0.0, 1.0, out=pts)
    if sort:
        pts = pts[morton_order(pts)]
    return pts


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between two location sets: (len(a), len(b)).

    Accumulated one coordinate at a time — the same left-to-right sum as
    ``sqrt(sum((a − b)², axis=−1))`` without its (len(a), len(b), dim)
    temporaries.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a[:, None, 0] - b[None, :, 0]
    total = diff * diff
    for d in range(1, a.shape[1]):
        np.subtract(a[:, None, d], b[None, :, d], out=diff)
        np.multiply(diff, diff, out=diff)
        total += diff
    return np.sqrt(total, out=total)


def pairwise_distances(locations: np.ndarray) -> np.ndarray:
    """Dense n×n Euclidean distance matrix."""
    return cross_distances(locations, locations)


class TileDistances:
    """Lower-triangle distances of one location set at one tile size.

    The part of Σ(θ) that does not depend on θ, computed once: ``packed``
    is one contiguous float64 vector holding the lower tiles in
    ``(i, j ≤ i)`` order — an off-diagonal tile row-major, a diagonal
    tile's strictly-lower entries only — and a final 0, each point's
    distance to itself, so one kernel call over it yields every tile and
    C(0).  Read-only; in-place writes to the locations are not watched.
    """

    def __init__(self, locations: np.ndarray, nb: int) -> None:
        if nb <= 0:
            raise ValueError("nb must be positive")
        locs = np.asarray(locations, dtype=np.float64)
        self.n, self.nb = locs.shape[0], nb
        bounds = [(lo, min(self.n, lo + nb)) for lo in range(0, self.n, nb)]
        self._lower = {m: np.tril_indices(m, -1) for m in {hi - lo for lo, hi in bounds}}
        #: (i, j, rows, cols, offset into ``packed``) per lower tile
        self._layout: list[tuple[int, int, int, int, int]] = []
        self.packed = np.zeros(self.n * (self.n - 1) // 2 + 1)  # every pair once, then the 0
        offset = 0
        for i, (ilo, ihi) in enumerate(bounds):
            for j, (jlo, jhi) in enumerate(bounds[: i + 1]):
                h = cross_distances(locs[ilo:ihi], locs[jlo:jhi])
                block = h[self._lower[ihi - ilo]] if i == j else h.ravel()
                self._layout.append((i, j, ihi - ilo, jhi - jlo, offset))
                self.packed[offset : offset + block.size] = block
                offset += block.size
        self.packed.flags.writeable = False

    def unpack(self, values: np.ndarray, diagonal: float) -> Iterator[tuple[tuple[int, int], np.ndarray]]:
        """``((i, j), tile)`` for ``values`` laid out like ``packed``.

        Off-diagonal tiles are views of ``values``; a diagonal tile is
        mirrored from its strictly-lower entries around ``diagonal``.
        """
        for i, j, rows, cols, offset in self._layout:
            if i != j:
                yield (i, j), values[offset : offset + rows * cols].reshape(rows, cols)
                continue
            r, c = self._lower[rows]
            tile = np.empty((rows, rows))
            tile[r, c] = tile[c, r] = values[offset : offset + r.size]
            np.fill_diagonal(tile, diagonal)
            yield (i, j), tile
