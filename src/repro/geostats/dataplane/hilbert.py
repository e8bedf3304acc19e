"""Hilbert-curve spatial ordering (Skilling's transpose algorithm).

Morton (Z-order) ordering — the repo's original default — takes long
jumps at quadrant boundaries, so consecutive indices are occasionally
far apart in space.  The Hilbert curve visits every grid cell so that
consecutive codes are always *adjacent* cells, which tightens the
spatial coherence of tile blocks and hence the band structure of the
covariance precision map (see docs/DATAPLANE.md).

The encode/decode pair implements John Skilling's transpose-based
algorithm ("Programming the Hilbert curve", AIP Conf. Proc. 707, 2004),
vectorized over point sets with uint64 arithmetic.  ``hilbert_order``
sorts with a canonical coordinate tie-break so the result is a function
of the point *set*, not of the input permutation — the property the
bit-identical covariance regression test relies on.
"""

from __future__ import annotations

import numpy as np

from ..locations import _to_grid, morton_order

__all__ = [
    "ORDERINGS",
    "check_spatial_order",
    "hilbert_decode",
    "hilbert_encode",
    "hilbert_order",
    "order_indices",
    "order_locations",
]

#: grid resolution per axis (matches ``locations._MORTON_BITS``)
HILBERT_BITS = 16

#: orderings understood by :func:`order_indices`: the spatial orderings a
#: sweep's ``--ordering`` axis applies before the precision map is sampled
ORDERINGS = ("morton", "random", "hilbert")

_ONE = np.uint64(1)


def hilbert_encode(grid: np.ndarray, bits: int = HILBERT_BITS) -> np.ndarray:
    """Hilbert index of each integer grid point (vectorized Skilling).

    ``grid`` is ``(n, dim)`` with entries in ``[0, 2**bits)``; the result
    is a uint64 array of ``dim*bits``-bit Hilbert indices.  Inverse of
    :func:`hilbert_decode` on the grid — a bijection.
    """
    x = np.array(grid, dtype=np.uint64, copy=True)
    if x.ndim != 2:
        raise ValueError("grid must be (n, dim)")
    n, dim = x.shape
    if dim * bits > 64:
        raise ValueError(f"dim*bits must fit in 64 bits, got {dim}*{bits}")
    if np.any(x >> np.uint64(bits)):
        raise ValueError(f"grid coordinates must be < 2**{bits}")
    # axes -> transpose form (in place on x)
    q = np.uint64(1 << (bits - 1))
    while q > _ONE:
        p = q - _ONE
        for i in range(dim):
            invert = (x[:, i] & q) != 0
            t = np.where(invert, np.uint64(0), (x[:, 0] ^ x[:, i]) & p)
            x[:, 0] ^= np.where(invert, p, t)
            x[:, i] ^= t
        q >>= _ONE
    # Gray encode
    for i in range(1, dim):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n, dtype=np.uint64)
    q = np.uint64(1 << (bits - 1))
    while q > _ONE:
        t = np.where((x[:, dim - 1] & q) != 0, t ^ (q - _ONE), t)
        q >>= _ONE
    for i in range(dim):
        x[:, i] ^= t
    # interleave the transpose form into a single index: bit b of axis i
    # contributes to index bit b*dim + (dim-1-i)
    code = np.zeros(n, dtype=np.uint64)
    for b in range(bits):
        for i in range(dim):
            bit = (x[:, i] >> np.uint64(b)) & _ONE
            code |= bit << np.uint64(b * dim + (dim - 1 - i))
    return code


def hilbert_decode(code: np.ndarray, dim: int, bits: int = HILBERT_BITS) -> np.ndarray:
    """Grid coordinates of each Hilbert index — inverse of :func:`hilbert_encode`."""
    code = np.asarray(code, dtype=np.uint64)
    if code.ndim != 1:
        raise ValueError("code must be 1-D")
    if dim * bits > 64:
        raise ValueError(f"dim*bits must fit in 64 bits, got {dim}*{bits}")
    n = code.shape[0]
    # deinterleave into transpose form
    x = np.zeros((n, dim), dtype=np.uint64)
    for b in range(bits):
        for i in range(dim):
            bit = (code >> np.uint64(b * dim + (dim - 1 - i))) & _ONE
            x[:, i] |= bit << np.uint64(b)
    # Gray decode
    t = x[:, dim - 1] >> _ONE
    for i in range(dim - 1, 0, -1):
        x[:, i] ^= x[:, i - 1]
    x[:, 0] ^= t
    # undo excess work: transpose -> axes
    top = np.uint64(2 << (bits - 1))
    q = np.uint64(2)
    while q != top:
        p = q - _ONE
        for i in range(dim - 1, -1, -1):
            invert = (x[:, i] & q) != 0
            t = np.where(invert, np.uint64(0), (x[:, 0] ^ x[:, i]) & p)
            x[:, 0] ^= np.where(invert, p, t)
            x[:, i] ^= t
        q <<= _ONE
    return x


def hilbert_order(locations: np.ndarray) -> np.ndarray:
    """Indices sorting locations along the Hilbert curve.

    Ties (points mapping to the same grid cell) break on raw coordinates
    so any permutation of the same point set sorts to the same sequence.
    """
    locs = np.asarray(locations, dtype=np.float64)
    grid = _to_grid(locs, HILBERT_BITS)
    code = hilbert_encode(grid, HILBERT_BITS)
    dim = locs.shape[1]
    keys = tuple(locs[:, d] for d in range(dim - 1, -1, -1)) + (code,)
    return np.lexsort(keys)


def order_indices(
    locations: np.ndarray,
    ordering: str,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Permutation realising one of the supported orderings.

    ``morton`` and ``hilbert`` are deterministic space-filling sorts;
    ``random`` is a seeded shuffle (the experiment's control arm).
    """
    locs = np.asarray(locations, dtype=np.float64)
    if ordering == "morton":
        return morton_order(locs)
    if ordering == "hilbert":
        return hilbert_order(locs)
    if ordering == "random":
        rng = np.random.default_rng(seed)
        return rng.permutation(locs.shape[0])
    raise ValueError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")


def order_locations(locations: np.ndarray, ordering: str, *, seed: int = 0) -> np.ndarray:
    """Locations reordered per ``ordering`` (values bit-preserved)."""
    locs = np.asarray(locations)
    return locs[order_indices(locs, ordering, seed=seed)]


def check_spatial_order(locations: np.ndarray) -> float:
    """Spatial-locality score of an ordering: lower is better.

    Mean consecutive-pair distance divided by the mean distance of 4096
    random pairs (fewer if there are fewer pairs), drawn with seed 0.  A
    random permutation scores ≈ 1.0; a space-filling sort scores ≪ 1
    (consecutive points are near-neighbours).
    """
    locs = np.asarray(locations, dtype=np.float64)
    if locs.ndim != 2:
        raise ValueError("locations must be (n, dim)")
    n = locs.shape[0]
    if n < 2:
        return 0.0
    step = np.linalg.norm(np.diff(locs, axis=0), axis=1).mean()
    rng = np.random.default_rng(0)
    k = min(4096, n * (n - 1) // 2)
    a = rng.integers(0, n, size=k)
    b = rng.integers(0, n, size=k)
    keep = a != b
    if not np.any(keep):
        return 0.0
    baseline = np.linalg.norm(locs[a[keep]] - locs[b[keep]], axis=1).mean()
    if baseline <= 0.0:
        return 0.0
    return float(step / baseline)

