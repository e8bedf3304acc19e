"""Property battery for the geospatial dataplane (ISSUE 10).

Invariants under test:

* Hilbert encode is a bijection on the grid (and decode its inverse);
* ``hilbert_order`` is deterministic, canonical under input permutation,
  and permutation-only (values bit-identical);
* the locality invariant: mean nearest-neighbour *index* distance after
  a Hilbert sort never exceeds a random sort's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geostats.dataplane import (
    check_spatial_order,
    hilbert_decode,
    hilbert_encode,
    hilbert_order,
    order_locations,
)
from tests.locality_oracle import nn_index_distance


def _points(n: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, dim))


# -- Hilbert bijection ----------------------------------------------------


@given(st.sampled_from([2, 3]), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_hilbert_encode_bijection_on_full_grid(dim, bits):
    """Encode maps the full grid onto 0..2^(dim*bits)-1 exactly once."""
    side = 1 << bits
    axes = np.meshgrid(*[np.arange(side)] * dim, indexing="ij")
    grid = np.stack([a.ravel() for a in axes], axis=1).astype(np.uint64)
    code = hilbert_encode(grid, bits)
    assert sorted(code.tolist()) == list(range(side**dim))


@given(st.sampled_from([2, 3]), st.integers(1, 10), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_hilbert_decode_inverts_encode(dim, bits, seed):
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 1 << bits, size=(200, dim), dtype=np.uint64)
    code = hilbert_encode(grid, bits)
    assert np.array_equal(hilbert_decode(code, dim, bits), grid)


@given(st.sampled_from([2, 3]), st.integers(2, 5))
@settings(max_examples=12, deadline=None)
def test_hilbert_curve_is_contiguous(dim, bits):
    """Consecutive Hilbert codes are L1-adjacent grid cells — the property
    Morton lacks and the reason the ordering tightens precision maps."""
    side = 1 << bits
    axes = np.meshgrid(*[np.arange(side)] * dim, indexing="ij")
    grid = np.stack([a.ravel() for a in axes], axis=1).astype(np.uint64)
    code = hilbert_encode(grid, bits)
    path = grid[np.argsort(code)].astype(np.int64)
    steps = np.abs(np.diff(path, axis=0)).sum(axis=1)
    assert np.all(steps == 1)


# -- sort determinism and permutation-only --------------------------------


@given(st.sampled_from([2, 3]), st.integers(2, 300), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_hilbert_sort_is_permutation_only(dim, n, seed):
    """The sort only rearranges rows: the multiset of points is preserved
    bit-for-bit, and the index vector is a true permutation."""
    pts = _points(n, dim, seed)
    order = hilbert_order(pts)
    assert sorted(order.tolist()) == list(range(n))
    out = pts[order]
    key = np.lexsort(tuple(pts[:, d] for d in range(dim - 1, -1, -1)))
    key2 = np.lexsort(tuple(out[:, d] for d in range(dim - 1, -1, -1)))
    assert np.array_equal(pts[key], out[key2])


@given(st.sampled_from([2, 3]), st.integers(2, 300), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_hilbert_sort_canonical_under_permutation(dim, n, seed):
    """Any shuffle of the same point set sorts to the identical sequence —
    what makes permuted-then-reordered covariance bit-identical."""
    pts = _points(n, dim, seed)
    rng = np.random.default_rng(seed + 1)
    shuffled = pts[rng.permutation(n)]
    a = pts[hilbert_order(pts)]
    b = shuffled[hilbert_order(shuffled)]
    assert a.tobytes() == b.tobytes()


@given(st.integers(2, 200), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_hilbert_sort_deterministic(n, seed):
    pts = _points(n, 2, seed)
    assert np.array_equal(hilbert_order(pts), hilbert_order(pts))


# -- locality invariant ---------------------------------------------------


@given(st.sampled_from([2, 3]), st.integers(32, 256), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_locality_hilbert_beats_random(dim, n, seed):
    """Mean NN index distance after a Hilbert sort ≤ after a random sort."""
    pts = _points(n, dim, seed)
    hil = order_locations(pts, "hilbert")
    rnd = order_locations(pts, "random", seed=seed + 7)
    assert nn_index_distance(hil) <= nn_index_distance(rnd)


@given(st.integers(64, 512), st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_spatial_order_score_hilbert_beats_random(n, seed):
    pts = _points(n, 2, seed)
    hil = check_spatial_order(order_locations(pts, "hilbert"))
    rnd = check_spatial_order(order_locations(pts, "random", seed=seed + 7))
    assert hil <= rnd
