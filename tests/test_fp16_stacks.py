"""A stacked trailing update is the same tiles updated one by one.

``mp_cholesky`` issues an iteration's pure-FP16 GEMMs as stacks of
equal-shape tiles (``tk.gemm`` on sequences); the task executors update
one tile per task.  Here the stacked call is compared with per-tile calls
on the raw bytes, dtype and ``OnFp16Grid`` flag of every tile, over the
values that take ``round_to_fp16`` off its fast path, and the stacked
factorization with the per-tile executor and the float64-round-trip
oracle on whole factors.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cholesky import kernel_counts, mp_cholesky
from repro.core.config import MPConfig
from repro.core.conversion import build_comm_precision_map
from repro.core.dag_cholesky import build_cholesky_dag
from repro.core.precision_map import build_precision_map, two_precision_map
from repro.geostats.generator import SyntheticField, build_tiled_covariance
from repro.precision import Precision
from repro.precision.emulate import OnFp16Grid, Operand, round_to_fp16
from repro.runtime.executor import execute_numeric
from repro.tiles import kernels as tk
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix
from tests.cholesky_numeric_oracle import mp_cholesky_oracle

#: fp16's edges: the smallest subnormal, the largest subnormal, the smallest
#: normal, the largest finite value, the first value the cast saturates, ±inf, NaN
EDGES = np.array([2.0**-24, 2.0**-14 - 2.0**-24, 2.0**-14, 65504.0, 65520.0, np.inf, np.nan])


def _entries(rng, shape, special: bool) -> np.ndarray:
    """O(1), subnormal-range and near-saturation magnitudes, signed; with ``special``
    some entries are fp16's edge values."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-9, 4.8, shape)
    if special:
        edge = rng.random(shape) < 0.05
        x[edge] = rng.choice(EDGES, size=int(edge.sum())) * rng.choice([-1.0, 1.0], size=int(edge.sum()))
    return x


def _same_tile(got, want) -> bool:
    """Same dtype, shape and flag, the same bytes on every lane that is not a NaN,
    and NaNs on the same lanes.  A NaN's sign is not compared: where both
    operands of an add are NaN, NumPy's vector loop returns the first and its
    scalar tail the second, so it depends on where a lane falls in an array."""
    nan = np.isnan(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and isinstance(got, OnFp16Grid) == isinstance(want, OnFp16Grid)
            and np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes())


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 40), m=st.integers(1, 20), n=st.integers(1, 20), k=st.integers(1, 100),
       precision=st.sampled_from([Precision.FP16, Precision.FP16_32, Precision.FP32]),
       special=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stack_is_the_tiles_one_by_one(depth, m, n, k, precision, special, seed):
    """Depths 1–40, ragged (m, n, k), flagged and unflagged ``C`` mixed in one
    stack, operands as ``Operand``s or raw arrays; edge values on the
    fp16-grid formats, under an error filter for every warning."""
    rng = np.random.default_rng(seed)
    special = special and precision != Precision.FP32  # FP32 multiplies inf · 0 and warns, one tile or many
    a = [_entries(rng, (m, k), special) for _ in range(depth)]
    b = [_entries(rng, (n, k), special) for _ in range(depth)]
    c = []
    for _ in range(depth):
        tile = _entries(rng, (m, n), special).astype(np.float32)
        flagged = precision == Precision.FP16 and rng.random() < 0.5
        c.append(round_to_fp16(tile).view(OnFp16Grid) if flagged else tile)
    wrap = rng.random(depth) < 0.5
    a = [Operand(x) if w else x for x, w in zip(a, wrap)]
    b = [Operand(x) if w else x for x, w in zip(b, wrap)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one_by_one = [tk.gemm(*tile, precision=precision) for tile in zip(a, b, c)]
        stacked = tk.gemm(a, b, c, precision=precision)
    assert stacked.shape == (depth, m, n)
    for got, want in zip(stacked, one_by_one):
        assert _same_tile(got, want)


def test_a_flagged_c_is_trusted_in_a_stack_as_on_its_own(rng):
    """The flag decides which tiles of a stacked ``C`` are rounded: an off-grid
    tile that says it is on the grid is read as it is, one tile or many."""
    a, b, off_grid = rng.standard_normal((3, 8, 8)).astype(np.float32)
    assert off_grid.tobytes() != round_to_fp16(off_grid).tobytes()
    a, b, c = [a] * 3, [b] * 3, [off_grid, off_grid.view(OnFp16Grid), off_grid]
    stacked = tk.gemm(a, b, c, precision=Precision.FP16)
    for got, tile in zip(stacked, zip(a, b, c)):
        assert _same_tile(got, tk.gemm(*tile, precision=Precision.FP16))
    assert stacked[0].tobytes() == stacked[2].tobytes() != stacked[1].tobytes()


def _raw(factor):
    return {t: (factor.tiles[t].dtype.str, factor.tiles[t].tobytes()) for t in factor.lower_indices()}


def _three_ways(mat, kmap):
    """``mp_cholesky`` (stacked), ``execute_numeric`` (per tile) and the oracle loop."""
    cmap = build_comm_precision_map(kmap)
    res = mp_cholesky(mat, kmap, comm_map=cmap)
    graph = build_cholesky_dag(mat.n, mat.nb, kmap, comm_map=cmap).graph
    executed = execute_numeric(graph, mat)
    oracle = mp_cholesky_oracle(mat, kmap, comm_map=cmap)
    assert res.kernel_counts == oracle.kernel_counts == kernel_counts(kmap)
    assert _raw(res.factor) == _raw(oracle.factor)
    for t in res.factor.lower_indices():
        assert np.array_equal(executed.get(*t), res.factor.get(*t)), t
    return res


def test_mle_adaptive_matrix_three_ways():
    """perfbench's ``mle_adaptive`` matrix: n = 1024, nb = 64, u_req = 1e-4."""
    ds = SyntheticField.sqexp_2d(1024, 1.0, 0.03, seed=0, nugget=0.01).sample()
    mat = build_tiled_covariance(ds.locations, ds.model, ds.theta_true, 64, nugget=ds.nugget)
    kmap = build_precision_map(tile_norms(mat), 1e-4, MPConfig().formats)
    assert _three_ways(mat, kmap).kernel_counts["GEMM", Precision.FP16] == 307


@pytest.mark.parametrize("nb", [32, 24])
def test_ragged_map_of_fp16_tiles_three_ways(weak_sqexp_cov, nb):
    """n % nb ≠ 0, every off-diagonal tile FP16: the last tile row is a stack of its own shape."""
    mat = TiledSymmetricMatrix.from_dense(weak_sqexp_cov.to_dense(), nb)
    assert mat.n % nb
    _three_ways(mat, two_precision_map(mat.nt, Precision.FP16))
