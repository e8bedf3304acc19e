"""A stacked trailing update is the same tiles updated one by one.

``mp_cholesky`` and the task executors issue independent pure-FP16 GEMMs
as stacks of equal-shape tiles (``tk.gemm`` on sequences, by the rule of
``tk.Fp16Stacks``).  Here the stacked call is compared with per-tile
calls on the raw bytes, dtype and ``OnFp16Grid`` flag of every tile, over
the values that take ``round_to_fp16`` off its fast path; the stacked
factorization and executor with the float64-round-trip oracle, which
updates one tile per call, on whole factors; and the executors' stacks
with the same graph run one task at a time, on hand-built graphs where a
stack must be flushed before a task reads what it writes.
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
from repro.runtime import executor, parallel_executor
from repro.runtime.executor import _assemble, _execute_task, _seed_version0, execute_numeric
from repro.runtime.parallel_executor import execute_numeric_parallel
from repro.runtime.task import TaskGraph, TaskInput
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
    """``mp_cholesky`` and ``execute_numeric`` (both stacked) and the oracle loop (per tile)."""
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


# -- the executors' stacks: flushed before a read, equal to one task at a time --------


def _per_task(graph, mat):
    """``graph`` run one task per kernel call, in task order: the unstacked reference."""
    store = _seed_version0(graph, mat)
    for task in graph:
        store.commit(task, *_execute_task(task, store))
    return _assemble(graph, mat, store.finals())


def _batches(monkeypatch):
    """The task ids of every batch the executors run, in the order they run."""
    seen, real = [], executor._execute_tasks

    def record(tasks, values):
        seen.append([task.tid for task in tasks])
        return real(tasks, values)

    monkeypatch.setattr(executor, "_execute_tasks", record)
    monkeypatch.setattr(parallel_executor, "_execute_tasks", record)
    return seen


def _input(producer, tile, payload, storage=Precision.FP32, role="in"):
    return TaskInput(producer, tile, payload, storage, 0, role)


def _fp16_gemm(graph, m, n, inout):
    """A pure-FP16 update of tile ``(m, n)`` by the version-0 tiles ``(m, 0)``
    and ``(n, 0)``; ``inout`` is the version it reads and its producer."""
    version, producer = inout
    panels = [_input(None, (t, 0, 0), Precision.FP16) for t in (m, n)]
    if producer is None:
        c = _input(None, (m, n, version), Precision.FP32, role="inout")
    else:
        c = _input(producer, (m, n, version), Precision.FP16, Precision.FP16, "inout")
    return graph.new_task(kind="GEMM", params=(m, n, version), rank=0, precision=Precision.FP16,
                          flops=0.0, output=(m, n, version + 1), output_precision=Precision.FP16,
                          inputs=[*panels, c]).tid


def _two_updates_of_one_tile() -> TaskGraph:
    """Two updates of (2, 1) with one of (3, 1) between them: the second
    reads the first's output, so the open stack must run before it."""
    g = TaskGraph()
    first = _fp16_gemm(g, 2, 1, (0, None))
    _fp16_gemm(g, 3, 1, (0, None))
    _fp16_gemm(g, 2, 1, (1, first))
    g.finalize()
    return g


def _trsm_reads_a_stacked_tile() -> TaskGraph:
    """Updates of (2, 1) and (3, 1), a POTRF of (1, 1) that reads neither,
    then a TRSM of (2, 1) by its factor: the TRSM reads a tile the open
    stack writes."""
    g = TaskGraph()
    update = _fp16_gemm(g, 2, 1, (0, None))
    _fp16_gemm(g, 3, 1, (0, None))
    potrf = g.new_task(kind="POTRF", params=(1,), rank=0, precision=Precision.FP64, flops=0.0,
                       output=(1, 1, 1), output_precision=Precision.FP64,
                       inputs=[_input(None, (1, 1, 0), Precision.FP64, Precision.FP64, "inout")]).tid
    g.new_task(kind="TRSM", params=(2, 1), rank=0, precision=Precision.FP32, flops=0.0,
               output=(2, 1, 2), output_precision=Precision.FP32,
               inputs=[_input(potrf, (1, 1, 1), Precision.FP32, Precision.FP64),
                       _input(update, (2, 1, 1), Precision.FP16, Precision.FP16, "inout")])
    g.finalize()
    return g


@pytest.mark.parametrize("graph, batches", [
    (_two_updates_of_one_tile(), [[0, 1], [2]]),
    (_trsm_reads_a_stacked_tile(), [[2], [0, 1], [3]]),
], ids=["two-updates-of-one-tile", "trsm-reads-a-stacked-tile"])
def test_a_read_of_a_stacked_tile_flushes_the_stack(spd_96, monkeypatch, graph, batches):
    """The sequential executor runs the open stack before the task that reads
    what it writes, and returns what one task at a time returns, bit for bit;
    so does the pool at every thread count."""
    mat = TiledSymmetricMatrix.from_dense(spd_96[:64, :64], 16)
    want = _raw(_per_task(graph, mat))
    seen = _batches(monkeypatch)
    assert _raw(execute_numeric(graph, mat)) == want
    assert seen == batches
    for n_threads in (1, 2, 4):
        assert _raw(execute_numeric_parallel(graph, mat, n_threads=n_threads)) == want, n_threads


@pytest.mark.parametrize("nb", [32, 24])
def test_ragged_last_row_stacks_by_shape(weak_sqexp_cov, monkeypatch, nb):
    """n % nb ≠ 0, every off-diagonal tile FP16: each executor's stacks hold
    tiles of one shape, the short last row among them, and every executor
    returns what one task at a time returns."""
    mat = TiledSymmetricMatrix.from_dense(weak_sqexp_cov.to_dense(), nb)
    graph = build_cholesky_dag(mat.n, mat.nb, two_precision_map(mat.nt, Precision.FP16)).graph
    want = _raw(_per_task(graph, mat))
    seen = _batches(monkeypatch)
    runs = [("sequential", lambda: execute_numeric(graph, mat))] + [
        (f"{t} threads", lambda t=t: execute_numeric_parallel(graph, mat, n_threads=t)) for t in (1, 2, 4)]
    for label, run in runs:
        seen.clear()
        assert _raw(run()) == want, label
        stacks = [[mat.tile_shape(*graph.tasks[t].output[:2]) for t in b] for b in seen if len(b) > 1]
        assert all(len(set(shapes)) == 1 for shapes in stacks), label
        assert any(shapes[0][0] < nb for shapes in stacks), label
        assert sum(map(len, seen)) == len(graph), label


def test_executors_return_the_factor_at_rest():
    """``mle_adaptive``'s matrix: the executors return ``mp_cholesky``'s
    factor — its storage-precision map and its bytes (FP32 off the
    diagonal), not one at the input's FP64."""
    ds = SyntheticField.sqexp_2d(1024, 1.0, 0.03, seed=0, nugget=0.01).sample()
    mat = build_tiled_covariance(ds.locations, ds.model, ds.theta_true, 64, nugget=ds.nugget)
    kmap = build_precision_map(tile_norms(mat), 1e-4, MPConfig().formats)
    cmap = build_comm_precision_map(kmap)
    factor = mp_cholesky(mat, kmap, comm_map=cmap).factor
    graph = build_cholesky_dag(mat.n, mat.nb, kmap, comm_map=cmap).graph
    for out in (execute_numeric(graph, mat), execute_numeric_parallel(graph, mat, n_threads=2)):
        assert out.storage_precision == factor.storage_precision
        assert out.storage_bytes() == factor.storage_bytes() < mat.storage_bytes()
        assert _raw(out) == _raw(factor)
