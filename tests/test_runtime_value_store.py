"""The executors' value store holds only live tile versions.

All three numeric executors run a graph through one reader-counted store
(``runtime/executor.py::_Values``): a tile version is dropped after its
last reader unless it is its tile's latest version, which is the output.
These tests pin the memory bound that buys, that freeing changes no bit
of the factor, and that a rank of the distributed executor ends holding
exactly its own final versions.
"""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.cholesky import mp_cholesky
from repro.core.dag_cholesky import build_cholesky_dag
from repro.core.precision_map import build_precision_map
from repro.geostats import SyntheticField
from repro.geostats.generator import build_tiled_covariance
from repro.precision import Precision
from repro.precision.emulate import Operand, as_input, quantize
from repro.runtime.distributed import execute_numeric_distributed
from repro.runtime.executor import _execute_task, _seed_version0, execute_numeric
from repro.runtime.parallel_executor import execute_numeric_parallel
from repro.runtime.task import TaskGraph
from repro.tiles.distribution import ProcessGrid
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix
from tests.test_runtime_parallel_writeback import NB, _inp, partial_graph


def _adaptive(nt: int, nb: int, grid: ProcessGrid | None = None):
    """An adaptive 2D-sqexp matrix (the ``mle_adaptive`` field) and its DAG."""
    n = nt * nb
    ds = SyntheticField.sqexp_2d(n, 1.0, 0.03, seed=0, nugget=0.01).sample()
    mat = build_tiled_covariance(ds.locations, ds.model, ds.theta_true, nb, nugget=ds.nugget)
    kmap = build_precision_map(tile_norms(mat), 1e-4)
    return mat, kmap, build_cholesky_dag(n, nb, kmap, grid=grid).graph


def _lower_equal(a, b) -> bool:
    return all(np.array_equal(a.get(*t), b.get(*t)) for t in b.lower_indices())


def _final_versions(tasks) -> set[tuple[int, int, int]]:
    """The last version each tile gets from ``tasks``."""
    last: dict[tuple[int, int], int] = {}
    for task in tasks:
        i, j, v = task.output
        last[(i, j)] = max(v, last.get((i, j), 0))
    return {(i, j, v) for (i, j), v in last.items()}


@pytest.fixture(scope="module")
def nt16():
    """The ``mle_adaptive`` size: n = 1024, nb = 64, NT = 16."""
    mat, kmap, graph = _adaptive(16, 64)
    return mat, kmap, graph, execute_numeric(graph, mat)


@pytest.fixture(scope="module")
def nt24():
    mat, kmap, graph = _adaptive(24, 32)
    return mat, graph, mp_cholesky(mat, kmap).factor


class TestMemoryBound:
    """Peak memory follows the live tiles, not the O(NT³/6) versions."""

    @pytest.mark.parametrize("execute", [
        execute_numeric,
        lambda g, m: execute_numeric_parallel(g, m, n_threads=2),
    ], ids=["sequential", "threaded"])
    def test_peak_is_a_small_multiple_of_the_matrix(self, nt24, execute):
        mat, graph, ref = nt24
        # the first TRSM imports LAPACK: keep that import out of the trace
        from scipy.linalg import lapack  # noqa: F401

        tracemalloc.start()
        try:
            out = execute(graph, mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every version kept (NT³/6 tiles) is ~7× the matrix at this size
        assert peak < 2.5 * mat.storage_bytes(), peak / mat.storage_bytes()
        assert _lower_equal(out, ref)


class TestReleaseKeepsTheBits:
    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_threaded_runs_are_bit_identical(self, nt16, n_threads):
        """Releases run while other threads read: a release counted twice
        would free a version before its last reader, which raises KeyError."""
        mat, _kmap, graph, seq = nt16
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                out = execute_numeric_parallel(graph, mat, n_threads=n_threads)
                assert _lower_equal(out, seq)
        finally:
            sys.setswitchinterval(interval)

    def test_sequential_matches_mp_cholesky(self, nt16):
        mat, kmap, _graph, seq = nt16
        assert _lower_equal(seq, mp_cholesky(mat, kmap).factor)

    def test_store_ends_with_the_latest_versions_only(self, nt16):
        mat, _kmap, graph, _seq = nt16
        store = _seed_version0(graph, mat)
        for task in graph:
            store.commit(task, *_execute_task(task, store))
        assert set(store) == _final_versions(graph)
        assert store.panels == {} and store.readers == {}

    def test_a_freed_key_raises(self, nt16):
        mat, _kmap, graph, _seq = nt16
        store = _seed_version0(graph, mat)
        gemm = next(t for t in graph if t.kind == "GEMM")
        for task in graph.tasks[: gemm.tid + 1]:
            store.commit(task, *_execute_task(task, store))
        with pytest.raises(KeyError):
            _execute_task(gemm, store)


class TestDistributedRankStore:
    def test_rank_ends_with_its_own_finals(self):
        """Replay one rank's tasks as ``_rank_main`` does: remote inputs
        arrive in a stash of sender-quantised payloads and move into the
        store; when the rank is done the store holds its final versions
        and nothing received, and the stash is empty."""
        mat, _kmap, graph = _adaptive(8, 32, ProcessGrid(2, 2))
        everything = _seed_version0(graph, mat)
        for task in graph:  # every version, for the senders' payloads
            key, result = _execute_task(task, everything)
            everything[key] = result
        rank = 3
        mine = [t for t in graph if t.rank == rank]
        store = _seed_version0(graph, mat, rank)
        stash = {
            inp.key: quantize(everything[inp.tile], inp.payload_precision)
            for t in mine for inp in t.inputs
            if inp.producer is not None and graph.tasks[inp.producer].rank != rank
        }
        assert stash
        for task in mine:
            for inp in task.inputs:
                if inp.producer is None or graph.tasks[inp.producer].rank == rank:
                    continue
                forms = store.panels.setdefault(inp.tile, {})
                if inp.payload_precision not in forms:
                    payload = stash.pop(inp.key)
                    forms[inp.payload_precision] = Operand(as_input(payload, inp.payload_precision))
            key, result = _execute_task(task, store)
            assert np.array_equal(result, everything[key])
            store.commit(task, key, result)
        assert stash == {}
        assert set(store) == _final_versions(mine)
        assert store.panels == {} and store.readers == {}
        for (i, j), data in store.finals().items():
            assert np.array_equal(data, everything[(i, j, store.latest[(i, j)])])

    def test_one_version_read_at_two_precisions(self, spd_96):
        """Rank 1 reads ``L(0,0)`` from rank 0 at FP16 in ``TRSM(1,0)`` and
        at FP32 in ``TRSM(2,0)``: each reader gets its own payload."""
        graph = _two_payload_graph()
        mat = TiledSymmetricMatrix.from_dense(spd_96[:48, :48], 16)
        ref = execute_numeric(graph, mat)
        out = execute_numeric_distributed(graph, mat, 2).matrix
        for i in range(3):
            assert np.array_equal(out.get(i, 0), ref.get(i, 0)), (i, 0)
        assert np.array_equal(out.to_dense(), ref.to_dense())


def _two_payload_graph() -> TaskGraph:
    """POTRF(0) on rank 0, then two TRSMs on rank 1 that read its output
    at two payload precisions, FP16 first."""
    g = TaskGraph()
    g.new_task(
        kind="POTRF", params=(0,), rank=0, precision=Precision.FP64,
        flops=float(NB**3) / 3, output=(0, 0, 1), output_precision=Precision.FP64,
        inputs=[_inp(None, 0, 0, 0, Precision.FP64, Precision.FP64, "inout")],
    )
    for m, payload in ((1, Precision.FP16), (2, Precision.FP32)):
        g.new_task(
            kind="TRSM", params=(m, 0), rank=1, precision=Precision.FP32,
            flops=float(NB**3), output=(m, 0, 1), output_precision=Precision.FP32,
            inputs=[
                _inp(0, 0, 0, 1, payload, Precision.FP64),
                _inp(None, m, 0, 0, Precision.FP32, Precision.FP32, "inout"),
            ],
        )
    g.finalize()
    return g


def _gemm_on_rank_1(graph: TaskGraph) -> TaskGraph:
    """``graph`` with its GEMMs moved to rank 1: in ``partial_graph`` that
    GEMM receives TRSM's output over the wire and reads the never-written
    tile (2, 0)."""
    g = TaskGraph()
    for task in graph:
        g.add(dataclasses.replace(task, rank=int(task.kind == "GEMM")))
    g.finalize()
    return g


class TestPartialGraphs:
    """The write-back rules of ``test_runtime_parallel_writeback`` hold for
    all three executors: a read-only tile comes back as its quantized seed,
    an untouched tile keeps its input value."""

    @pytest.mark.parametrize("execute", [
        lambda g, m: execute_numeric(g, m),
        lambda g, m: execute_numeric_parallel(g, m, n_threads=2),
        lambda g, m: execute_numeric_distributed(_gemm_on_rank_1(g), m, 2).matrix,
    ], ids=["sequential", "threaded", "distributed"])
    def test_write_back(self, spd_96, execute):
        mat = TiledSymmetricMatrix.from_dense(spd_96[:48, :48], 16)
        ref = execute_numeric(partial_graph(), mat)
        out = execute(partial_graph(), mat)
        assert np.array_equal(out.to_dense(), ref.to_dense())
        assert np.array_equal(out.get(2, 0), quantize(mat.get(2, 0), Precision.FP32))
        for i, j in ((1, 1), (2, 2)):
            assert np.array_equal(out.get(i, j), mat.get(i, j))
