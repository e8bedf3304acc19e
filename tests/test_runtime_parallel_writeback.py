"""Regression: parallel executor write-back on partially-covered graphs.

Both executors write back the latest version of every tile their value
store holds.  A version lives there until its last reader has run, unless
it is its tile's latest (peak O(live tiles), not O(NT³/6) versions), so a
tile a task merely *reads* keeps its quantized version-0 seed as its
latest version, and that seed is written back into the output matrix.  On
a graph where some matrix tiles are touched by no task (and some only as
read-only inputs) this must not diverge from the sequential executor's
handling — same tiles written, same quantisation, bit-identical result.
"""

import numpy as np
import pytest

from repro.precision import Precision
from repro.precision.emulate import quantize
from repro.runtime.executor import execute_numeric
from repro.runtime.parallel_executor import execute_numeric_parallel
from repro.runtime.task import TaskGraph, TaskInput
from repro.tiles.tilematrix import TiledSymmetricMatrix

NB = 16
NT = 3
N = NB * NT


@pytest.fixture
def spd_48(rng):
    a = rng.standard_normal((N, N))
    return TiledSymmetricMatrix.from_dense(a @ a.T + N * np.eye(N), NB)


def _inp(producer, i, j, v, payload, storage, role="in"):
    return TaskInput(
        producer=producer,
        tile=(i, j, v),
        payload_precision=payload,
        storage_precision=storage,
        elements=NB * NB,
        role=role,
    )


def partial_graph() -> TaskGraph:
    """A 3×3-tile graph covering only the first panel.

    * POTRF(0) writes (0,0); TRSM(1,0) writes (1,0); GEMM(2,1,0) writes
      (2,1) while reading tile (2,0) as a version-0 input that **no task
      ever writes**;
    * tiles (1,1) and (2,2) are touched by no task at all.
    """
    g = TaskGraph()
    g.new_task(
        kind="POTRF", params=(0,), rank=0, precision=Precision.FP64,
        flops=float(NB**3) / 3, output=(0, 0, 1),
        output_precision=Precision.FP64,
        inputs=[_inp(None, 0, 0, 0, Precision.FP64, Precision.FP64, "inout")],
    )
    g.new_task(
        kind="TRSM", params=(1, 0), rank=0, precision=Precision.FP32,
        flops=float(NB**3), output=(1, 0, 1),
        output_precision=Precision.FP32,
        inputs=[
            _inp(0, 0, 0, 1, Precision.FP32, Precision.FP64),
            _inp(None, 1, 0, 0, Precision.FP32, Precision.FP32, "inout"),
        ],
    )
    g.new_task(
        kind="GEMM", params=(2, 1, 0), rank=0, precision=Precision.FP16_32,
        flops=2.0 * NB**3, output=(2, 1, 1),
        output_precision=Precision.FP32,
        inputs=[
            _inp(None, 2, 0, 0, Precision.FP16, Precision.FP32),
            _inp(1, 1, 0, 1, Precision.FP16, Precision.FP32),
            _inp(None, 2, 1, 0, Precision.FP32, Precision.FP32, "inout"),
        ],
    )
    g.finalize()
    return g


class TestPartialGraphWriteback:
    def test_parallel_matches_sequential(self, spd_48):
        graph = partial_graph()
        ref = execute_numeric(graph, spd_48)
        for n_threads in (1, 2, 4):
            out = execute_numeric_parallel(graph, spd_48, n_threads=n_threads)
            assert np.array_equal(out.to_dense(), ref.to_dense()), n_threads

    def test_untouched_tiles_keep_original_values(self, spd_48):
        graph = partial_graph()
        for execute in (execute_numeric,
                        lambda g, m: execute_numeric_parallel(g, m, n_threads=3)):
            out = execute(graph, spd_48)
            for i, j in ((1, 1), (2, 2)):
                assert np.array_equal(out.get(i, j), spd_48.get(i, j)), (i, j)

    def test_read_only_tile_written_back_quantized(self, spd_48):
        """Both executors write the storage-quantized seed of a tile that
        is read but never produced — the documented (shared) semantics."""
        graph = partial_graph()
        expected = quantize(spd_48.get(2, 0), Precision.FP32)
        seq = execute_numeric(graph, spd_48)
        par = execute_numeric_parallel(graph, spd_48, n_threads=3)
        assert np.array_equal(seq.get(2, 0), expected)
        assert np.array_equal(par.get(2, 0), expected)

    def test_input_matrix_unmodified(self, spd_48):
        graph = partial_graph()
        before = spd_48.to_dense()
        execute_numeric_parallel(graph, spd_48, n_threads=2)
        assert np.array_equal(spd_48.to_dense(), before)
