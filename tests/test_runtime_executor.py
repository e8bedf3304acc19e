"""Tests for the numeric DAG executor: DAG ≡ sequential algorithm."""

import numpy as np
import pytest

from repro.core.cholesky import mp_cholesky
from repro.core.config import ConversionStrategy
from repro.core.dag_cholesky import build_cholesky_dag
from repro.core.precision_map import build_precision_map, two_precision_map, uniform_map
from repro.precision import Precision
from repro.runtime.executor import execute_numeric
from repro.tiles.distribution import ProcessGrid
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix
from tests.conftest import lower_dense


class TestEquivalence:
    """The unrolled PTG computes bit-identically to Algorithm 1."""

    @pytest.mark.parametrize("prec", [Precision.FP64, Precision.FP32,
                                      Precision.FP16_32, Precision.FP16])
    def test_extreme_maps(self, tiled_96, prec):
        kmap = (uniform_map(6, prec) if prec == Precision.FP64
                else two_precision_map(6, prec))
        ref = lower_dense(mp_cholesky(tiled_96, kmap).factor)
        dag = build_cholesky_dag(96, 16, kmap)
        out = lower_dense(execute_numeric(dag.graph, tiled_96))
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("strategy", [ConversionStrategy.AUTO, ConversionStrategy.TTC])
    def test_adaptive_map_strategies(self, matern_cov_160, strategy):
        dense = matern_cov_160.to_dense() + 0.01 * np.eye(160)
        mat = TiledSymmetricMatrix.from_dense(dense, 20)
        kmap = build_precision_map(tile_norms(mat), 1e-4)
        ref = lower_dense(mp_cholesky(mat, kmap, strategy=strategy).factor)
        dag = build_cholesky_dag(160, 20, kmap, strategy=strategy)
        out = lower_dense(execute_numeric(dag.graph, mat))
        assert np.array_equal(out, ref)

    def test_grid_does_not_change_numerics(self, tiled_96):
        """Data distribution is a performance concern, never a numeric one."""
        kmap = two_precision_map(6, Precision.FP16)
        base = execute_numeric(build_cholesky_dag(96, 16, kmap).graph, tiled_96)
        for grid in (ProcessGrid(2, 2), ProcessGrid(2, 3), ProcessGrid(1, 4)):
            dag = build_cholesky_dag(96, 16, kmap, grid=grid)
            out = execute_numeric(dag.graph, tiled_96)
            assert np.array_equal(lower_dense(out), lower_dense(base))

    def test_input_matrix_unmodified(self, tiled_96):
        before = tiled_96.to_dense()
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        execute_numeric(dag.graph, tiled_96)
        assert np.array_equal(tiled_96.to_dense(), before)

    def test_ragged_sizes(self, rng):
        a = rng.standard_normal((52, 52))
        spd = a @ a.T + 52 * np.eye(52)
        mat = TiledSymmetricMatrix.from_dense(spd, 16)
        kmap = two_precision_map(mat.nt, Precision.FP16)
        ref = lower_dense(mp_cholesky(mat, kmap).factor)
        dag = build_cholesky_dag(52, 16, kmap)
        out = lower_dense(execute_numeric(dag.graph, mat))
        assert np.array_equal(out, ref)

    def test_unknown_kind_rejected(self, tiled_96):
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        dag.graph.tasks[0].kind = "FROBNICATE"
        with pytest.raises(ValueError, match="unknown task kind"):
            execute_numeric(dag.graph, tiled_96)


class TestTf32Map:
    """TF32 panels travel as the FP32 words they rest in (Algorithm 2 maps a
    payload in its storage's encoding to the storage precision)."""

    def test_no_stc_copy_is_counted(self):
        from repro.core.conversion import build_comm_precision_map

        cmap = build_comm_precision_map(two_precision_map(4, Precision.TF32))
        assert all(cmap.comm(m, k) == Precision.FP32 for m in range(4) for k in range(m))
        assert cmap.stc_counts() == (3, 9)  # only the FP64 → FP32 diagonal broadcasts

    def test_simulates_and_streams_identically(self):
        from repro.core.solver import simulate_cholesky
        from repro.perfmodel import GPU_BY_NAME, NodeSpec
        from repro.runtime import Platform

        kmap = two_precision_map(4, Precision.TF32)
        platform = Platform(NodeSpec("t", GPU_BY_NAME["V100"], 1, 256e9, 25e9, 1.5e-6), n_nodes=1)
        held = simulate_cholesky(4 * 512, 512, kmap, platform, record_events=False)
        streamed = simulate_cholesky(4 * 512, 512, kmap, platform, record_events=False, stream=True)
        assert held.stats.n_tasks == 20
        assert streamed.makespan == held.makespan
        assert streamed.stats.to_dict() == held.stats.to_dict()

    def test_numeric_bit_identical(self, tiled_96):
        kmap = two_precision_map(6, Precision.TF32)
        ref = lower_dense(mp_cholesky(tiled_96, kmap).factor)
        out = lower_dense(execute_numeric(build_cholesky_dag(96, 16, kmap).graph, tiled_96))
        assert np.array_equal(out, ref)
