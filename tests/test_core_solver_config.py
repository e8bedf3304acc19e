"""Unit tests for MPConfig, plan-then-factor by explicit calls, and the analytic model."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    build_cholesky_dag,
    build_comm_precision_map,
    build_precision_map,
    logdet_from_factor,
    mp_cholesky,
    solve_with_factor,
)
from repro.core.config import ConversionStrategy, MPConfig
from repro.core.precision_map import two_precision_map, uniform_map
from repro.core.solver import simulate_cholesky
from repro.perfmodel.analytic import analytic_cholesky
from repro.perfmodel.gpus import SUMMIT_NODE, V100
from repro.precision import ADAPTIVE_FORMATS, Precision
from repro.runtime import execute_numeric, simulate
from repro.runtime.platform import Platform
from repro.tiles import tile_norms


class TestMPConfig:
    def test_defaults(self):
        cfg = MPConfig()
        assert cfg.accuracy == 1e-9
        assert cfg.formats == ADAPTIVE_FORMATS
        assert cfg.strategy == ConversionStrategy.AUTO
        assert cfg.tile_size == 2048

    def test_validation(self):
        with pytest.raises(ValueError):
            MPConfig(accuracy=0.0)
        with pytest.raises(ValueError):
            MPConfig(accuracy=2.0)
        with pytest.raises(ValueError):
            MPConfig(tile_size=0)
        with pytest.raises(ValueError):
            MPConfig(formats=(Precision.FP32,))

    def test_no_dead_knobs(self):
        """Every field reaches the factorization; ``fp16_chunk`` never did."""
        assert {f.name for f in dataclasses.fields(MPConfig)} == {
            "accuracy", "formats", "strategy", "tile_size"}

    def test_fp64_only(self):
        cfg = MPConfig.fp64_only()
        assert cfg.formats == (Precision.FP64,)


class TestPlanThenFactor:
    def test_plan_and_factorize(self, matern_cov_160):
        dense = matern_cov_160.to_dense() + 0.01 * np.eye(160)
        from repro.tiles.tilematrix import TiledSymmetricMatrix

        mat = TiledSymmetricMatrix.from_dense(dense, 20)
        kmap = build_precision_map(tile_norms(mat), 1e-4)  # Fig. 2
        cmap = build_comm_precision_map(kmap)               # Fig. 4
        assert cmap.stc_fraction() > 0  # a mixed plan: some broadcasts convert at the sender
        result = mp_cholesky(mat, kmap, comm_map=cmap)      # Algorithm 1
        L = result.factor.lower_dense()
        rel = np.linalg.norm(L @ L.T - dense) / np.linalg.norm(dense)
        assert rel < 1e-2
        rhs = np.ones(160)
        x = solve_with_factor(result.factor, rhs)
        assert np.linalg.norm(dense @ x - rhs) / np.linalg.norm(rhs) < 1e-2
        assert np.isfinite(logdet_from_factor(result.factor))

    def test_runtime_path_computes_the_same_factor(self, tiled_96):
        kmap = build_precision_map(tile_norms(tiled_96), 1e-6)
        cmap = build_comm_precision_map(kmap)
        dag = build_cholesky_dag(tiled_96.n, tiled_96.nb, kmap, comm_map=cmap)
        factor = execute_numeric(dag.graph, tiled_96)
        report = simulate(dag.graph, Platform.single_gpu(V100), tiled_96.nb)
        assert report.makespan > 0
        seq = mp_cholesky(tiled_96, kmap, comm_map=cmap)
        assert np.array_equal(factor.lower_dense(), seq.factor.lower_dense())


class TestAnalyticModel:
    def test_agrees_with_simulator_single_gpu(self):
        nb = 2048
        plat = Platform.single_gpu(V100)
        for prec in (Precision.FP64, Precision.FP16):
            nt = 16
            kmap = (uniform_map(nt, prec) if prec == Precision.FP64
                    else two_precision_map(nt, prec))
            sim = simulate_cholesky(nt * nb, nb, kmap, plat, record_events=False)
            ana = analytic_cholesky(nt * nb, nb, kmap, plat)
            assert ana.seconds == pytest.approx(sim.makespan, rel=0.25)

    def test_weak_scaling_monotone_throughput(self):
        nb = 2048
        rows = []
        for nodes in (1, 4, 16):
            nt = int(14 * (nodes * 6) ** 0.5)
            plat = Platform(node=SUMMIT_NODE, n_nodes=nodes)
            rep = analytic_cholesky(nt * nb, nb, two_precision_map(nt, Precision.FP16), plat)
            rows.append(rep.tflops)
        assert rows[0] < rows[1] < rows[2]

    def test_strong_scaling_time_drops(self):
        nb = 2048
        nt = 96
        times = []
        for nodes in (2, 8, 32):
            plat = Platform(node=SUMMIT_NODE, n_nodes=nodes)
            rep = analytic_cholesky(nt * nb, nb, uniform_map(nt, Precision.FP64), plat)
            times.append(rep.seconds)
        assert times[0] > times[1] > times[2]

    def test_mp_faster_than_fp64_at_scale(self):
        nb = 2048
        nt = 64
        plat = Platform(node=SUMMIT_NODE, n_nodes=8)
        t64 = analytic_cholesky(nt * nb, nb, uniform_map(nt, Precision.FP64), plat).seconds
        t16 = analytic_cholesky(nt * nb, nb, two_precision_map(nt, Precision.FP16), plat).seconds
        assert t16 < t64

    def test_size_validation(self):
        with pytest.raises(ValueError):
            analytic_cholesky(100, 16, uniform_map(5, Precision.FP64),
                              Platform.single_gpu(V100))

    def test_report_fields(self):
        plat = Platform(node=SUMMIT_NODE, n_nodes=2)
        rep = analytic_cholesky(16 * 2048, 2048, uniform_map(16, Precision.FP64), plat)
        assert rep.nic_bytes > 0
        assert rep.h2d_bytes > 0
        assert rep.seconds >= rep.latency_seconds
        # POTRF nb³/3 ×16, TRSM+SYRK nb³ each ×120, GEMM 2nb³ ×560
        assert rep.total_flops == pytest.approx(
            16 * 2048**3 / 3 + 120 * 2 * 2048**3 + 560 * 2 * 2048**3, rel=0.01
        )
