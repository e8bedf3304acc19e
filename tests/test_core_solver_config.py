"""Unit tests for MPConfig, the solver facade, and the analytic model."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import ConversionStrategy, MPConfig
from repro.core.precision_map import two_precision_map, uniform_map
from repro.core.solver import MPCholeskySolver, simulate_cholesky
from repro.perfmodel.analytic import analytic_cholesky
from repro.perfmodel.gpus import SUMMIT_NODE, V100
from repro.precision import ADAPTIVE_FORMATS, Precision
from repro.runtime.platform import Platform


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

    def test_with_accuracy(self):
        cfg = MPConfig(accuracy=1e-4, tile_size=128)
        cfg2 = cfg.with_accuracy(1e-8)
        assert cfg2.accuracy == 1e-8 and cfg2.tile_size == 128
        # every other field rides along, and the new value is validated
        stc = MPConfig(strategy=ConversionStrategy.STC, formats=(Precision.FP64, Precision.FP16))
        assert stc.with_accuracy(1e-3) == MPConfig(
            accuracy=1e-3, strategy=ConversionStrategy.STC, formats=(Precision.FP64, Precision.FP16))
        with pytest.raises(ValueError):
            cfg.with_accuracy(0.0)

    def test_no_dead_knobs(self):
        """Every field reaches the factorization; ``fp16_chunk`` never did."""
        assert {f.name for f in dataclasses.fields(MPConfig)} == {
            "accuracy", "formats", "strategy", "tile_size"}

    def test_fp64_only(self):
        cfg = MPConfig.fp64_only()
        assert cfg.formats == (Precision.FP64,)

    def test_two_precision(self):
        cfg = MPConfig.two_precision(Precision.FP16)
        assert Precision.FP16 in cfg.formats and Precision.FP64 in cfg.formats


class TestSolver:
    def test_plan_and_factorize(self, matern_cov_160):
        dense = matern_cov_160.to_dense() + 0.01 * np.eye(160)
        from repro.tiles.tilematrix import TiledSymmetricMatrix

        mat = TiledSymmetricMatrix.from_dense(dense, 20)
        solver = MPCholeskySolver(MPConfig(accuracy=1e-4, tile_size=20))
        plan = solver.plan(mat)
        assert "STC" in plan.summary()
        result = solver.factorize(mat, plan)
        l = result.factor.lower_dense()
        rel = np.linalg.norm(l @ l.T - dense) / np.linalg.norm(dense)
        assert rel < 1e-2
        # logdet/solve helpers
        rhs = np.ones(160)
        x = MPCholeskySolver.solve(result, rhs)
        assert np.linalg.norm(dense @ x - rhs) / np.linalg.norm(rhs) < 1e-2
        assert np.isfinite(MPCholeskySolver.logdet(result))

    def test_factorize_via_runtime(self, tiled_96):
        solver = MPCholeskySolver(MPConfig(accuracy=1e-6, tile_size=16))
        factor, report = solver.factorize_via_runtime(tiled_96)
        assert report.makespan > 0
        # runtime path computes the same factor as the sequential path
        seq = solver.factorize(tiled_96)
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
