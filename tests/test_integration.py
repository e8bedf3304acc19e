"""End-to-end integration tests across subsystems.

These exercise the full pipelines a user runs: synthetic data → precision
planning → mixed-precision factorization → likelihood/MLE/kriging, and
the DAG → simulator → energy/occupancy chain, checking cross-module
consistency rather than unit behaviour.
"""

import math

import numpy as np
import pytest

from repro import MPConfig
from repro.core import (
    ConversionStrategy,
    build_cholesky_dag,
    build_comm_precision_map,
    build_precision_map,
    mp_cholesky,
    simulate_cholesky,
    two_precision_map,
)
from repro.geostats import (
    SyntheticField,
    build_tiled_covariance,
    fit_mle,
    krige,
    log_likelihood,
)
from repro.obs.analysis import utilization_timeline
from repro.perfmodel import V100
from repro.perfmodel.analytic import analytic_cholesky
from repro.precision import Precision
from repro.runtime import Platform, execute_numeric, simulate
from repro.tiles import tile_norms
from tests.conftest import lower_dense


class TestFullMLEPipeline:
    def test_mle_then_krige(self):
        field = SyntheticField.matern_2d(n=169, range_=0.12, smoothness=0.5, seed=21)
        ds = field.sample()
        fit = fit_mle(ds, accuracy=1e-9, tile_size=22, max_evals=200, xtol=1e-6)
        assert math.isfinite(fit.loglik)
        grid = np.array([[0.5, 0.5], [0.1, 0.9]])
        pred = krige(ds, grid, fit.theta_hat, config=MPConfig(accuracy=1e-9, tile_size=22))
        assert np.all(np.isfinite(pred.mean))
        assert np.all(pred.variance <= fit.theta_hat[0] + 1e-9)

    def test_accuracy_ladder_consistency(self):
        """The likelihood value ladder matches the factorization error ladder."""
        field = SyntheticField.matern_2d(n=144, range_=0.08, smoothness=0.5, seed=2)
        ds = field.sample()
        theta = field.theta
        exact = log_likelihood(ds, theta, MPConfig(accuracy=1e-15,
                                                   formats=(Precision.FP64,),
                                                   tile_size=18)).value
        prev_dev = -1.0
        for acc in (1e-9, 1e-4):
            val = log_likelihood(ds, theta, MPConfig(accuracy=acc, tile_size=18)).value
            dev = abs(val - exact)
            assert dev >= prev_dev * 0.5  # looser accuracy: no magical improvement
            prev_dev = dev


class TestNumericVsSimulated:
    def test_same_dag_feeds_both_paths(self, tiled_96):
        """One DAG: numeric execution for values, simulation for cost."""
        kmap = build_precision_map(tile_norms(tiled_96), 1e-6)
        dag = build_cholesky_dag(96, 16, kmap)
        factor = execute_numeric(dag.graph, tiled_96)
        platform = Platform.single_gpu(V100)
        report = simulate(dag.graph, platform, 16)
        # numeric result valid
        L = lower_dense(factor)
        rel = np.linalg.norm(L @ L.T - tiled_96.to_dense()) / np.linalg.norm(
            tiled_96.to_dense()
        )
        assert rel < 1e-4
        # simulated cost covers every task
        assert report.stats.n_tasks == len(dag.graph)

    def test_config_drives_both_paths_alike(self, tiled_96):
        """An ``MPConfig``'s accuracy, formats and strategy give the
        sequential and the task-graph factorization the same factor."""
        cfg = MPConfig(accuracy=1e-6, tile_size=16)
        kmap = build_precision_map(tile_norms(tiled_96), cfg.accuracy, cfg.formats)
        cmap = build_comm_precision_map(kmap)
        dag = build_cholesky_dag(tiled_96.n, cfg.tile_size, kmap,
                                 strategy=cfg.strategy, comm_map=cmap)
        factor = execute_numeric(dag.graph, tiled_96)
        seq = mp_cholesky(tiled_96, kmap, strategy=cfg.strategy, comm_map=cmap)
        assert np.array_equal(lower_dense(factor), lower_dense(seq.factor))
        assert simulate(dag.graph, Platform.single_gpu(V100), cfg.tile_size).makespan > 0


class TestTraceConsumers:
    def test_energy_and_occupancy_from_one_run(self):
        nt, nb = 10, 1024
        platform = Platform.single_gpu(V100)
        kmap = two_precision_map(nt, Precision.FP16)
        rep = simulate_cholesky(nt * nb, nb, kmap, platform)
        events = rep.trace.events_of_rank(0)
        assert rep.joules > V100.idle_power * rep.makespan
        assert rep.gflops_per_watt > 0
        occ = utilization_timeline(events, makespan=rep.makespan, n_buckets=20)
        assert 0.0 < np.mean(occ["compute"]) <= 1.0

    def test_energy_ordering_fp64_vs_mp(self):
        nt, nb = 12, 2048
        platform = Platform.single_gpu(V100)
        out = {}
        for name, prec in (("fp64", Precision.FP64), ("mp", Precision.FP16)):
            from repro.core import uniform_map

            kmap = uniform_map(nt, prec) if prec == Precision.FP64 else two_precision_map(
                nt, prec
            )
            out[name] = simulate_cholesky(nt * nb, nb, kmap, platform, record_events=False)
        assert out["mp"].joules < out["fp64"].joules
        assert out["mp"].gflops_per_watt > out["fp64"].gflops_per_watt


class TestAnalyticVsEventSim:
    @pytest.mark.parametrize("prec", [Precision.FP64, Precision.FP16])
    def test_single_gpu_agreement(self, prec):
        from repro.core import uniform_map

        nb, nt = 2048, 12
        plat = Platform.single_gpu(V100)
        kmap = uniform_map(nt, prec) if prec == Precision.FP64 else two_precision_map(nt, prec)
        sim = simulate_cholesky(nt * nb, nb, kmap, plat, record_events=False)
        ana = analytic_cholesky(nt * nb, nb, kmap, plat)
        assert ana.seconds == pytest.approx(sim.makespan, rel=0.3)


class TestGeostatsToPerfBridge:
    def test_covariance_driven_simulation(self):
        """A covariance built by geostats drives the performance stack."""
        field = SyntheticField.matern_2d(n=128, range_=0.1, smoothness=0.5, seed=5)
        cov = build_tiled_covariance(field.locations, field.model, field.theta, 16)
        kmap = build_precision_map(tile_norms(cov), 1e-4)
        cmap = build_comm_precision_map(kmap)
        platform = Platform.single_gpu(V100)
        for strategy in (ConversionStrategy.AUTO, ConversionStrategy.TTC):
            rep = simulate_cholesky(128, 16, kmap, platform, strategy=strategy)
            assert rep.makespan > 0
        assert 0.0 <= cmap.stc_fraction() <= 1.0
