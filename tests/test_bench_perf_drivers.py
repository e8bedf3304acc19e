"""Fast unit tests for the performance-figure drivers (small workloads).

The benchmark files exercise these drivers at figure scale; these tests
pin their contracts at toy scale so regressions surface in seconds.
Figs. 8, 10 and 11 and the tile-size and scheduler ablations are sweep
points: their specs run through ``run_sweep`` on a ``tmp_path`` cache.
"""

from dataclasses import replace

import pytest

from repro.bench.figures_perf import (
    FIG8_SERIES,
    MACHINES,
    SCHEDULER_SPECS,
    TILE_SIZE_SPECS,
    default_sizes,
    fig10_rows,
    fig10_specs,
    fig12_strong_rows,
    fig12_weak_rows,
    scheduler_rows,
    strategy_rows,
    strategy_specs,
    tile_size_rows,
)
from repro.bench.apps import APPLICATIONS, app_kernel_map
from repro.core import ConversionStrategy, fixed_config_map, simulate_cholesky
from repro.perfmodel import GPU_BY_NAME, GUYOT_NODE, SUMMIT_NODE
from repro.precision import Precision
from repro.runtime import Platform
from repro.sweep import run_sweep


def _sweep(specs, tmp_path):
    return run_sweep(specs, cache_dir=tmp_path / "cache", progress_seconds=None)


class TestHelpers:
    def test_fig8_configs_cover_strategies(self):
        labels = [config for config, _ in FIG8_SERIES]
        assert labels.count("FP64/FP16") == 2  # STC + TTC
        assert "FP64" in labels and "FP32" in labels
        assert {strategy for _, strategy in FIG8_SERIES} == {"auto", "ttc"}

    def test_extreme_maps(self):
        m = fixed_config_map(4, "FP64/FP16")
        assert m.kernel(0, 0) == Precision.FP64
        assert m.kernel(2, 0) == Precision.FP16
        m32 = fixed_config_map(4, "FP32")
        assert m32.kernel(2, 0) == Precision.FP32

    def test_default_sizes_respect_memory(self):
        assert max(default_sizes("V100")) <= 61440  # 16 GB FP64 ceiling zone
        assert max(default_sizes("H100")) > 61440

    def test_machines_are_the_named_nodes(self):
        assert MACHINES["V100"] == {"gpu": "V100"}
        assert MACHINES["summit"] == {"gpu": "V100", "gpus_per_node": 6,
                                      "host_memory_gb": 256.0}
        # Guyot's 2 TB host survives the GB round trip bit for bit
        assert MACHINES["guyot"]["host_memory_gb"] * 1e9 == GUYOT_NODE.host_memory_bytes

    def test_strategy_specs_order(self):
        specs = strategy_specs("guyot", (4096, 8192))
        assert [(s.n, s.config, s.strategy) for s in specs] == [
            (n, c, st) for n in (4096, 8192) for c, st in FIG8_SERIES]
        assert {(s.gpu, s.gpus_per_node, s.host_memory_gb) for s in specs} == {
            ("A100", 8, 2063.0)}

    def test_fig10_fp64_point_is_fig8s(self):
        """One bench session prices Fig. 10's FP64 point once: it is
        Fig. 8's FP64 point, so its cache key is the same."""
        specs = fig10_specs("H100", 73728)
        assert [(s.config, s.app) for s in specs[1:]] == [
            ("adaptive", app) for app in ("2d-sqexp", "2d-matern", "3d-sqexp")]
        assert {(s.gpu, s.n, s.ordering, s.seed) for s in specs} == {("H100", 73728, "morton", 0)}
        assert specs[0].cache_key() in {s.cache_key() for s in strategy_specs("H100", (73728,))}


class TestSmallRuns:
    def test_fig8_rows_small(self, tmp_path):
        rows = strategy_rows(_sweep(strategy_specs("V100", (8192,)), tmp_path))
        assert len(rows) == 6
        assert [(r[0], r[3]) for r in rows] == [
            (c, "STC" if st == "auto" else "TTC") for c, st in FIG8_SERIES]
        assert {r[1] for r in rows} == {"V100"}
        by = {(r[0], r[3]): r for r in rows}
        assert by[("FP64/FP16", "STC")][4] >= by[("FP64/FP16", "TTC")][4]

    @pytest.mark.parametrize("machine,platform", [
        ("V100", Platform.single_gpu(GPU_BY_NAME["V100"])),
        ("summit", Platform(node=SUMMIT_NODE, n_nodes=1)),
        ("guyot", Platform(node=GUYOT_NODE, n_nodes=1)),
    ])
    def test_strategy_rows_equal_direct_pricing(self, tmp_path, machine, platform):
        """A sweep point prices what ``simulate_cholesky`` prices on the
        named node: Tflop/s, seconds, H2D GB and conversions bit for bit."""
        n, nb = 8192, 2048
        rows = strategy_rows(_sweep(strategy_specs(machine, (n,)), tmp_path))
        for row, (config, strategy) in zip(rows, FIG8_SERIES):
            rep = simulate_cholesky(n, nb, fixed_config_map(n // nb, config), platform,
                                    strategy=ConversionStrategy(strategy),
                                    record_events=False)
            assert row[4:] == [rep.stats.tflops, rep.makespan,
                               rep.stats.link_bytes("h2d") / 1e9, rep.stats.n_conversions]
        gpus = platform.node.gpus_per_node
        assert rows[0][1] == (machine if gpus == 1 else f"{platform.gpu.name}x{gpus}")

    def test_fig10_rows_equal_direct_pricing(self, tmp_path):
        """A Fig. 10 point prices what ``simulate_cholesky`` prices on the
        application's sampled map, with no trace: seconds, kJ, Gflops/W
        and average watts bit for bit."""
        n, nb = 8192, 2048
        platform = Platform.single_gpu(GPU_BY_NAME["V100"])
        rows = fig10_rows(_sweep(fig10_specs("V100", n), tmp_path))
        assert [r[0] for r in rows] == ["FP64", "2D-sqexp", "2D-Matern", "3D-sqexp"]
        maps = [fixed_config_map(n // nb, "FP64")] + [
            app_kernel_map(APPLICATIONS[app], n, nb, samples_per_tile=32)
            for app in ("2d-sqexp", "2d-matern", "3d-sqexp")]
        for row, kmap in zip(rows, maps):
            rep = simulate_cholesky(n, nb, kmap, platform, record_events=False)
            assert row[1:] == [rep.makespan, rep.joules / 1e3, rep.gflops_per_watt,
                               rep.joules / rep.makespan]

    def test_a_failed_point_raises(self, tmp_path):
        result = _sweep(strategy_specs("V100", (8192,)), tmp_path)
        result.runs[0].result.clear()
        result.runs[0].result.update(failed=True, error="boom")
        with pytest.raises(RuntimeError, match="boom"):
            strategy_rows(result)

    def test_tile_size_small(self, tmp_path):
        assert [(s.n, s.nb) for s in TILE_SIZE_SPECS] == [
            (49152, 512), (49152, 1024), (49152, 2048), (49152, 4096)]
        small = [replace(s, n=4096) for s in TILE_SIZE_SPECS[:2]]
        rows = tile_size_rows(_sweep(small, tmp_path))
        assert [r[:2] for r in rows] == [[512, 8], [1024, 4]]
        assert all(r[2] > 0 and r[3] > 0 for r in rows)

    def test_fig12_weak_small(self):
        rows = fig12_weak_rows((1, 2), base_nt_per_gpu=6.0)
        assert len(rows) == 4
        assert all(r[4] > 0 for r in rows)

    def test_fig12_strong_small(self):
        rows = fig12_strong_rows((2, 4), n=131072)
        fp64 = [r for r in rows if r[2] == "FP64"]
        assert fp64[0][3] > fp64[1][3]  # time drops with nodes

    def test_ablation_scheduler_small(self, tmp_path):
        assert {(s.n, s.gpus_per_node) for s in SCHEDULER_SPECS} == {(32768, 6)}
        rows = scheduler_rows(_sweep([replace(s, n=8192) for s in SCHEDULER_SPECS], tmp_path))
        assert [r[0] for r in rows] == ["panel-priority", "fifo"]
        assert all(r[1] > 0 for r in rows)
        assert rows[0][1:] == rows[1][1:]  # same commit order, see SCHEDULER_SPECS
