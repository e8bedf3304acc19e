"""Fast unit tests for the performance-figure drivers (small workloads).

The benchmark files exercise these drivers at figure scale; these tests
pin their contracts at toy scale so regressions surface in seconds.
"""

import pytest

from repro.bench.figures_perf import (
    PerfPoint,
    ablation_scheduler_rows,
    default_sizes,
    fig8_configs,
    fig8_rows,
    fig12_strong_rows,
    fig12_weak_rows,
)
from repro.core import fixed_config_map
from repro.precision import Precision


class TestHelpers:
    def test_fig8_configs_cover_strategies(self):
        cfgs = fig8_configs()
        labels = [c[0] for c in cfgs]
        assert labels.count("FP64/FP16") == 2  # STC + TTC
        assert "FP64" in labels and "FP32" in labels

    def test_extreme_maps(self):
        m = fixed_config_map(4, "FP64/FP16")
        assert m.kernel(0, 0) == Precision.FP64
        assert m.kernel(2, 0) == Precision.FP16
        m32 = fixed_config_map(4, "FP32")
        assert m32.kernel(2, 0) == Precision.FP32

    def test_default_sizes_respect_memory(self):
        assert max(default_sizes("V100")) <= 61440  # 16 GB FP64 ceiling zone
        assert max(default_sizes("H100")) > 61440

    def test_perfpoint_row(self):
        p = PerfPoint("FP64", "V100", 1024, "STC", 1.0, 2.0, 3.0, 4)
        assert p.row() == ["FP64", "V100", 1024, "STC", 1.0, 2.0, 3.0, 4]


class TestSmallRuns:
    def test_fig8_rows_small(self):
        points = fig8_rows("V100", (8192,), nb=2048)
        assert len(points) == 6
        by = {(p.label, p.strategy): p for p in points}
        assert by[("FP64/FP16", "STC")].tflops >= by[("FP64/FP16", "TTC")].tflops

    def test_fig12_weak_small(self):
        rows = fig12_weak_rows((1, 2), base_nt_per_gpu=6.0)
        assert len(rows) == 4
        assert all(r[4] > 0 for r in rows)

    def test_fig12_strong_small(self):
        rows = fig12_strong_rows((2, 4), n=131072)
        fp64 = [r for r in rows if r[2] == "FP64"]
        assert fp64[0][3] > fp64[1][3]  # time drops with nodes

    def test_ablation_scheduler_small(self):
        rows = ablation_scheduler_rows(n=8192)
        assert {r[0] for r in rows} == {"panel-priority", "fifo"}
        assert all(r[1] > 0 for r in rows)
