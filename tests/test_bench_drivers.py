"""Unit tests for the benchmark harness drivers and reporting."""

import os

import numpy as np
import pytest

from repro.bench.apps import APPLICATIONS, app_kernel_map, get_app
from repro.bench.figures_micro import (
    example_precision_maps,
    fig1_performance_rows,
    fig3_dag_summary,
    table1_rows,
    table2_rows,
)
from repro.bench.reporting import ascii_series, format_table, write_csv
from repro.precision import Precision


class TestReporting:
    def test_format_table_aligns(self):
        out = format_table(["a", "bbbb"], [[1, 2.5], [300, 0.001]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1  # uniform width

    def test_float_formatting(self):
        out = format_table(["x"], [[1.23456789e-7], [0.0], [123456.0]])
        assert "1.235e-07" in out and "1.235e+05" in out

    def test_write_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = write_csv("unit", ["a", "b"], [[1, 2], [3, 4]])
        assert os.path.exists(path)
        content = open(path).read()
        assert "a,b" in content and "3,4" in content

    def test_ascii_series(self):
        out = ascii_series([0, 1, 2, 3], [0.0, 1.0, 0.5, 1.0], label="demo")
        assert "demo" in out and "*" in out

    def test_ascii_series_empty(self):
        assert "empty" in ascii_series([], [])


class TestMicroDrivers:
    def test_table1_shape(self):
        rows = table1_rows()
        assert len(rows) == 5 and all(len(r) == 4 for r in rows)

    def test_table2_shape(self):
        rows = table2_rows((2048, 4096))
        assert len(rows) == 6 and all(len(r) == 3 for r in rows)

    def test_fig1_perf_monotone_generations(self):
        rows = fig1_performance_rows(gpus=("V100", "H100"), sizes=(2048,))
        v100 = next(r for r in rows if r[0] == "V100")
        h100 = next(r for r in rows if r[0] == "H100")
        assert all(h >= v for v, h in zip(v100[2:], h100[2:]))

    def test_example_maps_have_four_formats(self):
        maps = example_precision_maps()
        assert len(maps.kernel_map.tile_fractions()) >= 4

    def test_fig3_summary_counts(self):
        s = fig3_dag_summary(5)
        assert s["counts"]["POTRF"] == 5
        assert s["n_tasks"] == 5 + 10 + 10 + 10


class TestApplications:
    def test_registry(self):
        assert set(APPLICATIONS) == {"2d-sqexp", "2d-matern", "3d-sqexp"}
        assert get_app("2D-SQEXP").label == "2D-sqexp"
        with pytest.raises(ValueError):
            get_app("4d-thing")

    def test_accuracies_match_paper(self):
        assert APPLICATIONS["2d-sqexp"].accuracy == 1e-4
        assert APPLICATIONS["2d-matern"].accuracy == 1e-9
        assert APPLICATIONS["3d-sqexp"].accuracy == 1e-8

    def test_app_kernel_map_small(self):
        kmap = app_kernel_map("2d-matern", 4096, 512, samples_per_tile=16)
        assert kmap.nt == 8
        assert kmap.kernel(0, 0) == Precision.FP64
        assert sum(kmap.tile_fractions().values()) == pytest.approx(1.0)

    def test_app_maps_deterministic(self):
        a = app_kernel_map("2d-sqexp", 4096, 512, samples_per_tile=16, seed=3)
        b = app_kernel_map("2d-sqexp", 4096, 512, samples_per_tile=16, seed=3)
        assert np.array_equal(a.codes, b.codes)

    def test_3d_more_conservative_than_2d(self):
        sq2 = app_kernel_map("2d-sqexp", 16384, 1024, samples_per_tile=24)
        sq3 = app_kernel_map("3d-sqexp", 16384, 1024, samples_per_tile=24)
        f2 = sq2.tile_fractions()
        f3 = sq3.tile_fractions()
        high2 = f2.get(Precision.FP64, 0) + f2.get(Precision.FP32, 0)
        high3 = f3.get(Precision.FP64, 0) + f3.get(Precision.FP32, 0)
        assert high3 > high2
