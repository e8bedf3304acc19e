"""Tests for trace export (Gantt/Chrome) and the threaded executor."""

import json

import numpy as np
import pytest

from repro.core import build_cholesky_dag, build_precision_map, two_precision_map
from repro.core.solver import simulate_cholesky
from repro.obs.analysis import utilization_timeline
from repro.perfmodel import V100
from repro.precision import Precision
from repro.runtime import Platform, execute_numeric
from repro.runtime.gantt import ascii_gantt, to_chrome_trace
from repro.runtime.parallel_executor import execute_numeric_parallel
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix


@pytest.fixture(scope="module")
def sim_report():
    kmap = two_precision_map(6, Precision.FP16)
    platform = Platform.single_gpu(V100)
    return simulate_cholesky(6 * 512, 512, kmap, platform, record_events=True)


class TestGantt:
    def test_ascii_gantt_structure(self, sim_report):
        out = ascii_gantt(sim_report.trace.events, sim_report.makespan, width=60)
        lines = out.splitlines()
        assert any("compute" in l for l in lines)
        assert any("h2d" in l for l in lines)
        assert "G" in out  # GEMMs visible
        assert "legend" not in out.lower() or True

    def test_empty_trace(self):
        assert "empty" in ascii_gantt([])

    def test_chrome_trace_valid_json(self, sim_report):
        payload = json.loads(to_chrome_trace(sim_report.trace.events))
        events = payload["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(sim_report.trace.events)
        sample = slices[0]
        assert set(sample) >= {"name", "ph", "ts", "dur", "pid", "tid"}
        assert all(e["dur"] >= 0 for e in slices)
        # slices are sorted by timestamp for stable output
        assert [e["ts"] for e in slices] == sorted(e["ts"] for e in slices)
        # process/thread naming metadata for Perfetto row labels
        meta = {(e["name"], e.get("pid"), e.get("tid")) for e in events if e["ph"] == "M"}
        assert ("process_name", 0, None) in meta
        assert any(name == "thread_name" for name, _pid, _tid in meta)

    def test_utilisation(self, sim_report):
        util = utilization_timeline(sim_report.trace.events,
                                    makespan=sim_report.makespan, n_buckets=1)
        assert 0.5 < util["compute"][0] <= 1.0  # one GPU: rank 0's compute engine
        assert all(0.0 <= v <= 1.0 for (v,) in util.values())


class TestParallelExecutor:
    def _mat(self, rng, n=96, nb=16):
        a = rng.standard_normal((n, n))
        return TiledSymmetricMatrix.from_dense(a @ a.T + n * np.eye(n), nb)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_matches_sequential(self, rng, threads):
        mat = self._mat(rng)
        kmap = build_precision_map(tile_norms(mat), 1e-4)
        dag = build_cholesky_dag(96, 16, kmap)
        seq = execute_numeric(dag.graph, mat)
        par = execute_numeric_parallel(dag.graph, mat, n_threads=threads)
        assert np.array_equal(par.lower_dense(), seq.lower_dense())

    def test_fp64_correct(self, rng):
        mat = self._mat(rng)
        from repro.core import uniform_map

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        out = execute_numeric_parallel(dag.graph, mat, n_threads=3)
        l = out.lower_dense()
        assert np.allclose(l @ l.T, mat.to_dense())

    def test_error_propagates(self, rng):
        mat = self._mat(rng)
        from repro.core import uniform_map

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        dag.graph.tasks[3].kind = "BROKEN"
        with pytest.raises(ValueError, match="unknown task kind"):
            execute_numeric_parallel(dag.graph, mat, n_threads=2)

    def test_invalid_threads(self, rng):
        mat = self._mat(rng)
        from repro.core import uniform_map

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        with pytest.raises(ValueError):
            execute_numeric_parallel(dag.graph, mat, n_threads=0)

    def test_input_unmodified(self, rng):
        mat = self._mat(rng)
        before = mat.to_dense()
        from repro.core import uniform_map

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        execute_numeric_parallel(dag.graph, mat, n_threads=4)
        assert np.array_equal(mat.to_dense(), before)
