"""Tests for trace export (Perfetto) and the threaded executor."""

import json

import numpy as np
import pytest

from repro.core import build_cholesky_dag, build_precision_map, two_precision_map
from repro.core.solver import simulate_cholesky
from repro.obs import write_perfetto_trace
from repro.obs.analysis import utilization_timeline
from repro.perfmodel import V100
from repro.precision import Precision
from repro.runtime import Platform, execute_numeric
from repro.runtime.parallel_executor import execute_numeric_parallel
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix
from tests.conftest import lower_dense


@pytest.fixture(scope="module")
def sim_report():
    kmap = two_precision_map(6, Precision.FP16)
    platform = Platform.single_gpu(V100)
    return simulate_cholesky(6 * 512, 512, kmap, platform, record_events=True)


class TestGantt:
    def test_chrome_trace_valid_json(self, sim_report, tmp_path):
        path = write_perfetto_trace(sim_report.trace.events, tmp_path / "t.json")
        payload = json.loads(path.read_text())
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
        assert np.array_equal(lower_dense(par), lower_dense(seq))

    def test_many_threads_fast_switching(self, rng):
        """More threads than cores and a tiny switch interval: a lost
        update to the pool's ready heap or dependency counts would stall
        the run or change the factor."""
        import sys
        import threading

        mat = self._mat(rng)
        kmap = build_precision_map(tile_norms(mat), 1e-4)
        dag = build_cholesky_dag(96, 16, kmap)
        seq = execute_numeric(dag.graph, mat)
        out = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: out.append(execute_numeric_parallel(dag.graph, mat, n_threads=16)),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not runner.is_alive() and len(out) == 1
        assert np.array_equal(lower_dense(out[0]), lower_dense(seq))

    def test_fp64_correct(self, rng):
        mat = self._mat(rng)
        from repro.core import uniform_map

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        out = execute_numeric_parallel(dag.graph, mat, n_threads=3)
        L = lower_dense(out)
        assert np.allclose(L @ L.T, mat.to_dense())

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
