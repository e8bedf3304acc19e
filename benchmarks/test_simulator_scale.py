"""Simulator scale benchmarks: throughput floor + streaming memory wins.

The streaming unroll (``simulate_cholesky(..., stream=True)``) exists so
million-task DAGs can be priced without materialising the O(NT³) task
list.  This harness pins the acceptance criteria:

* scheduling throughput must clear a conservative tasks/sec floor in
  both modes (the trajectory lives in ``perfbench/``; this is the hard
  backstop);
* at NT=96 the streaming mode's peak RSS — measured in a *separate
  subprocess per mode*, since ``ru_maxrss`` is monotonic over a process
  lifetime — must come in below the materialising mode's;
* (``slow``) a ~1.2-million-task streamed run completes with a live-task
  window orders of magnitude below the DAG size.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.core import (
    cholesky_task_count,
    simulate_cholesky,
    two_precision_map,
)
from repro.perfmodel import GPU_BY_NAME
from repro.precision import Precision
from repro.runtime import Platform

#: conservative: local runs sustain ~20k tasks/s, shared CI is slower
TASKS_PER_SECOND_FLOOR = 2_000.0


def _platform(n_gpus: int = 2, n_nodes: int = 2) -> Platform:
    return Platform.of_gpus(GPU_BY_NAME["V100"], n_gpus, n_nodes)


def _throughput(nt: int, *, stream: bool) -> float:
    nb = 512
    kmap = two_precision_map(nt, Precision.FP16)
    t0 = time.perf_counter()
    rep = simulate_cholesky(
        nt * nb, nb, kmap, _platform(), record_events=False, stream=stream
    )
    wall = time.perf_counter() - t0
    assert rep.stats.n_tasks == cholesky_task_count(nt)
    return rep.stats.n_tasks / wall


class TestThroughputFloor:
    @pytest.mark.parametrize("stream", [False, True], ids=["materialize", "stream"])
    def test_tasks_per_second_floor(self, stream):
        best = max(_throughput(48, stream=stream) for _ in range(2))
        assert best >= TASKS_PER_SECOND_FLOOR, (
            f"{'stream' if stream else 'materialize'} mode scheduled only "
            f"{best:,.0f} tasks/s (floor {TASKS_PER_SECOND_FLOOR:,.0f})"
        )


def _simulate_subprocess(mode: str, tmp_path, nt: int = 96) -> dict:
    out = tmp_path / f"BENCH_simulate-{mode}.json"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro", "simulate",
         "--n", str(nt * 512), "--nb", "512", "--gpus", "2", "--nodes", "2",
         *(["--stream"] if mode == "stream" else []),
         "--metrics-out", str(out)],
        check=True, env=env, timeout=600,
    )
    return json.loads(out.read_text(encoding="utf-8"))["stats"]


class TestStreamingMemory:
    def test_stream_rss_below_materialize(self, tmp_path):
        """One subprocess per mode; streaming must win on peak RSS and
        live-task count while producing the identical schedule."""
        mat = _simulate_subprocess("materialize", tmp_path)
        stm = _simulate_subprocess("stream", tmp_path)
        assert stm["makespan_seconds"] == mat["makespan_seconds"]
        assert stm["n_tasks"] == mat["n_tasks"] == cholesky_task_count(96)
        assert stm["peak_live_tasks"] < mat["peak_live_tasks"]
        assert stm["peak_rss_bytes"] < mat["peak_rss_bytes"], (
            f"streaming RSS {stm['peak_rss_bytes'] / 1e6:.0f} MB not below "
            f"materializing {mat['peak_rss_bytes'] / 1e6:.0f} MB"
        )


@pytest.mark.slow
class TestMillionTaskScale:
    def test_streamed_million_task_run(self):
        """NT=192 → ~1.2M tasks: must complete streamed with the live
        window a small fraction of the DAG."""
        nt, nb = 192, 512
        n_tasks = cholesky_task_count(nt)
        assert n_tasks > 1_000_000
        kmap = two_precision_map(nt, Precision.FP16)
        rep = simulate_cholesky(
            nt * nb, nb, kmap, _platform(), record_events=False, stream=True
        )
        assert rep.stats.n_tasks == n_tasks
        assert rep.peak_live_tasks < n_tasks // 10
