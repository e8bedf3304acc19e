"""Simulator scale benchmarks: throughput floor + streaming memory wins.

The streaming unroll (``simulate_cholesky(..., stream=True)``) exists so
million-task DAGs can be priced without materialising the O(NT³) task
list.  This harness pins the acceptance criteria:

* scheduling throughput must clear a conservative tasks/sec floor in
  both modes, in memory and out of core (the trajectory lives in
  ``perfbench/``; this is the hard backstop);
* at NT=96 the streaming mode's peak RSS — measured in a *separate
  subprocess per mode*, since ``ru_maxrss`` is monotonic over a process
  lifetime — must come in below the materialising mode's;
* (``slow``) a ~1.2-million-task streamed run completes with a live-task
  window orders of magnitude below the DAG size.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

from repro.core import (
    cholesky_task_count,
    default_stream_lookahead,
    simulate_cholesky,
    two_precision_map,
)
from repro.perfmodel import GPU_BY_NAME, NodeSpec
from repro.precision import Precision
from repro.runtime import Platform

#: well under the measured rate: NT=48 sustains 65–80k tasks/s
#: materialized and ~65k streamed on a 2-core Xeon, and 77–106k on a 2-core
#: host with int payload keys; shared CI is slower
TASKS_PER_SECOND_FLOOR = 15_000.0
#: the out-of-core case (every GPU and host tier evicts, ~20k spills), with
#: int payload keys: 48–61k tasks/s materialized and 52–60k streamed (best of
#: three) on a 2-core host that runs the in-memory case at 77–106k and the
#: tuple-keyed engine's out of core at 50–54k; half of that, scaled to a
#: host 1.3× slower like the Xeon above
OOC_TASKS_PER_SECOND_FLOOR = 20_000.0


def _platform(n_gpus: int = 2, n_nodes: int = 2) -> Platform:
    return Platform.of_gpus(GPU_BY_NAME["V100"], n_gpus, n_nodes)


def _ooc_platform(nb: int = 512) -> Platform:
    """2 × 2 V100s cut to 20 tiles of GPU memory over 125 tiles of host memory."""
    tile = nb * nb * 8
    gpu = dataclasses.replace(GPU_BY_NAME["V100"], memory_bytes=20 * tile)
    return Platform(NodeSpec("ooc", gpu, 2, 125 * tile, 25e9, 1.5e-6), n_nodes=2)


def _throughput(nt: int, *, stream: bool, ooc: bool = False) -> float:
    nb = 512
    kmap = two_precision_map(nt, Precision.FP16)
    t0 = time.perf_counter()
    rep = simulate_cholesky(
        nt * nb, nb, kmap, _ooc_platform(nb) if ooc else _platform(), record_events=False,
        stream=stream, policy="ooc-static" if ooc else None,
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

    @pytest.mark.parametrize("stream", [False, True], ids=["materialize", "stream"])
    def test_ooc_tasks_per_second_floor(self, stream):
        """The eviction, write-back and spill path: ``ooc-static`` on a
        platform whose GPUs and hosts both overflow."""
        best = max(_throughput(48, stream=stream, ooc=True) for _ in range(2))
        assert best >= OOC_TASKS_PER_SECOND_FLOOR, (
            f"out-of-core {'stream' if stream else 'materialize'} mode scheduled only "
            f"{best:,.0f} tasks/s (floor {OOC_TASKS_PER_SECOND_FLOOR:,.0f})"
        )


def _simulate_subprocess(mode: str, tmp_path, nt: int = 96) -> dict:
    out = tmp_path / f"simulate-{mode}.json"
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
        assert stm["joules"] == mat["joules"]
        assert stm["n_tasks"] == mat["n_tasks"] == cholesky_task_count(96)
        assert stm["peak_live_tasks"] < mat["peak_live_tasks"]
        # swept refills top the window up to exactly its lookahead (9,600)
        assert stm["peak_live_tasks"] == default_stream_lookahead(96)
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
