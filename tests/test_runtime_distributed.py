"""Tests for the process-based distributed numeric executor."""

import time

import numpy as np
import pytest

from repro.core import (
    ConversionStrategy,
    build_cholesky_dag,
    build_precision_map,
    two_precision_map,
    uniform_map,
)
from repro.faults import FaultPlan, FaultSpec
from repro.obs import event_log, get_registry, read_events
from repro.precision import Precision
from repro.runtime import DistributedReport, execute_numeric
from repro.runtime.distributed import execute_numeric_distributed
from repro.tiles import ProcessGrid
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix


def _mat(rng, n=96, nb=16):
    a = rng.standard_normal((n, n))
    return TiledSymmetricMatrix.from_dense(a @ a.T + n * np.eye(n), nb)


class TestDistributedExecutor:
    @pytest.mark.parametrize("grid", [(1, 2), (2, 2), (2, 3)])
    def test_matches_sequential_fp64(self, rng, grid):
        mat = _mat(rng)
        g = ProcessGrid(*grid)
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64), grid=g)
        seq = execute_numeric(dag.graph, mat)
        dist = execute_numeric_distributed(dag.graph, mat, g.size)
        assert np.array_equal(dist.lower_dense(), seq.lower_dense())

    @pytest.mark.parametrize("strategy", [ConversionStrategy.AUTO, ConversionStrategy.TTC])
    def test_matches_sequential_mixed_precision(self, rng, strategy):
        """STC payload quantisation on the wire reproduces the sequential
        semantics bit-for-bit."""
        mat = _mat(rng)
        g = ProcessGrid(2, 2)
        kmap = two_precision_map(6, Precision.FP16)
        dag = build_cholesky_dag(96, 16, kmap, strategy=strategy, grid=g)
        seq = execute_numeric(dag.graph, mat)
        dist = execute_numeric_distributed(dag.graph, mat, g.size)
        assert np.array_equal(dist.lower_dense(), seq.lower_dense())

    def test_adaptive_map(self, rng):
        mat = _mat(rng, n=120, nb=20)
        g = ProcessGrid(1, 3)
        kmap = build_precision_map(tile_norms(mat), 1e-4)
        dag = build_cholesky_dag(120, 20, kmap, grid=g)
        seq = execute_numeric(dag.graph, mat)
        dist = execute_numeric_distributed(dag.graph, mat, 3)
        assert np.array_equal(dist.lower_dense(), seq.lower_dense())

    def test_single_rank_shortcut(self, rng):
        mat = _mat(rng)
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        out = execute_numeric_distributed(dag.graph, mat, 1)
        l = out.lower_dense()
        assert np.allclose(l @ l.T, mat.to_dense())

    def test_rank_count_validated(self, rng):
        mat = _mat(rng)
        g = ProcessGrid(2, 2)
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64), grid=g)
        with pytest.raises(ValueError, match="rank"):
            execute_numeric_distributed(dag.graph, mat, 2)
        with pytest.raises(ValueError):
            execute_numeric_distributed(dag.graph, mat, 0)

    def test_worker_error_propagates(self, rng):
        mat = _mat(rng)
        g = ProcessGrid(2, 1)
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64), grid=g)
        dag.graph.tasks[0].kind = "BROKEN"
        with pytest.raises(RuntimeError, match="rank"):
            execute_numeric_distributed(dag.graph, mat, 2)


def _rank_task(graph, rank: int) -> int:
    """A task id owned by ``rank``, late enough that other work exists."""
    tids = [t.tid for t in graph if t.rank == rank]
    assert tids, f"grid layout assigns no tasks to rank {rank}"
    return tids[len(tids) // 2]


class TestDistributedFaults:
    """Fault injection against the SPMD executor (ISSUE 3 acceptance)."""

    TIMEOUT = 30.0  # documented bound: failure must surface well within it

    def setup_case(self, rng):
        mat = _mat(rng)
        g = ProcessGrid(2, 2)
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64), grid=g)
        return mat, g, dag

    def test_sigkill_fails_fast_within_timeout(self, rng):
        mat, g, dag = self.setup_case(rng)
        plan = FaultPlan(
            (FaultSpec("kill_rank", rank=1, task=_rank_task(dag.graph, 1)),)
        )
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="died without reporting"):
            execute_numeric_distributed(
                dag.graph, mat, g.size, timeout=self.TIMEOUT, fault_plan=plan
            )
        elapsed = time.monotonic() - t0
        # fail-fast: detection rides on exitcode polling, not the timeout
        assert elapsed < self.TIMEOUT / 2

    def test_exit0_rank_detected_as_dead(self, rng):
        """A pending rank exiting with code 0 used to hang until timeout."""
        mat, g, dag = self.setup_case(rng)
        plan = FaultPlan(
            (FaultSpec("kill_rank", rank=1, task=_rank_task(dag.graph, 1),
                       mode="exit0"),)
        )
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="exit 0"):
            execute_numeric_distributed(
                dag.graph, mat, g.size, timeout=self.TIMEOUT, fault_plan=plan
            )
        assert time.monotonic() - t0 < self.TIMEOUT / 2

    def test_exception_mode_reports_rank_failure(self, rng):
        mat, g, dag = self.setup_case(rng)
        plan = FaultPlan(
            (FaultSpec("kill_rank", rank=0, task=_rank_task(dag.graph, 0),
                       mode="exception", note="scripted"),)
        )
        kills = get_registry().counter("faults.injected")
        before = kills.value(kind="kill_rank")
        with pytest.raises(RuntimeError, match="rank 0"):
            execute_numeric_distributed(
                dag.graph, mat, g.size, timeout=self.TIMEOUT, fault_plan=plan
            )
        # the dying rank's failure report carries the fault it fired
        assert kills.value(kind="kill_rank") == before + 1

    def test_fired_fault_reaches_the_parent_telemetry(self, rng, tmp_path):
        """A rank's registry and log die with it: the fault it fires is
        counted and logged by the parent, once."""
        mat = _mat(rng)
        g = ProcessGrid(2, 1)
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64), grid=g)
        plan = FaultPlan((FaultSpec("delay_message", rank=0, message=0, delay_s=0.05),))
        counter = get_registry().counter("faults.injected")
        before = counter.value(kind="delay_message")
        with event_log(tmp_path / "run.jsonl"):
            execute_numeric_distributed(dag.graph, mat, g.size, timeout=self.TIMEOUT,
                                        fault_plan=plan)
        assert counter.value(kind="delay_message") == before + 1
        faults = [e for e in read_events(tmp_path / "run.jsonl") if e["type"] == "fault"]
        assert [e["attrs"] for e in faults] == [{"kind": "delay_message", "rank": 0}]

    def test_degradation_is_bit_identical(self, rng):
        """Rank loss + degrade=True recovers the exact sequential result."""
        mat, g, dag = self.setup_case(rng)
        seq = execute_numeric(dag.graph, mat)
        plan = FaultPlan(
            (FaultSpec("kill_rank", rank=1, task=_rank_task(dag.graph, 1)),)
        )
        report = execute_numeric_distributed(
            dag.graph, mat, g.size, timeout=self.TIMEOUT, fault_plan=plan,
            degrade=True, return_report=True,
        )
        assert isinstance(report, DistributedReport)
        assert report.degraded
        assert 1 in report.dead_ranks
        assert report.error is not None
        assert np.array_equal(report.matrix.lower_dense(), seq.lower_dense())

    def test_degrade_without_report_returns_matrix(self, rng):
        mat, g, dag = self.setup_case(rng)
        seq = execute_numeric(dag.graph, mat)
        plan = FaultPlan(
            (FaultSpec("kill_rank", rank=1, task=_rank_task(dag.graph, 1),
                       mode="exception"),)
        )
        out = execute_numeric_distributed(
            dag.graph, mat, g.size, timeout=self.TIMEOUT, fault_plan=plan,
            degrade=True,
        )
        assert isinstance(out, TiledSymmetricMatrix)
        assert np.array_equal(out.lower_dense(), seq.lower_dense())

    def test_delayed_message_still_bit_identical(self, rng):
        """delay_message perturbs timing only — results must not change."""
        mat, g, dag = self.setup_case(rng)
        seq = execute_numeric(dag.graph, mat)
        plan = FaultPlan(
            (FaultSpec("delay_message", rank=0, message=0, delay_s=0.2),)
        )
        dist = execute_numeric_distributed(
            dag.graph, mat, g.size, timeout=self.TIMEOUT, fault_plan=plan
        )
        assert np.array_equal(dist.lower_dense(), seq.lower_dense())

    def test_healthy_run_report(self, rng):
        mat, g, dag = self.setup_case(rng)
        report = execute_numeric_distributed(
            dag.graph, mat, g.size, timeout=self.TIMEOUT, return_report=True
        )
        assert isinstance(report, DistributedReport)
        assert not report.degraded
        assert report.error is None
        assert report.dead_ranks == ()

    def test_single_rank_report(self, rng):
        mat = _mat(rng)
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        report = execute_numeric_distributed(dag.graph, mat, 1, return_report=True)
        assert isinstance(report, DistributedReport)
        assert not report.degraded


class TestRankHeartbeats:
    """Hung-rank visibility: per-rank heartbeat stamps (ISSUE 9)."""

    TIMEOUT = 30.0

    def setup_case(self, rng):
        mat = _mat(rng)
        g = ProcessGrid(2, 2)
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64), grid=g)
        return mat, g, dag

    def test_healthy_report_carries_fresh_ages(self, rng):
        mat, g, dag = self.setup_case(rng)
        report = execute_numeric_distributed(
            dag.graph, mat, g.size, timeout=self.TIMEOUT, return_report=True
        )
        # every rank reported, so every recorded age was reset to fresh
        assert all(age == 0.0 for age in report.heartbeat_ages.values())

    def test_silent_rank_raises_alert_event(self, rng, tmp_path):
        """A delayed message makes ranks go silent past ``silent_after``:
        the parent must emit ``distributed.rank_silent`` at alert severity
        while the numeric result stays bit-identical."""
        import json

        mat, g, dag = self.setup_case(rng)
        seq = execute_numeric(dag.graph, mat.copy())
        plan = FaultPlan(
            (FaultSpec("delay_message", rank=0, message=0, delay_s=1.5),)
        )
        events_path = tmp_path / "events.jsonl"
        before = get_registry().counter("distributed.rank_silent").value()
        with event_log(events_path, run_id="hb"):
            report = execute_numeric_distributed(
                dag.graph, mat, g.size, timeout=self.TIMEOUT,
                fault_plan=plan, silent_after=0.3, return_report=True,
            )
        assert report.error is None
        assert np.array_equal(report.matrix.lower_dense(), seq.lower_dense())
        records = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
            if line
        ]
        silent = [r for r in records if r["type"] == "distributed.rank_silent"]
        assert silent, "no rank_silent event despite 1.5 s silence"
        assert silent[0]["severity"] == "alert"
        assert silent[0]["attrs"]["age_seconds"] > 0.3
        assert get_registry().counter("distributed.rank_silent").value() > before
        # stale ages were observed at some point during the run
        assert report.heartbeat_ages
