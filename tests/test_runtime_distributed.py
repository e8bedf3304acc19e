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
from tests.conftest import lower_dense


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
        dist = execute_numeric_distributed(dag.graph, mat, g.size).matrix
        assert np.array_equal(lower_dense(dist), lower_dense(seq))

    @pytest.mark.parametrize("strategy", [ConversionStrategy.AUTO, ConversionStrategy.TTC])
    def test_matches_sequential_mixed_precision(self, rng, strategy):
        """STC payload quantisation on the wire reproduces the sequential
        semantics bit-for-bit."""
        mat = _mat(rng)
        g = ProcessGrid(2, 2)
        kmap = two_precision_map(6, Precision.FP16)
        dag = build_cholesky_dag(96, 16, kmap, strategy=strategy, grid=g)
        seq = execute_numeric(dag.graph, mat)
        dist = execute_numeric_distributed(dag.graph, mat, g.size).matrix
        assert np.array_equal(lower_dense(dist), lower_dense(seq))

    def test_adaptive_map(self, rng):
        mat = _mat(rng, n=120, nb=20)
        g = ProcessGrid(1, 3)
        kmap = build_precision_map(tile_norms(mat), 1e-4)
        dag = build_cholesky_dag(120, 20, kmap, grid=g)
        seq = execute_numeric(dag.graph, mat)
        dist = execute_numeric_distributed(dag.graph, mat, 3).matrix
        assert np.array_equal(lower_dense(dist), lower_dense(seq))
        assert dist.storage_precision == seq.storage_precision  # the factor at rest, assembled alike

    def test_single_rank_shortcut(self, rng):
        mat = _mat(rng)
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        out = execute_numeric_distributed(dag.graph, mat, 1).matrix
        L = lower_dense(out)
        assert np.allclose(L @ L.T, mat.to_dense())

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


#: bytes per element of each payload precision's wire words (``distributed._encode``)
WORD_BYTES = {Precision.FP64: 8, Precision.FP32: 4, Precision.TF32: 4, Precision.BF16_32: 4,
              Precision.FP16_32: 2, Precision.FP16: 2}


class TestWirePayloads:
    @pytest.mark.parametrize("case", [
        ("fp64", (1, 2), ConversionStrategy.AUTO, 96, 16),
        ("fp64", (2, 2), ConversionStrategy.AUTO, 96, 16),
        ("fp64", (2, 3), ConversionStrategy.AUTO, 96, 16),
        ("fp16", (2, 2), ConversionStrategy.AUTO, 96, 16),
        ("fp16", (2, 2), ConversionStrategy.TTC, 96, 16),
        ("adaptive", (1, 3), ConversionStrategy.AUTO, 120, 20),
    ], ids=["fp64-1x2", "fp64-2x2", "fp64-2x3", "fp16-auto-2x2", "fp16-ttc-2x2", "adaptive-1x3"])
    def test_pickled_payload_bytes_per_precision(self, rng, case):
        """The distributed cases above, their ranks on threads over plain
        queues: every payload a rank puts on a peer's inbox pickles to its
        wire words — 2 B per element at FP16 and FP16_32, 4 at FP32, 8 at
        FP64 — plus a fixed header, per precision over the sends
        ``_consumer_plan`` lists; and the finals assemble the sequential
        executor's factor bit for bit."""
        import pickle
        import queue
        import threading
        from collections import Counter

        from repro.runtime.distributed import _consumer_plan, _rank_main
        from repro.runtime.executor import _assemble

        pickled: Counter[Precision] = Counter()
        words: Counter[Precision] = Counter()
        messages: Counter[Precision] = Counter()

        class Inbox(queue.Queue):
            def put(self, item, *args, **kwargs):
                precision, payload = Precision(item[3]), item[4]
                pickled[precision] += len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
                words[precision] += payload.nbytes
                messages[precision] += 1
                super().put(item, *args, **kwargs)

        name, grid, strategy, n, nb = case
        mat = _mat(rng, n=n, nb=nb)
        kmap = {"fp64": lambda: uniform_map(n // nb, Precision.FP64),
                "fp16": lambda: two_precision_map(n // nb, Precision.FP16),
                "adaptive": lambda: build_precision_map(tile_norms(mat), 1e-4)}[name]()
        g = ProcessGrid(*grid)
        graph = build_cholesky_dag(n, nb, kmap, strategy=strategy, grid=g).graph
        inboxes, results = [Inbox() for _ in range(g.size)], queue.Queue()
        threads = [threading.Thread(target=_rank_main,
                                    args=(r, graph, mat, inboxes, results, 30.0))
                   for r in range(g.size)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        finals = {}
        for _ in range(g.size):
            _rank, rank_finals, err, _fired = results.get_nowait()
            assert err is None
            finals.update(rank_finals)

        elements: Counter[Precision] = Counter()
        for tid, sends in _consumer_plan(graph).items():
            i, j, _v = graph.tasks[tid].output
            for _dest, precision in sends:
                elements[precision] += np.prod(mat.tile_shape(i, j))
        assert set(words) == set(elements) and sum(messages.values()) > 0
        for precision, count in elements.items():
            assert words[precision] == WORD_BYTES[precision] * count, precision
            assert 0 < pickled[precision] - words[precision] <= 200 * messages[precision]
        if name == "fp16":  # STC sends the FP16 tiles' panels as halves; TTC at their FP32 storage
            assert (Precision.FP16 in words) == (strategy == ConversionStrategy.AUTO)
        seq = execute_numeric(graph, mat)
        assert np.array_equal(lower_dense(_assemble(graph, mat, finals)), lower_dense(seq))


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
            degrade=True,
        )
        assert isinstance(report, DistributedReport)
        assert report.degraded
        assert 1 in report.dead_ranks
        assert report.error is not None
        assert np.array_equal(lower_dense(report.matrix), lower_dense(seq))

    def test_degrade_recovers_a_rank_that_raised(self, rng):
        mat, g, dag = self.setup_case(rng)
        seq = execute_numeric(dag.graph, mat)
        plan = FaultPlan(
            (FaultSpec("kill_rank", rank=1, task=_rank_task(dag.graph, 1),
                       mode="exception"),)
        )
        report = execute_numeric_distributed(
            dag.graph, mat, g.size, timeout=self.TIMEOUT, fault_plan=plan,
            degrade=True,
        )
        assert report.degraded and report.dead_ranks == (1,)
        assert np.array_equal(lower_dense(report.matrix), lower_dense(seq))

    def test_delayed_message_still_bit_identical(self, rng):
        """delay_message perturbs timing only — results must not change."""
        mat, g, dag = self.setup_case(rng)
        seq = execute_numeric(dag.graph, mat)
        plan = FaultPlan(
            (FaultSpec("delay_message", rank=0, message=0, delay_s=0.2),)
        )
        dist = execute_numeric_distributed(
            dag.graph, mat, g.size, timeout=self.TIMEOUT, fault_plan=plan
        ).matrix
        assert np.array_equal(lower_dense(dist), lower_dense(seq))

    def test_healthy_run_report(self, rng):
        mat, g, dag = self.setup_case(rng)
        report = execute_numeric_distributed(
            dag.graph, mat, g.size, timeout=self.TIMEOUT
        )
        assert isinstance(report, DistributedReport)
        assert not report.degraded
        assert report.error is None
        assert report.dead_ranks == ()

    def test_single_rank_report(self, rng):
        mat = _mat(rng)
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        report = execute_numeric_distributed(dag.graph, mat, 1)
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
            dag.graph, mat, g.size, timeout=self.TIMEOUT
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
                fault_plan=plan, silent_after=0.3,
            )
        assert report.error is None
        assert np.array_equal(lower_dense(report.matrix), lower_dense(seq))
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
