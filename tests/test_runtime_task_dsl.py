"""Unit tests for the task graph (and the Cholesky emission held vs streamed)."""

import pytest

from repro.precision import Precision
from repro.runtime.task import Task, TaskGraph, TaskInput, TileRef


def _task(tid, kind="GEMM", inputs=(), rank=0):
    return Task(
        tid=tid,
        kind=kind,
        params=(tid,),
        rank=rank,
        precision=Precision.FP64,
        flops=1.0,
        output=TileRef(tid, 0, 1),
        output_precision=Precision.FP64,
        inputs=list(inputs),
    )


def _inp(producer, i=0, j=0, v=1):
    return TaskInput(
        producer=producer,
        tile=TileRef(i, j, v),
        payload_precision=Precision.FP64,
        storage_precision=Precision.FP64,
        elements=4,
    )


class TestTaskGraph:
    def test_add_and_finalize(self):
        g = TaskGraph()
        g.add(_task(0))
        g.add(_task(1, inputs=[_inp(0)]))
        g.finalize()
        assert g.successors(0) == [1]
        assert g.predecessors(1) == [0]
        assert len(g) == 2

    def test_dense_ids_enforced(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="dense"):
            g.add(_task(3))

    def test_forward_dependency_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="later producer"):
            g.add(_task(0, inputs=[_inp(1)]))

    def test_unknown_producer_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="unknown or later producer"):
            g.add(_task(0, inputs=[_inp(5)]))

    def test_add_after_finalize_rejected(self):
        g = TaskGraph()
        g.add(_task(0))
        g.finalize()
        with pytest.raises(RuntimeError):
            g.add(_task(1))

    def test_flops_and_counts(self):
        g = TaskGraph()
        g.add(_task(0, kind="POTRF"))
        g.add(_task(1, kind="GEMM", inputs=[_inp(0)]))
        g.finalize()
        assert g.total_flops() == 2.0
        assert g.counts_by_kind() == {"POTRF": 1, "GEMM": 1}
        assert g.flops_by_precision() == {Precision.FP64: 2.0}

    def test_critical_path(self):
        g = TaskGraph()
        g.add(_task(0))
        g.add(_task(1, inputs=[_inp(0)]))
        g.add(_task(2, inputs=[_inp(0)]))
        g.add(_task(3, inputs=[_inp(1), _inp(2)]))
        g.finalize()
        assert g.critical_path_length(lambda t: 1.0) == 3.0
        assert g.critical_path_length(lambda t: 2.0) == 6.0


class TestFinalizeDedupe:
    def test_duplicate_producer_reads_collapse_to_one_edge(self):
        """Regression: two reads from one producer used to double the edge."""
        g = TaskGraph()
        g.add(_task(0))
        g.add(_task(1, inputs=[_inp(0, i=0), _inp(0, i=1)]))
        g.finalize()
        assert g.successors(0) == [1]
        assert g.predecessors(1) == [0]
        # degree-sensitive consumers (in_count draining, critical path)
        # must see one dependency, not two
        assert g.critical_path_length(lambda t: 1.0) == 2.0

    def test_dedupe_preserves_first_seen_order(self):
        g = TaskGraph()
        g.add(_task(0))
        g.add(_task(1))
        g.add(_task(2, inputs=[_inp(1), _inp(0), _inp(1)]))
        g.finalize()
        assert g.predecessors(2) == [1, 0]

    def test_simulator_drains_deduped_graph(self):
        """A duplicate-producer graph must simulate to completion with
        task-level (not payload-level) dependency accounting."""
        from repro.perfmodel.gpus import V100
        from repro.runtime.platform import Platform
        from repro.runtime.simulator import simulate

        g = TaskGraph()
        g.add(_task(0, kind="POTRF"))
        g.add(_task(1, kind="SYRK", inputs=[_inp(0), _inp(0)]))
        g.finalize()
        assert g.predecessors(1) == [0]
        rep = simulate(g, Platform.single_gpu(V100), 4, record_events=False)
        assert rep.stats.n_tasks == 2


class TestAppendFrontier:
    """``add``/``retire``: the graph is an append-only frontier while it grows."""

    def test_adjacency_usable_mid_stream(self):
        g = TaskGraph()
        g.add(_task(0))
        g.add(_task(1, inputs=[_inp(0)]))
        assert g.successors(0) == [1]  # before emission is finished

    def test_append_rejects_forward_producer(self):
        g = TaskGraph()
        g.add(_task(0))
        with pytest.raises(ValueError, match="unknown or later producer"):
            g.add(_task(1, inputs=[_inp(1)]))  # itself: not yet present
        assert len(g) == 1 and g.successors(0) == []  # the rejected task left no trace

    def test_append_rejects_sparse_ids(self):
        g = TaskGraph()
        g.add(_task(0))
        with pytest.raises(ValueError, match="dense"):
            g.add(_task(2))

    def test_finalize_is_noop_seal(self):
        g = TaskGraph()
        g.add(_task(0))
        g.add(_task(1, inputs=[_inp(0), _inp(0)]))
        g.finalize()
        g.finalize()  # idempotent
        assert g.successors(0) == [1] and g.predecessors(1) == [0]

    def test_retire_drops_payload_keeps_preds(self):
        g = TaskGraph()
        g.add(_task(0))
        g.add(_task(1, inputs=[_inp(0)]))
        g.retire(0)
        assert g.tasks[0] is None
        assert g.n_retired == 1
        assert g.successors(0) == []
        assert g.predecessors(1) == [0]  # successors still need ready bookkeeping


class TestStreamedUnroll:
    def test_cholesky_stream_equals_materialize(self):
        """The held Cholesky graph is the lazy k-major emission, task for
        task: same tids, same producer ids."""
        from repro.core import (
            build_cholesky_dag,
            cholesky_task_count,
            stream_cholesky_tasks,
            two_precision_map,
        )

        n, nb = 8 * 64 - 5, 64  # ragged last tile
        kmap = two_precision_map(8, Precision.FP16)
        held = build_cholesky_dag(n, nb, kmap).graph
        assert len(held) == cholesky_task_count(8)
        assert list(stream_cholesky_tasks(n, nb, kmap)) == list(held.tasks)
