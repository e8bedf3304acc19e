"""Scheduler property battery: every policy, random DAGs, hard invariants.

Hypothesis generates arbitrary (non-Cholesky) task graphs — random
kinds, precisions, owning ranks, fan-in — and every registered
scheduling policy must uphold, on each of them:

1. **precedence** — no task starts before all its predecessors finish;
2. **lower bound** — the makespan is ≥ the kernel-only critical-path
   length of the graph (no policy can beat the longest chain);
3. **accounting** — the data-motion ledger rebuilt from the trace
   reconciles exactly against the simulator's own counters;
4. **determinism** — re-simulating the same graph under the same policy
   reproduces the event stream and makespan bit-for-bit;
5. **completeness** — every task is scheduled exactly once and the
   makespan is the last task completion;
6. **one loop** — the simulator's three entry points (finalized graph,
   stream whose window covers the graph, replay of the committed order)
   produce the same schedule, with and without memory pressure.

Separately, the threaded executor must produce *identical numerics* to
the sequential one: execution order is preference, never arithmetic.

Example counts come from the hypothesis profile registered in
``conftest.py`` (``REPRO_HYPOTHESIS_PROFILE=quick|default|full``); the
heavier multi-node battery is marked ``slow``.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analysis.ledger import build_ledger
from repro.perfmodel import GPU_BY_NAME, NodeSpec
from repro.precision import Precision
from repro.runtime import (
    POLICY_NAMES,
    Platform,
    TaskGraph,
    TaskInput,
    simulate,
)
from repro.runtime.policies import resolve_policy
from repro.runtime.simulator import simulate_replay, simulate_stream
from tests.conftest import lower_dense
from tests.makespan_bound_oracle import graph_cost_lower_bound

NB = 64
KINDS = ("POTRF", "TRSM", "SYRK", "GEMM")
PRECISIONS = (Precision.FP64, Precision.FP32, Precision.FP16_32)


@st.composite
def random_dags(draw, max_tasks: int = 16, max_ranks: int = 4):
    """A random finalized TaskGraph plus the rank count it targets.

    Task ``tid`` writes tile ``(tid, 0)`` version 1; sources read an
    original host tile ``(tid, 1)``; every edge's payload travels in the
    producer's output precision (what the simulator caches).
    """
    n = draw(st.integers(2, max_tasks))
    n_ranks = draw(st.sampled_from([r for r in (1, 2, 4) if r <= max_ranks]))
    graph = TaskGraph()
    for tid in range(n):
        kind = draw(st.sampled_from(KINDS))
        prec = draw(st.sampled_from(PRECISIONS))
        n_preds = draw(st.integers(0, min(3, tid)))
        preds = sorted(draw(st.permutations(range(tid)))[:n_preds]) if n_preds else []
        inputs = []
        for p in preds:
            producer = graph.tasks[p]
            inputs.append(TaskInput(
                producer=p,
                tile=producer.output,
                payload_precision=producer.output_precision,
                storage_precision=producer.output_precision,
                elements=NB * NB,
            ))
        if not inputs:
            inputs.append(TaskInput(
                producer=None,
                tile=(tid, 1, 0),
                payload_precision=prec,
                storage_precision=prec,
                elements=NB * NB,
            ))
        graph.new_task(
            kind=kind,
            params=(tid,),
            rank=draw(st.integers(0, n_ranks - 1)),
            precision=prec,
            flops=float(draw(st.integers(1, 50))) * 1e6,
            output=(tid, 0, 1),
            output_precision=prec,
            inputs=inputs,
            priority=draw(st.integers(0, 8)),
        )
    graph.finalize()
    return graph, n_ranks


def _platform(n_ranks: int, n_nodes: int = 1, *, tight: bool = False) -> Platform:
    """``tight``: 3-tile GPUs over a 4-tile host, so every run evicts and
    spills (the host tier must hold one task's working set — up to three
    inputs plus the output — and no more)."""
    gpus_per_node = max(1, n_ranks // n_nodes)
    gpu, host_bytes = GPU_BY_NAME["V100"], 256e9
    if tight:
        tile_bytes = NB * NB * 8
        gpu = dataclasses.replace(gpu, memory_bytes=3 * tile_bytes)
        host_bytes = 4 * tile_bytes
    node = NodeSpec("prop", gpu, gpus_per_node, host_bytes, 25e9, 1.5e-6)
    return Platform(node=node, n_nodes=n_nodes)


def _event_tuples(trace):
    return sorted(
        (e.rank, e.engine, e.kind, e.t_start, e.t_end,
         e.precision, e.bytes, e.flops, e.site)
        for e in trace.events
    )


@pytest.mark.parametrize("policy", POLICY_NAMES)
class TestPolicyInvariants:
    """The four core invariants, each policy, random DAGs."""

    @given(data=random_dags())
    @settings(deadline=None)
    def test_precedence_respected(self, policy, data):
        graph, n_ranks = data
        rep = simulate(graph, _platform(n_ranks), NB, policy=policy)
        starts = rep.task_start
        for task in graph:
            for p in graph.predecessors(task.tid):
                assert starts[task.tid] >= rep.task_end[p] - 1e-12, (
                    f"task {task.tid} started at {starts[task.tid]} before "
                    f"predecessor {p} finished at {rep.task_end[p]}"
                )

    @given(data=random_dags())
    @settings(deadline=None)
    def test_makespan_at_least_critical_path(self, policy, data):
        graph, n_ranks = data
        platform = _platform(n_ranks)
        rep = simulate(graph, platform, NB, policy=policy)
        bound = graph_cost_lower_bound(graph, platform, NB)
        assert rep.makespan >= bound - 1e-12

    @given(data=random_dags())
    @settings(deadline=None)
    def test_ledger_reconciles(self, policy, data):
        graph, n_ranks = data
        rep = simulate(graph, _platform(n_ranks), NB, policy=policy)
        ledger = build_ledger(events=rep.trace.events)
        assert ledger.reconcile(rep.stats) == []

    @given(data=random_dags())
    @settings(deadline=None)
    def test_deterministic_replay(self, policy, data):
        graph, n_ranks = data
        platform = _platform(n_ranks)
        a = simulate(graph, platform, NB, policy=policy)
        b = simulate(graph, platform, NB, policy=policy)
        assert a.makespan == b.makespan
        assert a.task_end == b.task_end
        assert a.task_start == b.task_start
        assert _event_tuples(a.trace) == _event_tuples(b.trace)

    @given(data=random_dags())
    @settings(deadline=None)
    def test_all_tasks_scheduled_once(self, policy, data):
        graph, n_ranks = data
        rep = simulate(graph, _platform(n_ranks), NB, policy=policy)
        assert len(rep.task_end) == len(graph)
        assert rep.makespan == pytest.approx(max(rep.task_end))
        compute = [e for e in rep.trace.events
                   if e.engine == "compute" and e.kind in KINDS]
        assert len(compute) == len(graph)
        assert rep.policy == policy

    @given(data=random_dags())
    @settings(deadline=None)
    def test_topological_order_is_valid(self, policy, data):
        """The committed order (what ``simulate_replay`` walks) is a
        topological order of the graph."""
        graph, n_ranks = data
        order = simulate(graph, _platform(n_ranks), NB, policy=policy).commit_order
        assert sorted(order) == list(range(len(graph)))
        position = {tid: i for i, tid in enumerate(order)}
        for task in graph:
            for p in graph.predecessors(task.tid):
                assert position[p] < position[task.tid]


@pytest.mark.parametrize("tight", [False, True], ids=["roomy", "tight"])
@pytest.mark.parametrize(
    "policy", [name for name in POLICY_NAMES if not resolve_policy(name).requires_full_graph]
)
class TestOneSchedulingLoop:
    """materialised ≡ streamed (window ≥ n) ≡ replayed, on multi-root DAGs.

    The Cholesky PTG has a single root, so only random DAGs reach the
    case where several roots are keyed against host residency at once
    (``ooc-static`` on the tight platform).
    """

    @given(data=random_dags(max_tasks=24))
    @settings(deadline=None)
    def test_three_entry_points_agree(self, policy, tight, data):
        graph, n_ranks = data
        platform = _platform(n_ranks, tight=tight)
        base = simulate(graph, platform, NB, policy=policy)
        streamed = simulate_stream(
            map(copy.copy, graph.tasks), platform, NB, lookahead=len(graph), policy=policy
        )
        replayed = simulate_replay(graph, platform, NB, base.commit_order, source_policy=policy)
        for other in (streamed, replayed):
            assert other.commit_order == base.commit_order
            assert other.makespan == base.makespan
            assert other.stats.to_dict() == base.stats.to_dict()
            assert other.trace.content_hash() == base.trace.content_hash()

    def test_cholesky_one_tid_space(self, policy, tight):
        """Held and streamed Cholesky runs commit the same tids in the
        same order (the default window is smaller than this DAG), and the
        commit order of either replays on the held graph with the same
        makespan and trace hash."""
        from repro.core import (
            build_cholesky_dag,
            cholesky_task_count,
            default_stream_lookahead,
            simulate_cholesky,
            two_precision_map,
        )

        nt = 30
        n = nt * NB - 9  # ragged last tile
        assert default_stream_lookahead(nt) < cholesky_task_count(nt)
        kmap = two_precision_map(nt, Precision.FP16_32)
        platform = _platform(2, tight=tight)
        held = simulate_cholesky(n, NB, kmap, platform, policy=policy)
        streamed = simulate_cholesky(n, NB, kmap, platform, policy=policy, stream=True)
        assert streamed.peak_live_tasks < held.peak_live_tasks
        # the window refills in sweeps yet tops up to exactly its lookahead
        assert streamed.peak_live_tasks == default_stream_lookahead(nt)
        assert streamed.commit_order == held.commit_order
        graph = build_cholesky_dag(n, NB, kmap, grid=platform.process_grid()).graph
        for run in (held, streamed):
            replayed = simulate_replay(graph, platform, NB, run.commit_order)
            assert replayed.makespan == held.makespan
            assert replayed.trace.content_hash() == held.trace.content_hash()
            assert run.trace.content_hash() == held.trace.content_hash()


@pytest.mark.slow
@pytest.mark.parametrize("policy", POLICY_NAMES)
class TestPolicyInvariantsMultiNode:
    """The same battery on bigger DAGs across a 2-node platform (NIC paths)."""

    @given(data=random_dags(max_tasks=28, max_ranks=4))
    @settings(deadline=None)
    def test_precedence_bound_and_ledger(self, policy, data):
        graph, n_ranks = data
        platform = _platform(max(2, n_ranks), n_nodes=2)
        rep = simulate(graph, platform, NB, policy=policy)
        for task in graph:
            for p in graph.predecessors(task.tid):
                assert rep.task_start[task.tid] >= rep.task_end[p] - 1e-12
        assert rep.makespan >= graph_cost_lower_bound(graph, platform, NB) - 1e-12
        assert build_ledger(events=rep.trace.events).reconcile(rep.stats) == []


class TestNumericInvariance:
    """Execution order is preference, not arithmetic: the threaded result
    is bitwise identical to the sequential reference when it runs in any
    policy's committed order, and every policy simulates the same work."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_parallel_executor_matches_sequential(self, policy, tiled_96):
        from repro.core import build_cholesky_dag, two_precision_map
        from repro.runtime import execute_numeric, execute_numeric_parallel

        kmap = two_precision_map(6, Precision.FP16_32)
        dag = build_cholesky_dag(96, 16, kmap)
        seq = execute_numeric(dag.graph, tiled_96)
        # the thread pool takes ready tasks by (priority, tid): ranking each
        # task by its position in the policy's committed order makes one
        # thread replay that order exactly, and four threads overlap it
        order = simulate(dag.graph, _platform(1), 16, policy=policy).commit_order
        graph = copy.deepcopy(dag.graph)
        for position, tid in enumerate(order):
            graph.tasks[tid].priority = position
        for n_threads in (1, 4):
            par = execute_numeric_parallel(graph, tiled_96, n_threads=n_threads)
            assert np.array_equal(lower_dense(par), lower_dense(seq))

    def test_simulated_flops_identical_across_policies(self):
        from repro.core import simulate_cholesky, two_precision_map

        platform = _platform(2)
        kmap = two_precision_map(16, Precision.FP16_32)
        reports = {
            pol: simulate_cholesky(2048, 128, kmap, platform, policy=pol)
            for pol in POLICY_NAMES
        }
        tasks = {rep.stats.n_tasks for rep in reports.values()}
        assert len(tasks) == 1
        base = reports["panel-first"].stats.total_flops
        for rep in reports.values():
            # same tasks, summed in schedule order: equal up to rounding
            assert rep.stats.total_flops == pytest.approx(base, rel=1e-12)
