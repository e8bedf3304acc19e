"""Scheduling policies: registry, tie-breaking, pinning, determinism.

The heap comparator is the explicit triple ``(*policy.key, tid)``; these
tests pin its exact semantics:

* ``panel-first`` is bit-identical to the pre-policy scheduler (and to
  ``policy=None``) — pinned by an exact makespan constant *and* a trace
  hash on the 16×16-tile reference configuration;
* ties are broken ``(ready, priority, tid)`` — pinned on hand-built
  graphs where the pop order is fully predictable;
* the same seed + policy reproduces the trace byte-for-byte, in-process
  and across fork/forkserver/spawn child processes.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp

import pytest

from repro.core import simulate_cholesky, two_precision_map
from repro.perfmodel import GPU_BY_NAME, NodeSpec
from repro.precision import Precision
from repro.runtime import (
    POLICY_NAMES,
    CriticalPathPolicy,
    FifoPolicy,
    PanelFirstPolicy,
    Platform,
    SchedulePolicy,
    TaskGraph,
    TaskInput,
    TileRef,
    get_policy,
    policy_topological_order,
    simulate,
    to_chrome_trace,
)
from repro.runtime.policies import resolve_policy

# the 16×16-tile reference configuration (n=2048, nb=128, FP64/FP16_32,
# 1×1×V100) and its pre-refactor schedule, pinned exactly: any drift in
# the panel-first comparator, the engine model, or the perfmodel shows
# up as a failure here before it can silently shift the paper's figures
REF = dict(n=2048, nb=128)
PINNED_MAKESPAN = 0.0034016082320134913
PINNED_TRACE_SHA256 = "a0820ac78b1ec412369a0ee21bed7db4bd2390c6c5f127a63ec4939a050ac9b2"


def _ref_platform() -> Platform:
    node = NodeSpec("t", GPU_BY_NAME["V100"], 1, 256e9, 25e9, 1.5e-6)
    return Platform(node=node, n_nodes=1)


def _ref_report(policy=None):
    kmap = two_precision_map(16, Precision.FP16_32)
    return simulate_cholesky(REF["n"], REF["nb"], kmap, _ref_platform(), policy=policy)


def trace_hash(trace) -> str:
    """Order-independent content hash of a trace's event stream."""
    tuples = sorted(
        (e.rank, e.engine, e.kind, e.t_start, e.t_end,
         e.precision, e.bytes, e.flops, e.site)
        for e in trace.events
    )
    return hashlib.sha256(repr(tuples).encode()).hexdigest()


def _child_trace_hash(policy: str, queue) -> None:
    """Target for start-method determinism: hash the reference trace."""
    rep = _ref_report(policy)
    queue.put((rep.makespan, trace_hash(rep.trace)))


class TestRegistry:
    def test_shipped_policies(self):
        assert POLICY_NAMES == (
            "panel-first", "fifo", "critical-path", "comm-aware-eft", "ooc-static"
        )
        for name in POLICY_NAMES:
            pol = get_policy(name)
            assert isinstance(pol, SchedulePolicy) and pol.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            get_policy("hope-for-the-best")

    def test_resolve(self):
        assert isinstance(resolve_policy(None), PanelFirstPolicy)
        assert isinstance(resolve_policy("fifo"), FifoPolicy)
        inst = CriticalPathPolicy()
        assert resolve_policy(inst) is inst

    def test_fresh_instance_per_call(self):
        assert get_policy("critical-path") is not get_policy("critical-path")


class TestPanelFirstPinned:
    def test_none_and_panel_first_bit_identical(self):
        default = _ref_report(None)
        named = _ref_report("panel-first")
        assert default.policy == named.policy == "panel-first"
        assert default.makespan == named.makespan
        assert trace_hash(default.trace) == trace_hash(named.trace)

    def test_pinned_makespan_and_trace(self):
        rep = _ref_report("panel-first")
        assert rep.makespan == PINNED_MAKESPAN
        assert trace_hash(rep.trace) == PINNED_TRACE_SHA256


def _chain_free_graph(priorities):
    """Independent single-source tasks on rank 0, one per priority."""
    graph = TaskGraph()
    for tid, prio in enumerate(priorities):
        graph.new_task(
            kind="GEMM",
            params=(tid,),
            rank=0,
            precision=Precision.FP64,
            flops=1e6,
            output=TileRef(tid, 0, 1),
            output_precision=Precision.FP64,
            inputs=[TaskInput(None, TileRef(tid, 1, 0),
                              Precision.FP64, Precision.FP64, 64 * 64)],
            priority=prio,
        )
    graph.finalize()
    return graph


class TestTieBreaking:
    """The comparator is the explicit triple (ready, priority, tid)."""

    def test_priority_breaks_ready_ties(self):
        graph = _chain_free_graph([5, 5, 1])
        assert policy_topological_order(graph, "panel-first", nb=64) == [2, 0, 1]

    def test_tid_breaks_priority_ties(self):
        graph = _chain_free_graph([3, 3, 3])
        assert policy_topological_order(graph, "panel-first", nb=64) == [0, 1, 2]
        assert policy_topological_order(graph, "fifo", nb=64) == [0, 1, 2]

    def test_fifo_ignores_priority(self):
        graph = _chain_free_graph([9, 0, 4])
        assert policy_topological_order(graph, "fifo", nb=64) == [0, 1, 2]

    def test_simulator_commits_in_comparator_order(self):
        graph = _chain_free_graph([2, 1, 1])
        rep = simulate(graph, _ref_platform(), 64, policy="panel-first")
        kernels = sorted(
            (e for e in rep.trace.events if e.kind == "GEMM"),
            key=lambda e: e.t_start,
        )
        # priority 1 first (tid 1 then tid 2), the priority-2 task last
        assert [e.flops for e in kernels] == [1e6] * 3
        assert rep.task_end[1] <= rep.task_end[2] <= rep.task_end[0]


class TestDeterminism:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_same_process_replay(self, policy):
        a, b = _ref_report(policy), _ref_report(policy)
        assert a.makespan == b.makespan
        assert trace_hash(a.trace) == trace_hash(b.trace)

    @pytest.mark.slow
    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_across_start_methods(self, method):
        if method not in mp.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        ctx = mp.get_context(method)
        queue = ctx.Queue()
        proc = ctx.Process(target=_child_trace_hash, args=("panel-first", queue))
        proc.start()
        try:
            makespan, digest = queue.get(timeout=120)
        finally:
            proc.join(timeout=30)
        assert makespan == PINNED_MAKESPAN
        assert digest == PINNED_TRACE_SHA256


class TestPolicyDivergence:
    """Policies must actually reorder work, not just relabel it."""

    def test_critical_path_beats_panel_first_here(self):
        pf = _ref_report("panel-first")
        cp = _ref_report("critical-path")
        assert cp.makespan < pf.makespan
        assert trace_hash(cp.trace) != trace_hash(pf.trace)

    def test_report_carries_policy_name(self):
        for pol in POLICY_NAMES:
            assert _ref_report(pol).policy == pol


class TestCustomPolicy:
    def test_register_and_use(self):
        """A custom policy is passed as an instance and reported by its
        ``name``; the names a string may spell stay the shipped five."""

        class ReverseTid(SchedulePolicy):
            name = "reverse-tid-test"

            def key(self, task, ready_t, state=None):
                return (ready_t, -task.tid)

        graph = _chain_free_graph([0, 0, 0])
        assert policy_topological_order(graph, ReverseTid(), nb=64) == [2, 1, 0]
        rep = simulate(graph, _ref_platform(), 64, policy=ReverseTid())
        assert rep.policy == "reverse-tid-test"
        with pytest.raises(ValueError, match="unknown scheduling policy") as exc:
            simulate(graph, _ref_platform(), 64, policy="reverse-tid-test")
        assert all(name in str(exc.value) for name in POLICY_NAMES)
        assert len(POLICY_NAMES) == 5


class TestTraceMetadata:
    def test_policy_lands_in_chrome_trace(self):
        import json

        rep = _ref_report("critical-path")
        doc = json.loads(to_chrome_trace(rep.trace.events,
                                         metadata={"policy": rep.policy}))
        assert doc["metadata"] == {"policy": "critical-path"}
        assert doc["traceEvents"]

    def test_perfetto_writer_passthrough(self, tmp_path):
        import json

        from repro.obs import write_perfetto_trace

        rep = _ref_report("fifo")
        path = write_perfetto_trace(rep.trace.events, tmp_path / "t.json",
                                    metadata={"policy": rep.policy})
        doc = json.loads(path.read_text())
        assert doc["metadata"]["policy"] == "fifo"

    def test_no_metadata_key_without_metadata(self):
        import json

        rep = _ref_report(None)
        doc = json.loads(to_chrome_trace(rep.trace.events))
        assert "metadata" not in doc


class TestDistributedPolicyOrder:
    def test_global_order_shared_by_all_policies(self):
        from repro.core import build_cholesky_dag, uniform_map

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        for pol in POLICY_NAMES:
            order = policy_topological_order(dag.graph, pol, nb=16)
            assert sorted(order) == list(range(len(dag.graph)))

    def test_distributed_policy_matches_sequential(self, tiled_96):
        from repro.core import build_cholesky_dag, uniform_map
        from repro.runtime import execute_numeric
        from repro.runtime.distributed import execute_numeric_distributed
        from repro.tiles import ProcessGrid

        import numpy as np

        grid = ProcessGrid(2, 1)
        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64), grid=grid)
        seq = execute_numeric(dag.graph, tiled_96)
        dist = execute_numeric_distributed(
            dag.graph, tiled_96, grid.size, timeout=60.0, policy="critical-path"
        )
        assert np.array_equal(dist.lower_dense(), seq.lower_dense())


class TestNullStateThreading:
    """Regression battery for ``SchedulePolicy.key`` called without a
    ``SchedState``: both ``policy_topological_order`` and the parallel
    executor now thread the explicit null state (nothing resident), so
    residency-aware policies get a real state object instead of crashing
    or silently receiving ``None``."""

    def test_null_state_reports_nothing_resident(self):
        from repro.runtime.policies import SchedState

        state = SchedState.null()
        assert not state.resident(0, TileRef(0, 0, 1))
        assert not state.host_resident(0, TileRef(0, 0, 1))

    @pytest.mark.parametrize("pol", list(POLICY_NAMES))
    def test_topological_order_valid_per_policy(self, pol):
        from repro.core import build_cholesky_dag, two_precision_map as tpm

        dag = build_cholesky_dag(96 * 4, 96, tpm(4, Precision.FP16),
                                 grid=_ref_platform().process_grid())
        order = policy_topological_order(dag.graph, pol, nb=96,
                                         platform=_ref_platform())
        assert sorted(order) == list(range(len(dag.graph)))
        pos = {tid: k for k, tid in enumerate(order)}
        for tid in range(len(dag.graph)):
            for p in dag.graph.predecessors(tid):
                assert pos[p] < pos[tid], f"{pol}: {p} must precede {tid}"

    @pytest.mark.parametrize("pol", list(POLICY_NAMES))
    def test_topological_order_deterministic_per_policy(self, pol):
        from repro.core import build_cholesky_dag, uniform_map

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        a = policy_topological_order(dag.graph, pol, nb=16)
        b = policy_topological_order(dag.graph, pol, nb=16)
        assert a == b

    @pytest.mark.parametrize("pol", list(POLICY_NAMES))
    def test_parallel_executor_bit_identical_per_policy(self, pol, tiled_96):
        import numpy as np

        from repro.core import build_cholesky_dag, uniform_map
        from repro.runtime import execute_numeric
        from repro.runtime.parallel_executor import execute_numeric_parallel

        dag = build_cholesky_dag(96, 16, uniform_map(6, Precision.FP64))
        seq = execute_numeric(dag.graph, tiled_96)
        par = execute_numeric_parallel(dag.graph, tiled_96, n_threads=3, policy=pol)
        assert np.array_equal(par.lower_dense(), seq.lower_dense())
