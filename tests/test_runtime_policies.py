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

from repro.core import build_cholesky_dag, simulate_cholesky, two_precision_map
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
    simulate,
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
            pol = resolve_policy(name)
            assert isinstance(pol, SchedulePolicy) and pol.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            resolve_policy("hope-for-the-best")

    def test_resolve(self):
        assert isinstance(resolve_policy(None), PanelFirstPolicy)
        assert isinstance(resolve_policy("fifo"), FifoPolicy)
        inst = CriticalPathPolicy()
        assert resolve_policy(inst) is inst

    def test_fresh_instance_per_call(self):
        assert resolve_policy("critical-path") is not resolve_policy("critical-path")


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
            output=(tid, 0, 1),
            output_precision=Precision.FP64,
            inputs=[TaskInput(None, (tid, 1, 0),
                              Precision.FP64, Precision.FP64, 64 * 64)],
            priority=prio,
        )
    graph.finalize()
    return graph


def _commit_order(graph, policy):
    return simulate(graph, _ref_platform(), 64, policy=policy).commit_order


class TestTieBreaking:
    """The comparator is the explicit triple (ready, priority, tid)."""

    def test_priority_breaks_ready_ties(self):
        graph = _chain_free_graph([5, 5, 1])
        assert _commit_order(graph, "panel-first") == [2, 0, 1]

    def test_tid_breaks_priority_ties(self):
        graph = _chain_free_graph([3, 3, 3])
        assert _commit_order(graph, "panel-first") == [0, 1, 2]
        assert _commit_order(graph, "fifo") == [0, 1, 2]

    def test_fifo_ignores_priority(self):
        graph = _chain_free_graph([9, 0, 4])
        assert _commit_order(graph, "fifo") == [0, 1, 2]

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


class TestFifoIsPanelFirstOnCholesky:
    """On a k-major Cholesky DAG ``fifo`` and ``panel-first`` commit the
    same order: both pop the earliest-ready task, and among equal-ready
    ones ``(priority, tid)`` is ``tid`` order because the priority
    ``4k + kind`` never decreases with the task id.  The scheduler
    ablation's two rows are equal by construction."""

    def test_priority_never_decreases_with_tid(self):
        dag = build_cholesky_dag(8192, 512, two_precision_map(16, Precision.FP16))
        priorities = [task.priority for task in dag.graph.tasks]
        assert priorities == sorted(priorities)

    @pytest.mark.parametrize("stream", [False, True], ids=["held", "streamed"])
    @pytest.mark.parametrize("gpus,nodes,host_gb,nb", [
        (1, 1, 256.0, 1024),
        (3, 2, 256.0, 512),   # multi-node: remote panels cross the NIC
        (1, 1, 0.1, 1024),    # a starved host: evictions reorder nothing
    ], ids=["1gpu", "2x3gpu", "starved-host"])
    def test_same_commit_order(self, gpus, nodes, host_gb, nb, stream):
        platform = Platform.of_gpus(GPU_BY_NAME["V100"], gpus, nodes,
                                    host_memory=host_gb * 1e9)
        kmap = two_precision_map(8192 // nb, Precision.FP16)
        pf, ff = (simulate_cholesky(8192, nb, kmap, platform, record_events=False,
                                    policy=policy, stream=stream)
                  for policy in ("panel-first", "fifo"))
        assert pf.commit_order == ff.commit_order
        assert pf.makespan == ff.makespan
        if host_gb < 1:
            assert pf.stats.n_host_evictions > 0


class TestCustomPolicy:
    def test_register_and_use(self):
        """A custom policy is passed as an instance and reported by its
        ``name``; the names a string may spell stay the shipped five."""

        class ReverseTid(SchedulePolicy):
            name = "reverse-tid-test"

            def key(self, task, ready_t, state):
                return (ready_t, -task.tid)

        graph = _chain_free_graph([0, 0, 0])
        rep = simulate(graph, _ref_platform(), 64, policy=ReverseTid())
        assert rep.commit_order == [2, 1, 0]
        assert rep.policy == "reverse-tid-test"
        with pytest.raises(ValueError, match="unknown scheduling policy") as exc:
            simulate(graph, _ref_platform(), 64, policy="reverse-tid-test")
        assert all(name in str(exc.value) for name in POLICY_NAMES)
        assert len(POLICY_NAMES) == 5


class TestTraceMetadata:
    def test_policy_lands_in_chrome_trace(self, tmp_path):
        import json

        from repro.obs import write_perfetto_trace

        rep = _ref_report("critical-path")
        path = write_perfetto_trace(rep.trace.events, tmp_path / "t.json",
                                    metadata={"policy": rep.policy})
        doc = json.loads(path.read_text())
        assert doc["metadata"] == {"policy": "critical-path"}
        assert doc["traceEvents"]

    def test_perfetto_writer_passthrough(self, tmp_path):
        import json

        from repro.obs import load_trace_events, write_perfetto_trace

        rep = _ref_report("fifo")
        path = write_perfetto_trace(rep.trace.events, tmp_path / "t.json",
                                    metadata={"policy": rep.policy})
        doc = json.loads(path.read_text())
        assert doc["metadata"]["policy"] == "fifo"
        # the metadata rides beside the slices, not in place of any
        assert len(load_trace_events(path)) == len(rep.trace.events)

    def test_no_metadata_key_without_metadata(self, tmp_path):
        import json

        from repro.obs import write_perfetto_trace

        rep = _ref_report(None)
        doc = json.loads(write_perfetto_trace(rep.trace.events, tmp_path / "t.json").read_text())
        assert "metadata" not in doc
