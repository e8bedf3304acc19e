"""Pluggable scheduling policies for the task runtime.

The paper's performance results hinge on PaRSEC's asynchronous
priority-driven scheduler overlapping communication, conversion, and
compute; which tasks the scheduler favours when several are ready at
once is exactly the scheduler-sensitivity behind the STC-vs-TTC
comparisons (Section V) and the lookahead discussion of the tile-centric
mixed-precision GEMM line of work.  This module makes that choice a
first-class, swappable object instead of a heuristic hard-coded in
:func:`repro.runtime.simulator.simulate`.

A :class:`SchedulePolicy` ranks *ready* tasks: the simulator (and the
numeric executors) keep a heap of ready tasks keyed by the explicit
triple ``(*policy.key(task, ready_t), tid)`` — the policy owns the
first two comparator fields, the task id always closes the key so every
policy is fully deterministic.  Only tasks whose predecessors have all
been scheduled enter the heap, so a policy can change *timing*
(makespan, overlap, cache behaviour) but never *numerics* (every task
still consumes exactly the payloads its inputs name).

Shipped policies
----------------
``panel-first``    the classic Cholesky priority (panel tasks of earlier
                   iterations first) the simulator always used; the
                   default, and regression-pinned to be bit-identical to
                   the pre-policy scheduler.
``fifo``           degenerate baseline: ready ties broken by task id
                   (submission order) only.
``critical-path``  priorities from a backward longest-path pass over the
                   task graph under the perfmodel cost estimates: among
                   ready tasks, the one with the longest remaining
                   dependent chain is committed first (HEFT's upward
                   rank restricted to owner-computes) — the lookahead
                   that keeps the panel chain ahead of trailing updates.
``comm-aware-eft`` earliest-finish-time: ready tasks are ordered by
                   their estimated completion instant — ready time plus
                   h2d/NIC staging for inputs not resident on the owning
                   GPU, datatype conversions, and the kernel — so tasks
                   whose tiles are hot on their GPU go first and stay
                   resident.

A custom policy: subclass :class:`SchedulePolicy`, implement ``key``
(and optionally ``prepare``), and pass an *instance* wherever a
``policy=`` argument takes a name.  See ``docs/SCHEDULING.md``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..perfmodel.kernels import conversion_time, kernel_time
from ..precision.formats import bytes_per_element

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .platform import Platform
    from .task import Task, TaskGraph

__all__ = [
    "SchedulePolicy",
    "SchedState",
    "ReadyFrontier",
    "PanelFirstPolicy",
    "FifoPolicy",
    "CriticalPathPolicy",
    "CommAwareEftPolicy",
    "OocStaticPolicy",
    "POLICY_NAMES",
    "get_policy",
    "resolve_policy",
]


@dataclass
class SchedState:
    """Read-only snapshot of simulator state a policy may consult.

    Only :class:`CommAwareEftPolicy` uses it today.
    ``resident(rank, key)`` answers whether a payload key already sits
    in ``rank``'s GPU cache; ``host_resident(node, key)`` whether the
    node's host memory holds it.

    Callers without a memory-hierarchy model (the numeric executors,
    graph-level orderings) pass :meth:`null` — an explicit
    nothing-is-resident state — rather than ``None``, so a
    residency-aware policy degrades to its *pessimistic* static
    estimate deterministically instead of silently losing the state
    argument.  A policy must still tolerate ``state=None`` (same
    static fallback) for direct callers.
    """

    resident: Callable[[int, tuple], bool]
    host_resident: Callable[[int, tuple], bool]

    @staticmethod
    def null() -> "SchedState":
        """The explicit no-residency-information state.

        Every payload reports non-resident, so e.g. ``comm-aware-eft``
        charges full staging for all inputs — a deterministic,
        graph-only score suitable outside the simulator
        (:class:`ReadyFrontier`).
        """
        return SchedState(
            resident=lambda rank, key: False,
            host_resident=lambda node, key: False,
        )


class ReadyFrontier:
    """The ready set of a held graph under a policy, outside the simulator.

    Kahn's algorithm as an object: a task is ready once
    :meth:`complete` has been called for every predecessor, and
    :meth:`pop` hands out ready tasks in ``(*policy.key, tid)`` order.
    There is no engine/cache model at this level, so keys are taken at
    ready time 0 against the explicit :meth:`SchedState.null` state —
    deterministic and the same on every rank.  ``policy`` must already
    be prepared.  Not thread-safe: concurrent callers hold their own
    lock around ``pop``/``complete``.
    """

    def __init__(self, graph: "TaskGraph", policy: "SchedulePolicy") -> None:
        self._graph = graph
        self._key = policy.key
        self._state = SchedState.null()
        self._in_count = [len(graph.predecessors(t)) for t in range(len(graph))]
        self._heap: list[tuple[float, float, int]] = []
        #: tasks not yet completed
        self.remaining = len(graph)
        for tid, pending in enumerate(self._in_count):
            if pending == 0:
                self._push(tid)

    def _push(self, tid: int) -> None:
        heapq.heappush(self._heap, (*self._key(self._graph.tasks[tid], 0.0, self._state), tid))

    def pop(self) -> int | None:
        """The most preferred ready task, or ``None`` when none is ready."""
        return heapq.heappop(self._heap)[-1] if self._heap else None

    def complete(self, tid: int) -> None:
        """``tid`` has finished: successors it was the last to block become ready."""
        self.remaining -= 1
        in_count = self._in_count
        for succ in self._graph.successors(tid):
            in_count[succ] -= 1
            if in_count[succ] == 0:
                self._push(succ)


class SchedulePolicy:
    """Orders the ready heap; lower keys pop (= commit to their engine) first."""

    #: registry name; subclasses must override
    name: str = "abstract"

    #: True when ``prepare`` precomputes per-task data over the whole
    #: graph (upward ranks, static costs) — such policies cannot drive
    #: :func:`repro.runtime.simulator.simulate_stream`, which never
    #: materialises the graph.
    requires_full_graph: bool = False

    def prepare(self, graph: "TaskGraph", platform: "Platform | None", nb: int) -> None:
        """Precompute whatever ``key`` needs; called once per run."""

    def key(
        self, task: "Task", ready_t: float, state: SchedState | None = None
    ) -> tuple[float, float]:
        """The first two heap-comparator fields for a ready ``task``.

        The scheduler appends ``task.tid`` as the final field, so the
        full comparator is the explicit triple ``(*key, tid)``.  A task
        enters the heap only once all its predecessors are scheduled;
        popping in any order is a valid schedule, so the key expresses
        pure preference (which ready task each engine commits to next).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class PanelFirstPolicy(SchedulePolicy):
    """The original scheduler: ready-time order, ties by static priority.

    Comparator ``(ready, task.priority, tid)`` — for the Cholesky PTG
    the priority field is ``4·k + kind``, so panel tasks (POTRF/TRSM) of
    earlier iterations sort before trailing updates among equal-ready
    tasks.  This policy is pinned bit-identical to the pre-policy
    simulator.
    """

    name = "panel-first"

    def key(
        self, task: "Task", ready_t: float, state: SchedState | None = None
    ) -> tuple[float, float]:
        return (ready_t, task.priority)


class FifoPolicy(SchedulePolicy):
    """Degenerate baseline: ready-time order, ties by task id alone."""

    name = "fifo"

    def key(
        self, task: "Task", ready_t: float, state: SchedState | None = None
    ) -> tuple[float, float]:
        return (ready_t, 0.0)


def _task_cost(task: "Task", platform: "Platform | None", nb: int) -> float:
    """Perfmodel seconds charged to ``task``'s compute stream.

    Kernel time plus every conversion pass the simulator will bill the
    task (receiver-side re-encodes and the one-off STC pass), priced on
    the platform GPU — the same :mod:`repro.perfmodel` estimates the
    simulator itself uses, so graph-level longest paths are commensurate
    with simulated makespans.  Without a platform (numeric executors)
    the cost degrades to flops, which preserves the ordering intent.
    """
    if platform is None:
        return float(task.flops)
    from ..core.conversion import needs_conversion

    gpu = platform.gpu
    seconds = kernel_time(gpu, task.kind, nb, task.precision)
    for inp in task.inputs:
        if needs_conversion(inp.payload_precision, task.precision, inp.role):
            seconds += conversion_time(gpu, inp.elements, inp.payload_precision, task.precision)
    if task.sender_conversion is not None:
        src, dst = task.sender_conversion
        seconds += conversion_time(gpu, nb * nb, src, dst)
    return seconds


class CriticalPathPolicy(SchedulePolicy):
    """Backward longest-path (upward-rank) lookahead.

    ``rank_u(t) = cost(t) + max over successors of rank_u(s)`` — the
    length of the longest dependent chain hanging off each task under
    the perfmodel cost estimates.  The comparator is
    ``(-rank_u, ready, tid)``: among ready tasks, the one with the most
    remaining critical work is committed to its engine first even when a
    shorter task became ready earlier — the list-scheduling counterpart
    of PaRSEC's critical-path lookahead, which keeps panel chains ahead
    of trailing updates.  The same longest-path structure is what
    :func:`repro.obs.analysis.critical_path` recovers from a finished
    trace; here the pass runs a priori on the graph.
    """

    name = "critical-path"
    requires_full_graph = True

    def __init__(self) -> None:
        self._upward: list[float] = []

    def prepare(self, graph: "TaskGraph", platform: "Platform | None", nb: int) -> None:
        n = len(graph)
        upward = [0.0] * n
        # task ids are topological (TaskGraph.add enforces producer < consumer),
        # so one reverse sweep is the whole backward pass
        for tid in range(n - 1, -1, -1):
            tail = max((upward[s] for s in graph.successors(tid)), default=0.0)
            upward[tid] = _task_cost(graph.tasks[tid], platform, nb) + tail
        self._upward = upward

    def key(
        self, task: "Task", ready_t: float, state: SchedState | None = None
    ) -> tuple[float, float]:
        return (-self._upward[task.tid], ready_t)


class CommAwareEftPolicy(SchedulePolicy):
    """Earliest-finish-time with per-input staging charges.

    Each ready task is keyed by its estimated completion instant: ready
    time plus the seconds it still needs — every input payload not
    resident on the owning GPU is charged its h2d copy (plus the
    producer's d2h and one NIC hop when the consumer node's host doesn't
    hold it either), conversions and the kernel are priced by the
    perfmodel — and the earliest-finishing task commits first.  Hot
    tiles — inputs already on the GPU — make a task cheap, so it runs
    before the LRU can evict them; cold tasks sort later, batching their
    transfers.  Residency is snapshotted when the task enters the heap.
    """

    name = "comm-aware-eft"
    requires_full_graph = True

    def __init__(self) -> None:
        self._platform: "Platform | None" = None
        self._nb = 0
        self._static: list[float] = []

    def prepare(self, graph: "TaskGraph", platform: "Platform | None", nb: int) -> None:
        self._platform = platform
        self._nb = nb
        self._static = [_task_cost(t, platform, nb) for t in graph.tasks]

    def key(
        self, task: "Task", ready_t: float, state: SchedState | None = None
    ) -> tuple[float, float]:
        seconds = self._static[task.tid]
        platform = self._platform
        if platform is None or state is None:
            return (ready_t + seconds, 0.0)
        gpu = platform.gpu
        link_lat = gpu.host_link_latency
        link_bw = gpu.host_link_bandwidth
        nic_lat = platform.node.nic_latency
        nic_bw = platform.node.nic_bandwidth
        node = platform.node_of(task.rank)
        for inp in task.inputs:
            key = (inp.tile.i, inp.tile.j, inp.tile.version, inp.payload_precision)
            if state.resident(task.rank, key):
                continue
            nbytes = inp.elements * bytes_per_element(inp.payload_precision)
            seconds += link_lat + nbytes / link_bw  # h2d at the consumer
            if not state.host_resident(node, key):
                # producer's d2h plus (pessimistically) one NIC hop
                seconds += link_lat + nbytes / link_bw
                seconds += nic_lat + nbytes / nic_bw
        return (ready_t + seconds, 0.0)


class OocStaticPolicy(SchedulePolicy):
    """Residency-driven ordering for out-of-core (larger-than-memory) runs.

    Among ready tasks, prefer the one whose inputs would move the fewest
    bytes *right now*: GPU-resident inputs are free, host-resident
    inputs cost their h2d copy, and inputs that fell out of both tiers
    (disk spill or a remote origin) are weighted by the full re-stage
    chain.  Hot tiles are therefore consumed while they are still
    resident — before the LRU can shed them — which is what minimises
    eviction and spill traffic when device+host capacity cannot hold the
    working set (the static-residency planning of arXiv 2410.09819,
    folded into list scheduling).  Ties break on ready time, then the
    panel priority, so in-memory runs degrade to a panel-ish order.

    Frontier-local (``requires_full_graph = False``): the score uses
    only the task's own inputs plus the live residency snapshot, so the
    policy drives :func:`~repro.runtime.simulator.simulate_stream` —
    out-of-core *and* out-of-DAG at once.
    """

    name = "ooc-static"

    #: re-stage chain weight for an input resident in neither tier:
    #: d2h/disk at the origin, a possible NIC hop, then h2d — several
    #: link crossings vs the single h2d of a host hit
    MISS_WEIGHT = 4.0

    def __init__(self) -> None:
        self._platform: "Platform | None" = None

    def prepare(self, graph: "TaskGraph", platform: "Platform | None", nb: int) -> None:
        self._platform = platform

    def key(
        self, task: "Task", ready_t: float, state: SchedState | None = None
    ) -> tuple[float, float]:
        platform = self._platform
        if platform is None or state is None:
            return (ready_t, task.priority)
        rank = task.rank
        node = platform.node_of(rank)
        penalty = 0.0
        for inp in task.inputs:
            key = (inp.tile.i, inp.tile.j, inp.tile.version, inp.payload_precision)
            if state.resident(rank, key):
                continue
            nbytes = inp.elements * bytes_per_element(inp.payload_precision)
            if state.host_resident(node, key):
                penalty += nbytes
            else:
                penalty += self.MISS_WEIGHT * nbytes
        return (penalty, ready_t + 1e-9 * task.priority)


#: name -> policy class (instances are stateful per run)
_POLICIES: dict[str, type[SchedulePolicy]] = {
    cls.name: cls
    for cls in (PanelFirstPolicy, FifoPolicy, CriticalPathPolicy, CommAwareEftPolicy,
                OocStaticPolicy)
}

#: the shipped policy names (panel-first is the default)
POLICY_NAMES: tuple[str, ...] = tuple(_POLICIES)


def get_policy(name: str) -> SchedulePolicy:
    """A fresh policy instance for ``name``; raises on unknown names."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None


def resolve_policy(policy: "str | SchedulePolicy | None") -> SchedulePolicy:
    """Accept a policy name, instance, or None (→ the default policy)."""
    if policy is None:
        return PanelFirstPolicy()
    if isinstance(policy, SchedulePolicy):
        return policy
    return get_policy(policy)


def policy_topological_order(graph: "TaskGraph", policy: "str | SchedulePolicy | None",
                             *, nb: int = 0,
                             platform: "Platform | None" = None) -> list[int]:
    """A policy-guided topological order of the whole graph.

    A drain of :class:`ReadyFrontier`: a valid execution order that
    agrees with the policy's preferences, *globally consistent* across
    ranks — which is what the distributed executor needs for its
    deadlock-freedom induction (every blocking wait is for a task
    strictly earlier in this shared order).
    """
    pol = resolve_policy(policy)
    pol.prepare(graph, platform, nb)
    frontier = ReadyFrontier(graph, pol)
    order: list[int] = []
    while (tid := frontier.pop()) is not None:
        order.append(tid)
        frontier.complete(tid)
    if frontier.remaining:
        raise RuntimeError(f"cycle: ordered {len(order)}/{len(graph)} tasks")
    return order


# re-exported convenience: the cost model a graph-level lower bound uses
def graph_cost_lower_bound(graph: "TaskGraph", platform: "Platform", nb: int) -> float:
    """Critical-path lower bound on any schedule's makespan.

    The longest dependency chain under kernel-only perfmodel costs —
    conversions and transfers only add time, so every simulated makespan
    is ≥ this bound regardless of policy (property-tested).
    """
    gpu = platform.gpu
    return graph.critical_path_length(
        duration=lambda t: kernel_time(gpu, t.kind, nb, t.precision)
    )
