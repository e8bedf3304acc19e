"""Pluggable scheduling policies for the task runtime.

The paper's performance results hinge on PaRSEC's asynchronous
priority-driven scheduler overlapping communication, conversion, and
compute; which tasks the scheduler favours when several are ready at
once is exactly the scheduler-sensitivity behind the STC-vs-TTC
comparisons (Section V) and the lookahead discussion of the tile-centric
mixed-precision GEMM line of work.  This module makes that choice a
first-class, swappable object instead of a heuristic hard-coded in
:func:`repro.runtime.simulator.simulate`.

A :class:`SchedulePolicy` is the comparator of the simulator's ready
heap, keyed by the explicit triple ``(*policy.key(task, ready_t,
state), tid)`` — the policy owns the first two comparator fields, the
task id always closes the key so every policy is fully deterministic.
Only tasks whose predecessors have all been scheduled enter the heap,
so a policy changes *timing* (makespan, overlap, cache behaviour) and
nothing else; the numeric executors take no policy.

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
``ooc-static``     out-of-core: the task whose inputs move the fewest
                   bytes given the live GPU/host residency goes first.

A custom policy: subclass :class:`SchedulePolicy`, implement ``key``
(and optionally ``prepare``), and pass an *instance* wherever a
``policy=`` argument takes a name.  See ``docs/SCHEDULING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..perfmodel.kernels import conversion_time, kernel_time
from ..precision.formats import Precision, bytes_per_element

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .platform import Platform
    from .task import Task, TaskGraph

__all__ = [
    "SchedulePolicy",
    "SchedState",
    "PanelFirstPolicy",
    "FifoPolicy",
    "CriticalPathPolicy",
    "CommAwareEftPolicy",
    "OocStaticPolicy",
    "POLICY_NAMES",
    "resolve_policy",
]


@dataclass
class SchedState:
    """Read-only snapshot of simulator state a policy may consult.

    The residency-aware policies (``comm-aware-eft``, ``ooc-static``)
    read it; the simulator passes its live state to every ``key`` call.
    ``resident(rank, key)`` answers whether a payload already sits in
    ``rank``'s GPU cache; ``host_resident(node, key)`` whether the node's
    host memory holds it.  ``key`` is the payload's int
    :func:`~repro.runtime.task.payload_key`: an input's ``inp.key``.
    """

    resident: Callable[[int, int], bool]
    host_resident: Callable[[int, int], bool]


class SchedulePolicy:
    """Orders the ready heap; lower keys pop (= commit to their engine) first."""

    #: registry name; subclasses must override
    name: str = "abstract"

    #: True when ``prepare`` precomputes per-task data over the whole
    #: graph (upward ranks, static costs) — such policies cannot drive
    #: :func:`repro.runtime.simulator.simulate_stream`, which never
    #: materialises the graph.
    requires_full_graph: bool = False

    def prepare(self, graph: "TaskGraph", platform: "Platform", nb: int) -> None:
        """Precompute whatever ``key`` needs; called once per run."""

    def key(self, task: "Task", ready_t: float, state: SchedState) -> tuple[float, float]:
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

    def key(self, task: "Task", ready_t: float, state: SchedState) -> tuple[float, float]:
        return (ready_t, task.priority)


class FifoPolicy(SchedulePolicy):
    """Degenerate baseline: ready-time order, ties by task id alone."""

    name = "fifo"

    def key(self, task: "Task", ready_t: float, state: SchedState) -> tuple[float, float]:
        return (ready_t, 0.0)


def _task_cost(task: "Task", platform: "Platform", nb: int) -> float:
    """Perfmodel seconds charged to ``task``'s compute stream.

    Kernel time plus every conversion pass the simulator will bill the
    task (receiver-side re-encodes and the one-off STC pass), priced on
    the platform GPU — the same :mod:`repro.perfmodel` estimates the
    simulator itself uses, so graph-level longest paths are commensurate
    with simulated makespans.
    """
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

    def prepare(self, graph: "TaskGraph", platform: "Platform", nb: int) -> None:
        n = len(graph)
        upward = [0.0] * n
        # task ids are topological (TaskGraph.add enforces producer < consumer),
        # so one reverse sweep is the whole backward pass
        for tid in range(n - 1, -1, -1):
            tail = max((upward[s] for s in graph.successors(tid)), default=0.0)
            upward[tid] = _task_cost(graph.tasks[tid], platform, nb) + tail
        self._upward = upward

    def key(self, task: "Task", ready_t: float, state: SchedState) -> tuple[float, float]:
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
        self._static: list[float] = []

    def prepare(self, graph: "TaskGraph", platform: "Platform", nb: int) -> None:
        self._platform = platform
        self._static = [_task_cost(t, platform, nb) for t in graph.tasks]

    def key(self, task: "Task", ready_t: float, state: SchedState) -> tuple[float, float]:
        seconds = self._static[task.tid]
        platform = self._platform
        gpu = platform.gpu
        link_lat = gpu.host_link_latency
        link_bw = gpu.host_link_bandwidth
        nic_lat = platform.node.nic_latency
        nic_bw = platform.node.nic_bandwidth
        node = platform.node_of(task.rank)
        for inp in task.inputs:
            key = inp.key
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
        self._gpus_per_node = 1

    def prepare(self, graph: "TaskGraph", platform: "Platform", nb: int) -> None:
        self._gpus_per_node = platform.node.gpus_per_node

    def key(self, task: "Task", ready_t: float, state: SchedState) -> tuple[float, float]:
        rank = task.rank
        node = rank // self._gpus_per_node  # Platform.node_of, on a rank the engine checked
        resident, host_resident = state.resident, state.host_resident
        penalty = 0.0
        for inp in task.inputs:
            key = inp.key
            if resident(rank, key):
                continue
            nbytes = inp.elements * _BYTES_PER_ELEMENT[inp.payload_precision]
            if host_resident(node, key):
                penalty += nbytes
            else:
                penalty += self.MISS_WEIGHT * nbytes
        return (penalty, ready_t + 1e-9 * task.priority)


#: format -> bytes per element, for the per-input residency charges
_BYTES_PER_ELEMENT = {p: bytes_per_element(p) for p in Precision}

#: name -> policy class (instances are stateful per run)
_POLICIES: dict[str, type[SchedulePolicy]] = {
    cls.name: cls
    for cls in (PanelFirstPolicy, FifoPolicy, CriticalPathPolicy, CommAwareEftPolicy,
                OocStaticPolicy)
}

#: the shipped policy names (panel-first is the default)
POLICY_NAMES: tuple[str, ...] = tuple(_POLICIES)


def resolve_policy(policy: "str | SchedulePolicy | None") -> SchedulePolicy:
    """A policy instance for a name (a fresh one), an instance (itself),
    or ``None`` (the default, panel-first); raises on unknown names."""
    if policy is None:
        return PanelFirstPolicy()
    if isinstance(policy, SchedulePolicy):
        return policy
    try:
        return _POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; expected one of {sorted(_POLICIES)}"
        ) from None

