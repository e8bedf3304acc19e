"""Task and task-graph representation (the PaRSEC DAG substrate).

PaRSEC represents an algorithm as a directed acyclic graph whose vertices
are tasks and whose edges are dataflow dependencies (Section III-B).  Our
:class:`TaskGraph` is the materialised equivalent: each :class:`Task`
carries its kernel kind, execution precision, owning rank (the GPU that
runs it, fixed by the block-cyclic owner of the tile it writes), flop
count, and the list of :class:`TaskInput` payloads it consumes.  A
``TaskInput`` names the producing task (or ``None`` for an original
matrix tile staged on the host), the tile/version it carries, and the
precision in which the payload travels — the quantity Algorithm 2
decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..precision.formats import Precision

__all__ = ["TileRef", "TaskInput", "Task", "TaskGraph"]


@dataclass(frozen=True)
class TileRef:
    """A specific version of one tile: the unit of dataflow."""

    i: int
    j: int
    version: int

    @property
    def coords(self) -> tuple[int, int]:
        return (self.i, self.j)


@dataclass(frozen=True)
class TaskInput:
    """One payload consumed by a task.

    ``producer`` is the task id that wrote this tile version, or ``None``
    when the payload is an original matrix tile resident on the host.
    ``payload_precision`` is the precision the data travels in (storage
    precision under TTC; Algorithm 2's communication precision under
    STC/AUTO).  ``storage_precision`` is the precision the data rests in
    at its source — the pair determines whether a sender-side conversion
    happened upstream.
    """

    producer: int | None
    tile: TileRef
    payload_precision: Precision
    storage_precision: Precision
    elements: int
    #: "in" for read-only operands, "inout" for the accumulator operand
    role: str = "in"


@dataclass
class Task:
    """One node of the DAG."""

    tid: int
    kind: str
    params: tuple[int, ...]
    rank: int
    precision: Precision
    flops: float
    output: TileRef
    output_precision: Precision
    inputs: list[TaskInput] = field(default_factory=list)
    #: sender-side conversion performed once by this task on its own
    #: output before broadcasting (STC); None when payload == storage.
    sender_conversion: tuple[Precision, Precision] | None = None
    #: scheduling priority: lower sorts earlier
    priority: int = 0

    @property
    def label(self) -> str:
        return f"{self.kind}{self.params}"


class TaskGraph:
    """A seal-after-construction DAG of :class:`Task` objects.

    :meth:`add` / :meth:`new_task` take tasks one at a time, producers
    before consumers, and wire the dependency edges as each task
    arrives — so :meth:`successors` / :meth:`predecessors` work on the
    graph built so far while more tasks are still being emitted.
    :meth:`finalize` seals the graph against further ``add``;
    :meth:`retire` drops a task's heavy payload once a consumer loop is
    done with it.  ``add``/``retire`` is the frontier API the streaming
    simulator consumes: live memory stays proportional to the emission
    window, not the DAG.

    Dependency edges are deduped: a task reading two tiles from the
    same producer contributes one predecessor/successor edge, so
    ``in_count`` bookkeeping and degree statistics count *tasks*, not
    payloads.
    """

    def __init__(self) -> None:
        self.tasks: list[Task | None] = []
        self._succs: list[list[int]] = []
        self._preds: list[list[int]] = []
        self._sealed = False
        self._n_retired = 0

    # -- construction ----------------------------------------------------
    def add(self, task: Task) -> int:
        """Add ``task`` and wire its (deduped, first-seen order) edges now.

        Task ids must be dense and every producer must already be
        present: emission order is topological by construction.
        """
        if self._sealed:
            raise RuntimeError("graph already finalized")
        tid = task.tid
        if tid != len(self.tasks):
            raise ValueError(f"task ids must be dense: got {tid}, expected {len(self.tasks)}")
        preds: list[int] = []
        for inp in task.inputs:
            p = inp.producer
            if p is None or p in preds:
                continue
            if not 0 <= p < tid:
                raise ValueError(f"task {tid} references unknown or later producer {p}")
            preds.append(p)
        self.tasks.append(task)
        self._succs.append([])
        self._preds.append(preds)
        for p in preds:
            self._succs[p].append(tid)
        return tid

    def new_task(self, **kwargs) -> Task:
        """Create, add, and return a task with the next id."""
        task = Task(tid=len(self.tasks), **kwargs)
        self.add(task)
        return task

    def retire(self, tid: int) -> None:
        """Release a consumed task's payload (streaming graphs).

        Drops the :class:`Task` object and its outgoing edge list; the
        integer predecessor lists stay (successors still need them for
        ready-time bookkeeping).  Whole-graph accessors
        (``total_flops``, iteration, …) are off-limits after the first
        retire — this is the tail end of the frontier API, meant for a
        consumer that has already folded the task into its own state.
        """
        self.tasks[tid] = None
        self._succs[tid] = []
        self._n_retired += 1

    @property
    def n_retired(self) -> int:
        return self._n_retired

    def finalize(self) -> None:
        """Seal the graph: no further :meth:`add`."""
        self._sealed = True

    # -- topology ----------------------------------------------------------
    def successors(self, tid: int) -> Sequence[int]:
        return self._succs[tid]

    def predecessors(self, tid: int) -> Sequence[int]:
        return self._preds[tid]

    def adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """``(preds, succs)`` lists, indexed by tid — for hot loops.

        Direct list access avoids a method call per edge in the
        simulator's ready-heap loop; callers must not mutate.
        """
        return self._preds, self._succs

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def topological_order(self) -> list[int]:
        """Task ids in a valid execution order.

        Task ids are assigned in construction order and producers must
        precede consumers (enforced in :meth:`add`), so the id order
        is itself topological.
        """
        return list(range(len(self.tasks)))

    def total_flops(self) -> float:
        return sum(t.flops for t in self.tasks)

    def flops_by_precision(self) -> dict[Precision, float]:
        out: dict[Precision, float] = {}
        for t in self.tasks:
            out[t.precision] = out.get(t.precision, 0.0) + t.flops
        return out

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.tasks:
            out[t.kind] = out.get(t.kind, 0) + 1
        return out

    def critical_path_length(self, duration=lambda task: 1.0) -> float:
        """Length of the longest path under a task-duration function."""
        dist = [0.0] * len(self.tasks)
        best = 0.0
        for tid in self.topological_order():
            task = self.tasks[tid]
            start = max((dist[p] for p in self.predecessors(tid)), default=0.0)
            dist[tid] = start + float(duration(task))
            best = max(best, dist[tid])
        return best
