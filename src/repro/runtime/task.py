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
decides.  ``TaskInput`` is an immutable named tuple, shared by every
consumer of a payload; a ``TileRef`` is a plain ``(i, j, version)`` int
tuple, which the cyclic GC stops tracking (a named tuple it never does).

Every payload is also one int, its *payload key*: :func:`payload_key` of
``(tile, payload precision)``, minted once when its ``TaskInput`` is built
(``inp.key``).  The simulator's tiers, links and residency probes and the
distributed ranks' message keys read that int, so no hot path rebuilds or
hashes an ``(i, j, version, precision)`` tuple.  :func:`key_payload` is the
inverse, for messages and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from ..precision.formats import Precision

__all__ = ["TileRef", "TaskInput", "Task", "TaskGraph", "KEY_FIELD_BITS", "payload_key",
           "key_payload"]

#: a specific version of one tile, ``(i, j, version)``: the unit of dataflow
TileRef = tuple[int, int, int]

#: a payload key holds each of ``i``, ``j`` and ``version`` in
#: ``[0, 2**KEY_FIELD_BITS)``; :func:`payload_key` raises outside it
KEY_FIELD_BITS = 19
#: code -> format: a payload key's precision is ``_PRECISION_OF_CODE[key & 7]``
_PRECISION_OF_CODE: tuple[Precision, ...] = tuple(sorted(Precision))
_N_CODES = len(_PRECISION_OF_CODE)


def payload_key(tile: TileRef, precision: Precision) -> int:
    """The one int naming the payload ``(i, j, version, precision)``.

    Injective on its bounds (``ValueError`` outside them, so two payloads
    never share a key) and a pure function of its arguments: a graph that
    writes one tile version twice, or a streamed or unpickled one, keys
    each payload alike.  The low 21 bits hold the precision code and the
    low six bits of ``i``, ``j`` and ``version``, the 39 above their high
    bits, so a dict's first probe spreads the keys of a few dozen tiles;
    the key stays below 2**61 − 1, its own hash.
    """
    i, j, v = tile
    if (i | j | v) >> KEY_FIELD_BITS or not 0 <= precision < _N_CODES:
        raise ValueError(
            f"payload {tile + (precision,)} is outside the key's bounds: i, j and version "
            f"in [0, {1 << KEY_FIELD_BITS}), a Precision"
        )
    return ((v >> 6 << 26 | j >> 6 << 13 | i >> 6) << 21
            | ((v & 63) << 12 | (j & 63) << 6 | i & 63) << 3 | precision)


def key_payload(key: int) -> tuple[int, int, int, Precision]:
    """``(i, j, version, precision)`` of a :func:`payload_key`."""
    high = key >> 21
    return ((high & 0x1FFF) << 6 | key >> 3 & 63,
            (high >> 13 & 0x1FFF) << 6 | key >> 9 & 63,
            high >> 26 << 6 | key >> 15 & 63,
            _PRECISION_OF_CODE[key & 7])


class _TaskInputFields(NamedTuple):
    producer: int | None
    tile: TileRef
    payload_precision: Precision
    storage_precision: Precision
    elements: int
    role: str
    key: int


class TaskInput(_TaskInputFields):
    """One payload consumed by a task.

    ``producer`` is the task id that wrote this tile version, or ``None``
    when the payload is an original matrix tile resident on the host.
    ``payload_precision`` is the precision the data travels in (storage
    precision under TTC; Algorithm 2's communication precision under
    STC/AUTO).  ``storage_precision`` is the precision the data rests in
    at its source — the pair determines whether a sender-side conversion
    happened upstream.  ``role`` is ``"in"`` for a read-only operand,
    ``"inout"`` for the accumulator.  ``key`` is not an argument: it is
    :func:`payload_key` of ``(tile, payload_precision)``, minted here.
    """

    __slots__ = ()

    def __new__(cls, producer: int | None, tile: TileRef, payload_precision: Precision,
                storage_precision: Precision, elements: int, role: str = "in") -> "TaskInput":
        return tuple.__new__(cls, (producer, tile, payload_precision, storage_precision,
                                   elements, role, payload_key(tile, payload_precision)))

    def __getnewargs__(self) -> tuple:
        """The constructor's arguments: pickling (spawn, forkserver) mints the key again."""
        return self[:6]

    def _replace(self, **fields) -> "TaskInput":
        if "key" in fields:
            raise ValueError("a TaskInput's key is derived, not set")
        args = [fields.pop(name, value) for name, value in zip(self._fields, self[:6])]
        return TaskInput(*args, **fields)


@dataclass(slots=True)
class Task:
    """One node of the DAG (slotted: no per-task ``__dict__``)."""

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
    :meth:`finalize` seals the graph against further ``add``.  ``add``
    plus dropping executed tasks from ``tasks`` is the frontier the
    streaming simulator keeps: live memory stays proportional to the
    emission window, not the DAG.

    Dependency edges are deduped (two reads of one producer are one
    edge), so ``in_count`` bookkeeping counts *tasks*, not payloads.  A
    task's predecessors are computed from its own inputs; successors are
    one forward star of flat int lists, so the graph holds no per-task
    container for the garbage collector to trace.
    """

    def __init__(self) -> None:
        self.tasks: list[Task | None] = []
        #: the forward star: per task its first and last outgoing edge, per
        #: edge its consumer and the producer's next edge (-1: none)
        self._head, self._tail, self._dst, self._next = [], [], [], []
        self._sealed = False

    # -- construction ----------------------------------------------------
    def add(self, task: Task) -> int:
        """Add ``task`` and wire its (deduped, first-seen order) edges now.

        Task ids must be dense and every producer must already be
        present: emission order is topological by construction.
        """
        if self._sealed:
            raise RuntimeError("graph already finalized")
        tid = task.tid
        tasks = self.tasks
        if tid != len(tasks):
            raise ValueError(f"task ids must be dense: got {tid}, expected {len(tasks)}")
        inputs = task.inputs
        for inp in inputs:  # validate all before touching the graph
            p = inp.producer
            if p is not None and not 0 <= p < tid:
                raise ValueError(f"task {tid} references unknown or later producer {p}")
        tasks.append(task)
        head, tail, dst, nxt = self._head, self._tail, self._dst, self._next
        head.append(-1)
        tail.append(-1)
        for inp in inputs:
            p = inp.producer
            if p is None:
                continue  # a host tile
            last = tail[p]
            if last >= 0 and dst[last] == tid:
                continue  # a repeated producer: one edge
            edge = tail[p] = len(dst)
            dst.append(tid)
            nxt.append(-1)
            if last < 0:
                head[p] = edge
            else:
                nxt[last] = edge
        return tid

    def new_task(self, **kwargs) -> Task:
        """Create, add, and return a task with the next id."""
        return self.tasks[self.add(Task(tid=len(self.tasks), **kwargs))]

    def finalize(self) -> None:
        """Seal the graph: no further :meth:`add`."""
        self._sealed = True

    # -- topology ----------------------------------------------------------
    def successors(self, tid: int) -> list[int]:
        out, edge = [], self._head[tid]
        while edge >= 0:
            out.append(self._dst[edge])
            edge = self._next[edge]
        return out

    def predecessors(self, tid: int) -> list[int]:
        out: list[int] = []
        for inp in self.tasks[tid].inputs:
            p = inp.producer
            if p is not None and p not in out:
                out.append(p)
        return out

    def forward_star(self) -> tuple[list[int], list[int], list[int]]:
        """``(head, dst, next)`` for hot loops: ``t``'s successors are ``dst[e]``
        for ``e = head[t]``, ``next[e]``, … until ``-1``.  Read only; the
        lists grow in place under :meth:`add`, so references stay current."""
        return self._head, self._dst, self._next

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
        dist = [0.0] * len(self.tasks)  # task ids are topological
        for tid, task in enumerate(self.tasks):
            start = max((dist[p] for p in self.predecessors(tid)), default=0.0)
            dist[tid] = start + float(duration(task))
        return max(dist, default=0.0)
