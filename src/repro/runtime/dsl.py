"""A miniature Parameterized Task Graph (PTG) DSL.

PaRSEC's PTG (Section III-B) describes an algorithm as a collection of
*task classes*; each class declares its execution space (the set of
parameter tuples for which instances exist) and, per instance, the data
each task reads and writes.  The runtime then unrolls the task classes
into the concrete DAG.

This module provides the same shape in Python: a :class:`TaskClassSpec`
binds a kernel kind to an execution-space generator and a dataflow
function, and :func:`unroll` materialises the classes into a
:class:`~repro.runtime.task.TaskGraph`.  The Cholesky PTG
(:mod:`repro.core.dag_cholesky`) is written against this API, keeping the
algorithm description (which tasks exist, what they touch) separate from
the runtime machinery — the productivity argument of the paper's DSL
section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..precision.formats import Precision
from .task import Task, TaskGraph, TaskInput, TileRef

__all__ = ["TaskInstance", "TaskClassSpec", "StreamOrderError", "unroll", "unroll_stream"]


class StreamOrderError(ValueError):
    """Emission order is not topological: an instance reads an unemitted producer.

    Raised by :func:`unroll_stream` when a task references a producer
    that has not been yielded yet (e.g. a cross-class forward
    reference).  :func:`unroll` with ``stream=True`` catches it and
    falls back to the materialising Kahn path.
    """


@dataclass
class TaskInstance:
    """One concrete task produced by a task class's dataflow function.

    ``reads`` lists ``(producer_key, tile, payload_precision,
    storage_precision, elements, role)`` where ``producer_key`` is the
    ``(class_name, params)`` of the producing instance or ``None`` for an
    original host tile, and ``role`` is ``"in"`` or ``"inout"``.
    """

    cls: str
    params: tuple[int, ...]
    rank: int
    precision: Precision
    flops: float
    writes: TileRef
    output_precision: Precision
    reads: list[
        tuple[tuple[str, tuple[int, ...]] | None, TileRef, Precision, Precision, int, str]
    ]
    sender_conversion: tuple[Precision, Precision] | None = None
    priority: int = 0


@dataclass
class TaskClassSpec:
    """One task class of the PTG.

    ``space`` yields the parameter tuples of all instances;
    ``instantiate`` maps a parameter tuple to a :class:`TaskInstance`.
    """

    name: str
    space: Callable[[], Iterable[tuple[int, ...]]]
    instantiate: Callable[[tuple[int, ...]], TaskInstance]


def _instance_inputs(
    inst: TaskInstance, tid_by_key: dict[tuple[str, tuple[int, ...]], int]
) -> list[TaskInput]:
    """Resolve an instance's reads against already-assigned task ids.

    Raises :class:`StreamOrderError` when a producer has no id yet —
    the signal that the emission order is not topological.
    """
    inputs: list[TaskInput] = []
    for producer_key, tile, payload_prec, storage_prec, elements, role in inst.reads:
        if producer_key is None:
            producer = None
        else:
            producer = tid_by_key.get(producer_key)
            if producer is None:
                raise StreamOrderError(
                    f"{inst.cls}{inst.params} reads from {producer_key} "
                    "which has not been emitted yet"
                )
        inputs.append(
            TaskInput(
                producer=producer,
                tile=tile,
                payload_precision=payload_prec,
                storage_precision=storage_prec,
                elements=elements,
                role=role,
            )
        )
    return inputs


def _emit_task(
    key: tuple[str, tuple[int, ...]],
    inst: TaskInstance,
    tid_by_key: dict[tuple[str, tuple[int, ...]], int],
) -> Task:
    """Mint the next :class:`Task` (dense tid) from ``inst`` and record its id under ``key``.

    Both unroll paths build their tasks here, in their emission order.
    """
    if key in tid_by_key:
        raise ValueError(f"duplicate task instance {key}")
    task = Task(
        tid=len(tid_by_key),
        kind=inst.cls,
        params=inst.params,
        rank=inst.rank,
        precision=inst.precision,
        flops=inst.flops,
        output=inst.writes,
        output_precision=inst.output_precision,
        inputs=_instance_inputs(inst, tid_by_key),
        sender_conversion=inst.sender_conversion,
        priority=inst.priority,
    )
    tid_by_key[key] = task.tid
    return task


def unroll_stream(classes: Sequence[TaskClassSpec]) -> Iterator[Task]:
    """Lazily unroll task classes, yielding :class:`Task` objects.

    The generator counterpart of :func:`unroll` for PTGs whose emission
    order (class order, then each class's ``space`` order) is already
    topological — the Cholesky PTG's k-major emission is.  Task ids are
    assigned densely in emission order and no global instance list,
    ``index_by_key`` map, or Kahn structures are built: the only
    retained state is the ``(class, params) → tid`` resolution map, so
    a consumer that retires tasks as it goes keeps live memory
    proportional to its window, not the DAG.

    Raises :class:`StreamOrderError` mid-iteration on a forward
    reference (use :func:`unroll` with ``stream=True`` for the
    materialising fallback) and ``ValueError`` on duplicate instances.
    """
    tid_by_key: dict[tuple[str, tuple[int, ...]], int] = {}
    for spec in classes:
        for params in spec.space():
            inst = spec.instantiate(params)
            yield _emit_task((inst.cls, inst.params), inst, tid_by_key)


def unroll(classes: Sequence[TaskClassSpec], *, stream: bool = False) -> TaskGraph:
    """Materialise task classes into a finalized :class:`TaskGraph`.

    With ``stream=False`` (default) all instances are collected first,
    then topologically ordered by their dataflow (Kahn's algorithm,
    stable with respect to emission order), so task classes may
    reference each other freely — e.g. POTRF(k) reading the SYRK output
    of the previous iteration.  Raises ``ValueError`` on unknown
    producers or dependency cycles.

    With ``stream=True`` the graph is built incrementally from
    :func:`unroll_stream` — one pass, no instance list or Kahn
    structures — when the emission order is already topological; a
    forward reference triggers a silent fallback to the materialising
    path (``space`` callables must therefore be re-invokable).  For a
    topologically-emitted PTG both paths produce bit-identical graphs:
    Kahn's heap, keyed on emission index, pops ready task *i* only
    after 0..i-1, so its output order is the emission order itself.
    """
    if stream:
        graph = TaskGraph()
        try:
            for task in unroll_stream(classes):
                graph.append(task)
        except StreamOrderError:
            return unroll(classes)
        graph.finalize()
        return graph
    instances: list[TaskInstance] = []
    index_by_key: dict[tuple[str, tuple[int, ...]], int] = {}
    for spec in classes:
        for params in spec.space():
            inst = spec.instantiate(params)
            key = (inst.cls, inst.params)
            if key in index_by_key:
                raise ValueError(f"duplicate task instance {key}")
            index_by_key[key] = len(instances)
            instances.append(inst)

    n = len(instances)
    preds: list[list[int]] = [[] for _ in range(n)]
    out_degree_order: list[list[int]] = [[] for _ in range(n)]
    in_count = [0] * n
    for idx, inst in enumerate(instances):
        for producer_key, *_rest in inst.reads:
            if producer_key is None:
                continue
            if producer_key not in index_by_key:
                raise ValueError(f"{inst.cls}{inst.params} reads from unknown producer {producer_key}")
            p = index_by_key[producer_key]
            preds[idx].append(p)
            out_degree_order[p].append(idx)
            in_count[idx] += 1

    # Kahn's algorithm, preferring emission order for determinism
    import heapq

    ready = [i for i in range(n) if in_count[i] == 0]
    heapq.heapify(ready)
    topo: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        topo.append(i)
        for s in out_degree_order[i]:
            in_count[s] -= 1
            if in_count[s] == 0:
                heapq.heappush(ready, s)
    if len(topo) != n:
        raise ValueError("task classes form a dependency cycle")

    graph = TaskGraph()
    keys = list(index_by_key)  # insertion order is emission order: keys[i] names instances[i]
    tid_by_key: dict[tuple[str, tuple[int, ...]], int] = {}
    for i in topo:
        graph.add(_emit_task(keys[i], instances[i], tid_by_key))
    graph.finalize()
    return graph
