"""A miniature Parameterized Task Graph (PTG) DSL.

PaRSEC's PTG (Section III-B) describes an algorithm as a collection of
*task classes*; each class declares its execution space (the set of
parameter tuples for which instances exist) and, per instance, the data
each task reads and writes.  The runtime then unrolls the task classes
into the concrete DAG.

This module provides the same shape in Python: a :class:`TaskClassSpec`
binds a kernel kind to an execution-space generator and a dataflow
function; :func:`unroll_stream` emits the classes' tasks one at a time
and :func:`unroll` collects that emission into a
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

    Raised by :func:`unroll_stream` (and so :func:`unroll`) when a task
    references a producer that has not been yielded yet: a cross-class
    forward reference, a dependency cycle, or a producer no class emits.
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
                    f"{inst.cls}{inst.params} reads from {producer_key} which has not "
                    "been emitted yet (forward reference, cycle or unknown producer)"
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


def unroll_stream(classes: Sequence[TaskClassSpec]) -> Iterator[Task]:
    """Lazily unroll task classes, yielding :class:`Task` objects.

    The emission order — class order, then each class's ``space`` order
    — must be topological: every instance reads only producers already
    yielded (the Cholesky PTG's k-major emission does).  Task ids are
    assigned densely in that order and the only retained state is the
    ``(class, params) → tid`` resolution map, so a consumer that retires
    tasks as it goes keeps live memory proportional to its window, not
    the DAG.

    Raises :class:`StreamOrderError` mid-iteration on a read of an
    unemitted producer and ``ValueError`` on duplicate instances.
    """
    tid_by_key: dict[tuple[str, tuple[int, ...]], int] = {}
    for spec in classes:
        for params in spec.space():
            inst = spec.instantiate(params)
            key = (inst.cls, inst.params)
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
            yield task


def unroll(classes: Sequence[TaskClassSpec]) -> TaskGraph:
    """Collect :func:`unroll_stream` into a finalized :class:`TaskGraph`.

    Same emission order, same task ids, same errors: the graph a lazy
    consumer of the stream sees task by task, held whole.
    """
    graph = TaskGraph()
    for task in unroll_stream(classes):
        graph.add(task)
    graph.finalize()
    return graph
