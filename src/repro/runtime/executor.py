"""Numeric execution of a Cholesky task graph.

The simulator prices a DAG in time; this module *computes* it, running the
same task graph through the numeric tile kernels with payload
quantisation applied exactly where the conversion strategy puts it.  It
exists so tests can assert that the DAG the PTG unrolls is the same
algorithm as the sequential reference (:func:`repro.core.cholesky.mp_cholesky`)
— same dataflow, bit-identical results — and runs it at about that
reference's cost.

Pure-FP16 GEMM tasks run in stacks, by the rule ``mp_cholesky`` follows
(:class:`repro.tiles.kernels.Fp16Stacks`): independent ones on tiles of
one shape go through one stacked ``tk.gemm`` (:func:`_execute_tasks`),
each tile with the bits it gets on its own.  The sequential executor
holds a stack open until a task reads a tile version one of its updates
will write — a check on the graph's inputs, nothing Cholesky-specific;
a thread of the pool stacks the ready FP16 GEMMs it takes together; a
distributed rank runs one task at a time.  A stack is one ``task`` span
carrying its task count.

Memory rule, shared by all three executors through one store
(:class:`_Values`): a tile version lives until its last reader has run,
then it is dropped unless it is its tile's latest version, the output.
The peak is O(live tiles), not the O(NT³/6) versions a factorization makes.
The input matrix is only read: version 0 of a tile is seeded from it at
its storage precision, the input's own array when that is its dtype (no
kernel writes into an operand).

The returned matrix (:func:`_assemble`) holds each tile a task writes at
the precision its last writer's output rests in — for a Cholesky graph
the factor ``mp_cholesky`` returns, FP64 diagonal and FP32 off-diagonal
tiles.  A tile no task writes keeps the input's precision: a tile the
graph reads comes back as its seed, one it never touches as a copy of
the input tile.

Input-ordering convention of the Cholesky PTG (relied upon here):

* ``POTRF(k)``         reads ``[C(k,k) inout]``
* ``TRSM(m,k)``        reads ``[L(k,k) in, C(m,k) inout]``
* ``SYRK(m,k)``        reads ``[L(m,k) in, C(m,m) inout]``
* ``GEMM(m,n,k)``      reads ``[L(m,k) in, L(n,k) in, C(m,n) inout]``
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext

import numpy as np

from ..obs import get_event_log, span
from ..precision.emulate import OnFp16Grid, Operand, as_input, quantize_tile, storage_dtype
from ..precision.formats import Precision, get_storage_precision
from ..tiles import kernels as tk
from ..tiles.tilematrix import TiledSymmetricMatrix
from .task import Task, TaskGraph, TileRef

__all__ = ["execute_numeric"]


class _Values(dict):
    """The live tile versions of one execution, ``(i, j, version) → tile``.

    ``panels`` holds the broadcast payloads made of them, ``(i, j,
    version) → {payload precision: Operand}``: a POTRF/TRSM result is
    quantised once per precision it travels at and converted once per
    input format that reads it, not once per consuming task.  ``readers``
    counts the reads of ``tasks`` still to come of each version, and
    ``latest`` maps each tile ``(i, j)`` to its newest version here.
    :meth:`commit` drops a version and its payloads after its last read,
    keeping the version if it is its tile's latest; a dropped key is
    never read again (a read raises ``KeyError``).
    """

    def __init__(self, tasks: list[Task]) -> None:
        super().__init__()
        self.panels: dict[TileRef, dict[Precision, Operand]] = {}
        self.latest: dict[tuple[int, int], int] = {}
        self.readers: dict[TileRef, int] = dict(
            Counter(inp.tile for task in tasks for inp in task.inputs))

    def commit(self, task: Task, key: TileRef, tile: np.ndarray) -> None:
        """Store ``task``'s output ``tile`` under ``key`` and release its reads."""
        self[key] = tile
        latest = self.latest
        latest[key[:2]] = key[2]
        readers = self.readers
        for inp in task.inputs:
            ref = inp.tile
            n = readers[ref] - 1
            if n:
                readers[ref] = n
                continue
            del readers[ref]
            self.panels.pop(ref, None)
            if latest.get(ref[:2]) != ref[2]:
                # absent on a rank that received this version as panels only
                self.pop(ref, None)

    def finals(self) -> dict[tuple[int, int], np.ndarray]:
        """The latest version of every lower tile: the execution's output.

        A version-0 tile may be the input matrix's own array, so it is
        handed out as a copy."""
        return {(i, j): self[(i, j, v)] if v else self[(i, j, v)].copy()
                for (i, j), v in self.latest.items() if j <= i}


def _payload(values: _Values, inp) -> np.ndarray:
    """Fetch one input payload, applying its communication quantisation.

    The values are :func:`repro.precision.emulate.quantize`'s, at the
    dtype the payload rests in (float32 below FP64) — a tile that travels
    at the precision it rests in is passed on as it is: the store holds
    every tile already in that precision's input form.
    """
    tile = values[inp.tile]
    if inp.payload_precision is inp.storage_precision:
        return tile
    return as_input(tile, inp.payload_precision)


def _panel(values: _Values, inp) -> Operand:
    """:func:`_payload` of a broadcast input, made once for all its readers."""
    forms = values.panels.get(inp.tile)
    if forms is None:
        forms = values.panels[inp.tile] = {}
    panel = forms.get(inp.payload_precision)
    if panel is None:
        panel = forms[inp.payload_precision] = Operand(_payload(values, inp))
    return panel


def _seed_version0(
    graph: TaskGraph, mat: TiledSymmetricMatrix, rank: int | None = None
) -> _Values:
    """The store for running ``graph``: the version-0 tiles of ``mat`` its
    tasks read, at their storage precision, and a count of every read.

    The generation-phase cast of Section V: each tile is rounded once to
    the precision it rests in and held at that dtype; ``mat`` is only
    read.  ``rank`` restricts the store to that rank's tasks (the
    distributed executor's per-rank store).
    """
    tasks = graph.tasks if rank is None else [task for task in graph if task.rank == rank]
    values = _Values(tasks)
    for task in tasks:
        for inp in task.inputs:
            key = inp.tile
            if inp.producer is None and key not in values:
                values[key] = as_input(mat.get(key[0], key[1]), inp.storage_precision)
                values.latest[key[:2]] = key[2]
    return values


def _stack_shape(task: Task, values: _Values) -> tuple[int, ...] | None:
    """The shape of ``task``'s tile if it is a pure-FP16 GEMM, the one kind
    that runs in stacks, else None; its inout tile must be in the store."""
    if task.kind == "GEMM" and task.precision is Precision.FP16:
        return values[task.inputs[-1].tile].shape
    return None


#: the task span without an event log, where a span would be timed and dropped
_UNLOGGED = nullcontext()


def _task_span(tasks: list[Task]):
    """The span the in-process executors record around each task or stack."""
    if get_event_log() is None:
        return _UNLOGGED
    task = tasks[0]
    return span("task", kind=task.kind, tile=task.output[:2], precision=task.precision.name,
                tasks=len(tasks))


#: output precisions whose input form is every array of their rest dtype
_AT_REST = {Precision.FP64: np.dtype(np.float64), Precision.FP32: np.dtype(np.float32)}


def _stored(tile: np.ndarray, precision: Precision) -> np.ndarray:
    """``tile`` as the store holds a version at ``precision``: in that
    precision's input form (:func:`_payload`).  A kernel's result mostly
    is already — float64 at FP64, float32 at FP32, an ``OnFp16Grid`` at
    FP16 — and is kept as it is."""
    if _AT_REST.get(precision) == tile.dtype or precision is Precision.FP16 and isinstance(tile, OnFp16Grid):
        return tile
    return as_input(tile, precision)


def _execute_task(task: Task, values: _Values) -> tuple[TileRef, np.ndarray]:
    """Run one task and cast the result to its output (storage) precision.

    Returns the ``(i, j, version)`` key to store the tile under, and the
    tile at its rest dtype (float32 unless the output precision is FP64).
    """
    # the PTG's input order (module docstring): broadcast panels, then the inout tile
    *panels, c_inp = task.inputs
    c = _payload(values, c_inp)
    kind = task.kind
    if kind == "GEMM":
        result = tk.gemm(_panel(values, panels[0]), _panel(values, panels[1]), c,
                         precision=task.precision)
    elif kind == "TRSM":
        result = tk.trsm(_panel(values, panels[0]), c, precision=task.precision)
    elif kind == "SYRK":
        result = tk.syrk(_panel(values, panels[0]), c, precision=panels[0].payload_precision)
    elif kind == "POTRF":
        result = np.tril(tk.potrf(c))
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return task.output, _stored(result, task.output_precision)


def _execute_tasks(tasks: list[Task], values: _Values) -> list[tuple[TileRef, np.ndarray]]:
    """:func:`_execute_task` of each of ``tasks``: one task, or a stack —
    independent pure-FP16 GEMMs on tiles of one shape, one stacked
    ``tk.gemm`` call."""
    if len(tasks) == 1:
        return [_execute_task(tasks[0], values)]
    updated = tk.gemm(
        [_panel(values, task.inputs[0]) for task in tasks],
        [_panel(values, task.inputs[1]) for task in tasks],
        [_payload(values, task.inputs[2]) for task in tasks],
        precision=Precision.FP16,
    )
    # each tile its own array: a view would hold the whole stack until its
    # last tile is replaced
    return [(task.output, _stored(tile.copy(), task.output_precision))
            for task, tile in zip(tasks, updated)]


def _assemble(
    graph: TaskGraph, mat: TiledSymmetricMatrix, finals: dict[tuple[int, int], np.ndarray]
) -> TiledSymmetricMatrix:
    """The matrix an executor returns (module docstring), from ``finals``,
    the latest version of every tile the graph touched, and ``mat``."""
    rest = {task.output[:2]: task.output_precision for task in graph}
    out = TiledSymmetricMatrix(n=mat.n, nb=mat.nb)
    for key, tile in mat.tiles.items():
        written = rest.get(key)
        precision = mat.precision_of(*key) if written is None else get_storage_precision(written)
        final = finals.get(key)
        if final is None:
            out.tiles[key] = tile.copy()
        elif final.dtype == storage_dtype(precision):
            out.tiles[key] = np.asarray(final)
        else:
            out.tiles[key] = quantize_tile(final, precision)
        out.storage_precision[key] = precision
    return out


def execute_numeric(graph: TaskGraph, mat: TiledSymmetricMatrix) -> TiledSymmetricMatrix:
    """Run the task graph numerically against the tiles of ``mat``.

    ``mat`` provides the version-0 tiles and is not modified; the returned
    matrix holds the Cholesky factor at the storage-precision map the
    graph's output precisions dictate (module docstring).
    """
    values = _seed_version0(graph, mat)
    stacks = tk.Fp16Stacks()
    pending: set[TileRef] = set()  # the versions the open stacks will write

    def run(batch: list[Task]) -> None:
        with _task_span(batch):
            results = _execute_tasks(batch, values)
        for task, (key, tile) in zip(batch, results):
            values.commit(task, key, tile)

    def flush() -> None:
        for stack in stacks.drain():
            run(stack)
        pending.clear()

    with span("executor.sequential", n_tasks=len(graph)):
        for task in graph:
            if pending and any(inp.tile in pending for inp in task.inputs):
                flush()
            shape = _stack_shape(task, values)
            if shape is None:
                run([task])
                continue
            pending.add(task.output)
            full = stacks.add(shape, task)
            if full:
                pending.difference_update(t.output for t in full)
                run(full)
        flush()

    return _assemble(graph, mat, values.finals())
