"""Numeric execution of a Cholesky task graph.

The simulator prices a DAG in time; this module *computes* it, running the
same task graph through the numeric tile kernels with payload
quantisation applied exactly where the conversion strategy puts it.  It
exists so tests can assert that the DAG the PTG unrolls is the same
algorithm as the sequential reference (:func:`repro.core.cholesky.mp_cholesky`)
— same dataflow, bit-identical results.

Memory rule, shared by all three executors through one store
(:class:`_Values`): a tile version lives until its last reader has run,
then it is dropped unless it is its tile's latest version, the output.
The peak is O(live tiles), not the O(NT³/6) versions a factorization makes.

Input-ordering convention of the Cholesky PTG (relied upon here):

* ``POTRF(k)``         reads ``[C(k,k) inout]``
* ``TRSM(m,k)``        reads ``[L(k,k) in, C(m,k) inout]``
* ``SYRK(m,k)``        reads ``[L(m,k) in, C(m,m) inout]``
* ``GEMM(m,n,k)``      reads ``[L(m,k) in, L(n,k) in, C(m,n) inout]``
"""

from __future__ import annotations

import numpy as np

from ..obs import span
from ..precision.emulate import Operand, as_input
from ..tiles import kernels as tk
from ..tiles.tilematrix import TiledSymmetricMatrix
from .task import Task, TaskGraph

__all__ = ["execute_numeric"]


class _Values(dict):
    """The live tile versions of one execution, ``(i, j, version) → tile``.

    ``panels`` holds the broadcast payloads made of them, ``(i, j,
    version, payload precision) → Operand``: a POTRF/TRSM result is
    quantised once per precision it travels at and converted once per
    input format that reads it, not once per consuming task.  ``reads``
    lists each pending task's keys of either kind, ``readers`` counts the
    reads still to come of each key, and ``latest`` maps each tile ``(i,
    j)`` to its newest version here.  :meth:`commit` drops a key after its
    last read unless it is a latest version; a dropped key is never read
    again (a read raises ``KeyError``).
    """

    def __init__(self) -> None:
        super().__init__()
        self.panels: dict[tuple[int, int, int, object], Operand] = {}
        self.reads: dict[int, list[tuple]] = {}
        self.readers: dict[tuple, int] = {}
        self.latest: dict[tuple[int, int], int] = {}

    def commit(self, task: Task, key: tuple[int, int, int], tile: np.ndarray) -> None:
        """Store ``task``'s output ``tile`` under ``key`` and release its reads."""
        self[key] = tile
        self.latest[key[:2]] = key[2]
        readers = self.readers
        for ref in self.reads.pop(task.tid):
            n = readers[ref] - 1
            if n:
                readers[ref] = n
                continue
            del readers[ref]
            if len(ref) == 4:
                self.panels.pop(ref, None)
            elif self.latest.get(ref[:2]) != ref[2]:
                # absent on a rank that received this version as panels only
                self.pop(ref, None)

    def finals(self) -> dict[tuple[int, int], np.ndarray]:
        """The latest version of every lower tile: the execution's output."""
        return {(i, j): self[(i, j, v)] for (i, j), v in self.latest.items() if j <= i}


def _payload(values: _Values, inp) -> np.ndarray:
    """Fetch one input payload, applying its communication quantisation.

    The values are :func:`repro.precision.emulate.quantize`'s, at the
    dtype the payload rests in (float32 below FP64) — a tile stored at
    the precision it travels at is passed on as it is.
    """
    return as_input(values[inp.tile], inp.payload_precision)


def _panel(values: _Values, inp) -> Operand:
    """:func:`_payload` of a broadcast input, made once for all its readers."""
    key = inp.tile + (inp.payload_precision,)
    panel = values.panels.get(key)
    if panel is None:
        panel = values.panels[key] = Operand(_payload(values, inp))
    return panel


def _seed_version0(
    graph: TaskGraph, mat: TiledSymmetricMatrix, rank: int | None = None
) -> _Values:
    """The store for running ``graph``: the version-0 tiles of ``mat`` its
    tasks read, at their storage precision, and a count of every read.

    The generation-phase cast of Section V: each tile is rounded once to
    the precision it rests in and held at that dtype.  ``rank`` restricts
    the scan to that rank's tasks (the distributed executor's per-rank
    store).
    """
    values = _Values()
    readers = values.readers
    for task in graph:
        if rank is not None and task.rank != rank:
            continue
        # the input tiles, then the broadcast payloads (all inputs but the inout tile)
        inputs = task.inputs
        refs = values.reads[task.tid] = [inp.tile for inp in inputs] + [
            inp.tile + (inp.payload_precision,) for inp in inputs[:-1]]
        for ref in refs:
            readers[ref] = readers.get(ref, 0) + 1
        for inp in inputs:
            key = inp.tile
            if inp.producer is None and key not in values:
                values[key] = as_input(mat.get(key[0], key[1]), inp.storage_precision)
                values.latest[key[:2]] = key[2]
    return values


def _task_span(task: Task):
    """The span the in-process executors record around each task."""
    return span("task", kind=task.kind, tile=task.output[:2], precision=task.precision.name)


def _execute_task(task: Task, values: _Values) -> tuple[tuple[int, int, int], np.ndarray]:
    """Run one task and cast the result to its output (storage) precision.

    Returns the ``(i, j, version)`` key to store the tile under, and the
    tile at its rest dtype (float32 unless the output precision is FP64).
    """
    # the PTG's input order (module docstring): broadcast panels, then the inout tile
    *panels, c_inp = task.inputs
    c = _payload(values, c_inp)
    if task.kind == "POTRF":
        result = np.tril(tk.potrf(c))
    elif task.kind == "TRSM":
        result = tk.trsm(_panel(values, panels[0]), c, precision=task.precision)
    elif task.kind == "SYRK":
        result = tk.syrk(_panel(values, panels[0]), c, precision=panels[0].payload_precision)
    elif task.kind == "GEMM":
        a, b = (_panel(values, inp) for inp in panels)
        result = tk.gemm(a, b, c, precision=task.precision)
    else:
        raise ValueError(f"unknown task kind {task.kind!r}")
    return task.output, as_input(result, task.output_precision)


def _collect_finals(values: _Values, out: TiledSymmetricMatrix) -> TiledSymmetricMatrix:
    """Write the latest version of every lower tile in ``values`` into ``out``."""
    for (i, j), data in values.finals().items():
        out.set(i, j, data, precision=out.precision_of(i, j))
    return out


def execute_numeric(graph: TaskGraph, mat: TiledSymmetricMatrix) -> TiledSymmetricMatrix:
    """Run the task graph numerically against the tiles of ``mat``.

    ``mat`` provides the version-0 tiles; the returned matrix holds the
    Cholesky factor with the same storage-precision map the graph's
    output precisions dictate.
    """
    out = mat.copy()
    values = _seed_version0(graph, out)

    with span("executor.sequential", n_tasks=len(graph)):
        for tid in graph.topological_order():
            task = graph.tasks[tid]
            with _task_span(task):
                key, result = _execute_task(task, values)
            values.commit(task, key, result)

    return _collect_finals(values, out)
