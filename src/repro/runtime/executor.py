"""Numeric execution of a Cholesky task graph.

The simulator prices a DAG in time; this module *computes* it, running the
same task graph through the numeric tile kernels with payload
quantisation applied exactly where the conversion strategy puts it.  It
exists so tests can assert that the DAG the PTG unrolls is the same
algorithm as the sequential reference (:func:`repro.core.cholesky.mp_cholesky`)
— same dataflow, bit-identical results.

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
    """``(i, j, version) → tile`` for every tile version produced so far.

    ``panels`` holds the broadcast payloads made of them, ``(i, j,
    version, payload precision) → Operand``: a POTRF/TRSM result is
    quantised once per precision it travels at and converted once per
    input format that reads it, not once per consuming task.
    """

    def __init__(self) -> None:
        super().__init__()
        self.panels: dict[tuple[int, int, int, object], Operand] = {}


def _payload(values: _Values, inp) -> np.ndarray:
    """Fetch one input payload, applying its communication quantisation.

    The values are :func:`repro.precision.emulate.quantize`'s, at the
    dtype the payload rests in (float32 below FP64) — a tile stored at
    the precision it travels at is passed on as it is.
    """
    key = (inp.tile.i, inp.tile.j, inp.tile.version)
    return as_input(values[key], inp.payload_precision)


def _panel(values: _Values, inp) -> Operand:
    """:func:`_payload` of a broadcast input, made once for all its readers."""
    key = (inp.tile.i, inp.tile.j, inp.tile.version, inp.payload_precision)
    panel = values.panels.get(key)
    if panel is None:
        panel = values.panels[key] = Operand(_payload(values, inp))
    return panel


def _seed_version0(
    graph: TaskGraph, mat: TiledSymmetricMatrix, rank: int | None = None
) -> _Values:
    """Version-0 tiles of ``mat`` the graph reads, at their storage precision.

    The generation-phase cast of Section V: each tile is rounded once to
    the precision it rests in and held at that dtype.  ``rank`` restricts
    the scan to that rank's tasks (the distributed executor's per-rank
    seeding).
    """
    values = _Values()
    for task in graph:
        if rank is not None and task.rank != rank:
            continue
        for inp in task.inputs:
            key = (inp.tile.i, inp.tile.j, inp.tile.version)
            if inp.producer is None and key not in values:
                values[key] = as_input(mat.get(inp.tile.i, inp.tile.j), inp.storage_precision)
    return values


def _task_span(task: Task):
    """The span the in-process executors record around each task."""
    out = task.output
    return span("task", kind=task.kind, tile=(out.i, out.j), precision=task.precision.name)


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
    return (task.output.i, task.output.j, task.output.version), as_input(result, task.output_precision)


def _collect_finals(values: dict, out: TiledSymmetricMatrix) -> TiledSymmetricMatrix:
    """Write the final version of every lower tile in ``values`` into ``out``."""
    final: dict[tuple[int, int], tuple[int, np.ndarray]] = {}
    for (i, j, v), data in values.items():
        if j > i:
            continue
        if (i, j) not in final or v > final[(i, j)][0]:
            final[(i, j)] = (v, data)
    for (i, j), (_v, data) in final.items():
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
            values[key] = result

    return _collect_finals(values, out)
