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
from ..precision.emulate import Operand, as_input, quantize_batch
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
    """Version-0 tiles of ``mat`` the graph reads, quantised to storage precision.

    All tiles sharing a storage precision go through one
    :func:`quantize_batch` pass (the generation-phase cast of Section V,
    vectorised) instead of one quantise call per tile.  ``rank``
    restricts the scan to that rank's tasks (the distributed executor's
    per-rank seeding).
    """
    wanted: dict[tuple[int, int, int], object] = {}
    for task in graph:
        if rank is not None and task.rank != rank:
            continue
        for inp in task.inputs:
            if inp.producer is None:
                key = (inp.tile.i, inp.tile.j, inp.tile.version)
                if key not in wanted:
                    wanted[key] = inp.storage_precision
    by_precision: dict[object, list[tuple[int, int, int]]] = {}
    for key, prec in wanted.items():
        by_precision.setdefault(prec, []).append(key)
    values = _Values()
    for prec, keys in by_precision.items():
        tiles = quantize_batch([mat.get(i, j) for i, j, _v in keys], prec)
        for key, tile in zip(keys, tiles):
            values[key] = tile
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
    result = as_input(_run_task(task, values), task.output_precision)
    return (task.output.i, task.output.j, task.output.version), result


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


def _run_task(task: Task, values: _Values) -> np.ndarray:
    # the PTG's input order (module docstring): broadcast panels, then the inout tile
    *panels, c_inp = task.inputs
    c = _payload(values, c_inp)
    kind = task.kind
    if kind == "POTRF":
        return np.tril(tk.potrf(c))
    if kind == "TRSM":
        (l_inp,) = panels
        return tk.trsm(_panel(values, l_inp), c, precision=task.precision)
    if kind == "SYRK":
        (panel_inp,) = panels
        return tk.syrk(_panel(values, panel_inp), c, precision=panel_inp.payload_precision)
    if kind == "GEMM":
        a_inp, b_inp = panels
        return tk.gemm(_panel(values, a_inp), _panel(values, b_inp), c, precision=task.precision)
    raise ValueError(f"unknown task kind {kind!r}")
