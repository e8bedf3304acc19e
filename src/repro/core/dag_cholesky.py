"""The Cholesky PTG: Algorithm 1 as one parameterised k-major emitter.

Four task classes — POTRF, TRSM, SYRK, GEMM — unroll into the dataflow
DAG of the tile Cholesky factorization (Fig. 3 shows its first two
iterations).  Every dataflow edge carries the payload precision decided
by the conversion strategy, and tasks that apply sender-side conversion
(STC) carry the one-time conversion they perform before broadcasting.
The description is parameterised the PTG way — a task is its class and
index tuple, its producers follow from the indices — and is held
(:func:`build_cholesky_dag`) or consumed lazily
(:func:`stream_cholesky_tasks`); the closure-per-class DSL it replaced
is the test tree's oracle (``tests/cholesky_ptg_oracle.py``).

Tile versioning: tile (i, j) starts at version 0 (the generated
covariance tile on the host) and each writing task bumps the version, so
``(tile, version)`` uniquely names a dataflow value for the simulator's
caches and the numeric executor.

Ranks follow owner-computes: a task runs on the block-cyclic owner of the
tile it writes, one rank per GPU (Section VII-A's P×Q grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..obs import traced
from ..perfmodel.kernels import KernelKind, kernel_flops, kernel_flops_rect
from ..precision.formats import Precision
from ..runtime.task import Task, TaskGraph, TaskInput
from ..tiles.distribution import ProcessGrid
from ..tiles.kernels import trsm_execution_precision
from .config import ConversionStrategy
from .conversion import CommPrecisionMap, build_comm_precision_map, payload_encoding
from .precision_map import KernelPrecisionMap, precision_rows

__all__ = [
    "CholeskyDag",
    "build_cholesky_dag",
    "cholesky_task_count",
    "stream_cholesky_tasks",
]


def cholesky_task_count(nt: int) -> int:
    """Number of tasks the Cholesky PTG unrolls to for ``nt`` tiles.

    ``nt`` POTRF + ``nt(nt−1)/2`` TRSM + the same in SYRK +
    ``C(nt, 3)`` GEMM — cubic in NT, GEMM-dominated (~``nt³/6``).
    """
    if nt < 1:
        raise ValueError("nt must be positive")
    return nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) // 6


_KIND_RANK = {
    KernelKind.POTRF: 0,
    KernelKind.TRSM: 1,
    KernelKind.SYRK: 2,
    KernelKind.GEMM: 3,
}


@dataclass
class CholeskyDag:
    """A built Cholesky task graph plus the maps that shaped it."""

    graph: TaskGraph
    n: int
    nb: int
    kernel_map: KernelPrecisionMap
    comm_map: CommPrecisionMap
    strategy: ConversionStrategy
    grid: ProcessGrid


@dataclass
class _CholeskyDataflow:
    """The dataflow rules of Algorithm 1, as tables the emitter reads.

    Everything that decides a tile's size, a task's priority or the
    encoding on an edge lives here once — per-tile tables built once
    from the maps' int8 code arrays, so a rule is a list lookup in
    :func:`_emit_kmajor`.
    """

    n: int
    nb: int
    kernel_map: KernelPrecisionMap
    strategy: ConversionStrategy
    grid: ProcessGrid | None
    comm_map: CommPrecisionMap | None

    def __post_init__(self) -> None:
        n, nb, nt = self.n, self.nb, self.kernel_map.nt
        self.nt = nt
        expected_nt = -(-n // nb)
        if nt != expected_nt:
            raise ValueError(
                f"kernel map NT={nt} inconsistent with n={n}, nb={nb} (NT={expected_nt})"
            )
        if self.grid is None:
            self.grid = ProcessGrid(1, 1)
        if self.comm_map is None:
            self.comm_map = build_comm_precision_map(self.kernel_map)
        #: edge length of tile row/col ``t`` (the last tile may be ragged)
        self._edges = [min(n, (t + 1) * nb) - t * nb for t in range(nt)]

        #: kernel precision of tile (i, j); mirrored, like the kernel map
        self._kernel = precision_rows(self.kernel_map.codes)
        #: storage precision of tile (i, j); mirrored
        self._storage = precision_rows(self.comm_map.storage_codes)
        #: precision tile (i, j)'s broadcast travels in (lower triangle)
        self._payload = precision_rows(self.comm_map.payload_codes(self.strategy))
        #: STC conversion done by the task writing tile (i, j), else None:
        #: one shared tuple per (storage, payload) pair, not one per tile
        conv = {(s, p): (s, p) for s in Precision for p in Precision
                if payload_encoding(p) != payload_encoding(s)}
        self._sender_conv = [
            [conv.get((sto, pay)) for sto, pay in zip(self._storage[i][: i + 1], self._payload[i])]
            for i in range(nt)
        ]
        #: encoding a GEMM leaves tile (i, j) in: a pure-FP16 accumulator
        #: is FP16-valued, so the tile rests in FP16 on the device between
        #: consecutive updates — the single conversion to/from the FP32
        #: at-rest encoding is paid at the chain's ends (first load,
        #: eventual TRSM), not per GEMM; every other tile rests at storage
        #: precision
        self._rests = [
            [Precision.FP16 if ker == Precision.FP16 else sto for ker, sto in zip(kers, stos)]
            for kers, stos in zip(self._kernel, self._storage)
        ]
        #: owner-computes rank of lower tile (i, j)
        owner = self.grid.owner
        self._owner = [[owner(i, j) for j in range(i + 1)] for i in range(nt)]

    @staticmethod
    def prio(k: int, kind: str) -> int:
        return k * 4 + _KIND_RANK[kind]

    def _arrives(self, k: int) -> list[list[Precision]]:
        """Per tile, the encoding iteration ``k`` finds it in: the generated
        tile at storage precision for ``k == 0``, else whatever its last
        GEMM left."""
        return self._storage if k == 0 else self._rests

    def dag(self, graph: TaskGraph) -> CholeskyDag:
        """Wrap a built ``graph`` with the maps that shaped it."""
        return CholeskyDag(
            graph=graph,
            n=self.n,
            nb=self.nb,
            kernel_map=self.kernel_map,
            comm_map=self.comm_map,
            strategy=self.strategy,
            grid=self.grid,
        )


def _emit_kmajor(rules: _CholeskyDataflow) -> Iterator[Task]:
    """Algorithm 1 read iteration by iteration: the parameterised PTG.

    For each ``k``: POTRF(k), the TRSMs, the SYRKs, then the GEMMs of
    that iteration, each minted once as a :class:`Task` with the next
    dense id.  The order is topological — every read names a task of the
    same or an earlier ``k`` — so a producer is simply the last writer
    of the tile, kept per tile next to the ``(i, j, version)`` it wrote.

    A panel tile has one writer and many readers (the SYRK of its row,
    the GEMMs of its row and column; the POTRF tile, every TRSM below
    it), all of which read the same version in the same encoding: the
    writer mints that one immutable :class:`TaskInput` and every consumer's
    ``inputs`` lists the same object.
    """
    nt = rules.nt
    edges = rules._edges
    sizes = set(edges)
    kernel, storage, payload = rules._kernel, rules._storage, rules._payload
    rests, sender_conv, owner = rules._rests, rules._sender_conv, rules._owner
    POTRF, TRSM, SYRK, GEMM = KernelKind.POTRF, KernelKind.TRSM, KernelKind.SYRK, KernelKind.GEMM
    FP64 = Precision.FP64
    # positional, in field order:
    #   Task(tid, kind, params, rank, precision, flops, output, output_precision,
    #        inputs, sender_conversion, priority)
    #   TaskInput(producer, tile, payload_precision, storage_precision, elements, role)

    #: per lower tile: id of its last writer (None: the generated host
    #: tile) and the version that writer left
    writer: list[list[int | None]] = [[None] * (i + 1) for i in range(nt)]
    ref = [[(i, j, 0) for j in range(i + 1)] for i in range(nt)]
    #: panel[m]: the shared read of tile (m, k) as TRSM(m, k) wrote it
    panel: list[TaskInput | None] = [None] * nt
    tid = 0
    for k in range(nt):
        ek = edges[k]
        arrives = rules._arrives(k)
        p_potrf, p_trsm, p_syrk, p_gemm = (rules.prio(k, kind) for kind in (POTRF, TRSM, SYRK, GEMM))
        diag = (k, k, k + 1)
        yield Task(
            tid, POTRF, (k,), owner[k][k], FP64, kernel_flops(POTRF, ek), diag, FP64,
            [TaskInput(writer[k][k], ref[k][k], FP64, FP64, ek * ek, "inout")],
            sender_conv[k][k] if k < nt - 1 else None,
            p_potrf,
        )
        if k == nt - 1:
            return
        factor = TaskInput(tid, diag, payload[k][k], FP64, ek * ek, "in")
        tid += 1
        for m in range(k + 1, nt):
            em = edges[m]
            # the panel tile arrives from its last GEMM in its at-rest encoding
            c_in = arrives[m][k]
            out = (m, k, k + 1)
            yield Task(
                tid, TRSM, (m, k), owner[m][k], trsm_execution_precision(kernel[m][k]),
                kernel_flops_rect(TRSM, em, ek), out, storage[m][k],
                [factor, TaskInput(writer[m][k], ref[m][k], c_in, c_in, em * ek, "inout")],
                sender_conv[m][k],
                p_trsm,
            )
            panel[m] = TaskInput(tid, out, payload[m][k], storage[m][k], em * ek, "in")
            tid += 1
        for m in range(k + 1, nt):
            em = edges[m]
            out = (m, m, k + 1)
            yield Task(
                tid, SYRK, (m, k), owner[m][m], FP64, kernel_flops_rect(SYRK, em, ek), out, FP64,
                [panel[m], TaskInput(writer[m][m], ref[m][m], FP64, FP64, em * em, "inout")],
                None,
                p_syrk,
            )
            writer[m][m], ref[m][m] = tid, out
            tid += 1
        # a GEMM's flops per (em, en) of this iteration (edges take at most two values)
        gemm_flops = {em: {en: kernel_flops_rect(GEMM, em, en, ek) for en in sizes}
                      for em in sizes}
        for m in range(k + 2, nt):
            em = edges[m]
            a = panel[m]
            row_writer, row_ref, row_rests, row_arrives = writer[m], ref[m], rests[m], arrives[m]
            row_flops = gemm_flops[em]
            for nn in range(k + 1, m):
                c_in = row_arrives[nn]
                out = (m, nn, k + 1)
                yield Task(
                    tid, GEMM, (m, nn, k), owner[m][nn], kernel[m][nn],
                    row_flops[edges[nn]], out, row_rests[nn],
                    [a, panel[nn],
                     TaskInput(row_writer[nn], row_ref[nn], c_in, c_in, em * edges[nn], "inout")],
                    None,
                    p_gemm,
                )
                row_writer[nn], row_ref[nn] = tid, out
                tid += 1


@traced("core.dag_build")
def build_cholesky_dag(
    n: int,
    nb: int,
    kernel_map: KernelPrecisionMap,
    *,
    strategy: ConversionStrategy = ConversionStrategy.AUTO,
    grid: ProcessGrid | None = None,
    comm_map: CommPrecisionMap | None = None,
) -> CholeskyDag:
    """Unroll Algorithm 1 into a :class:`~repro.runtime.task.TaskGraph`.

    Tasks are numbered in k-major emission order — the ids
    :func:`stream_cholesky_tasks` yields, which is the same emission
    consumed lazily instead of held.
    """
    rules = _CholeskyDataflow(n, nb, kernel_map, strategy, grid, comm_map)
    graph = TaskGraph()
    for task in _emit_kmajor(rules):
        graph.add(task)
    graph.finalize()
    return rules.dag(graph)


def stream_cholesky_tasks(
    n: int,
    nb: int,
    kernel_map: KernelPrecisionMap,
    *,
    strategy: ConversionStrategy = ConversionStrategy.AUTO,
    grid: ProcessGrid | None = None,
) -> Iterator[Task]:
    """Lazily emit the Cholesky tasks in k-major (topological) order.

    The generator counterpart of :func:`build_cholesky_dag` for
    :func:`repro.runtime.simulator.simulate_stream`: tasks are yielded
    one at a time and nothing global is retained besides the O(NT²)
    per-tile tables, so simulating NT in the thousands
    (``cholesky_task_count(nt) ≈ nt³/6`` tasks) never materialises the
    DAG.
    """
    return _emit_kmajor(_CholeskyDataflow(n, nb, kernel_map, strategy, grid, None))
