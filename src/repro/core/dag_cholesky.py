"""The Cholesky PTG: Algorithm 1 expressed as parameterized task classes.

Four task classes — POTRF, TRSM, SYRK, GEMM — unroll into the dataflow
DAG of the tile Cholesky factorization (Fig. 3 shows its first two
iterations).  Every dataflow edge carries the payload precision decided
by the conversion strategy, and tasks that apply sender-side conversion
(STC) carry the one-time conversion they perform before broadcasting.

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

from ..obs.profile import hot_region
from ..perfmodel.kernels import KernelKind, kernel_flops, kernel_flops_rect
from ..precision.formats import Precision
from ..runtime.dsl import TaskClassSpec, TaskInstance, unroll, unroll_stream
from ..runtime.task import Task, TaskGraph, TileRef
from ..tiles.distribution import ProcessGrid
from ..tiles.kernels import trsm_execution_precision
from .config import ConversionStrategy
from .conversion import CommPrecisionMap, build_comm_precision_map, payload_encoding
from .precision_map import KernelPrecisionMap

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
    """The dataflow rules of Algorithm 1, shared by both DSL front ends.

    The PTG task classes below and the DTD insertion loops of
    :mod:`repro.core.dtd_cholesky` must describe the *same* graph
    (``tests/test_runtime_dtd.py``), so everything that decides a tile's
    size, a task's priority or the encoding on an edge lives here once.
    """

    n: int
    nb: int
    kernel_map: KernelPrecisionMap
    strategy: ConversionStrategy
    grid: ProcessGrid | None
    comm_map: CommPrecisionMap | None

    def __post_init__(self) -> None:
        n, nb, self.nt = self.n, self.nb, self.kernel_map.nt
        expected_nt = -(-n // nb)
        if self.nt != expected_nt:
            raise ValueError(
                f"kernel map NT={self.nt} inconsistent with n={n}, nb={nb} (NT={expected_nt})"
            )
        if self.grid is None:
            self.grid = ProcessGrid(1, 1)
        if self.comm_map is None:
            self.comm_map = build_comm_precision_map(self.kernel_map)
        self.storage = self.comm_map.storage
        #: edge length of tile row/col ``t`` (the last tile may be ragged)
        self._edges = [min(n, (t + 1) * nb) - t * nb for t in range(self.nt)]

    def edge(self, t: int) -> int:
        return self._edges[t]

    def elements(self, i: int, j: int) -> int:
        return self._edges[i] * self._edges[j]

    @staticmethod
    def prio(k: int, kind: str) -> int:
        return k * 4 + _KIND_RANK[kind]

    def payload(self, i: int, j: int) -> Precision:
        return self.comm_map.payload(i, j, self.strategy)

    def sender_conv(self, i: int, j: int) -> tuple[Precision, Precision] | None:
        """STC conversion performed by the task writing tile (i, j)."""
        pay = self.payload(i, j)
        sto = self.storage(i, j)
        if payload_encoding(pay) != payload_encoding(sto):
            return (sto, pay)
        return None

    def trailing(self, i: int, j: int, k: int) -> tuple[Precision, Precision, Precision]:
        """Off-diagonal tile (i, j) as iteration ``k`` meets it.

        Returns ``(kernel, arrives, rests)``: its kernel precision, the
        encoding it arrives in — the generated tile at storage precision
        for ``k == 0``, else whatever its last GEMM left — and the
        encoding a GEMM leaves it in.  A pure-FP16 GEMM's accumulator is
        FP16-valued, so the tile rests in FP16 on the device between
        consecutive updates; the single conversion to/from the FP32
        at-rest encoding is paid at the chain's ends (first load,
        eventual TRSM), not per GEMM.
        """
        kernel = self.kernel_map.kernel(i, j)
        storage = self.storage(i, j)
        rests = Precision.FP16 if kernel == Precision.FP16 else storage
        return kernel, (storage if k == 0 else rests), rests

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


def _cholesky_classes(rules: _CholeskyDataflow) -> list[TaskClassSpec]:
    """The four Cholesky task classes as one k-major spec.

    Algorithm 1 read iteration by iteration: a single merged spec whose
    space interleaves the four classes — for each ``k``: POTRF(k), the
    TRSMs, the SYRKs, then the GEMMs of that iteration.  The emission is
    topological (every read names a task of the same or an earlier
    ``k``, already emitted), which is the order
    :func:`~repro.runtime.dsl.unroll_stream` requires.
    """
    nt = rules.nt
    grid = rules.grid
    edge = rules.edge
    elements = rules.elements
    prio = rules.prio
    panel_payload = rules.payload
    panel_storage = rules.storage
    sender_conv = rules.sender_conv

    # -- task classes ------------------------------------------------------
    def potrf_inst(params):
        (k,) = params
        c_prod = None if k == 0 else ("SYRK", (k, k - 1))
        has_bcast = k < nt - 1
        return TaskInstance(
            cls=KernelKind.POTRF,
            params=params,
            rank=grid.owner(k, k),
            precision=Precision.FP64,
            flops=kernel_flops(KernelKind.POTRF, edge(k)),
            writes=TileRef(k, k, k + 1),
            output_precision=Precision.FP64,
            reads=[
                (c_prod, TileRef(k, k, k), Precision.FP64, Precision.FP64, elements(k, k), "inout")
            ],
            sender_conversion=sender_conv(k, k) if has_bcast else None,
            priority=prio(k, KernelKind.POTRF),
        )

    def trsm_inst(params):
        m, k = params
        c_prod = None if k == 0 else ("GEMM", (m, k, k - 1))
        # the panel tile arrives from its last GEMM in its at-rest encoding
        kernel, c_payload, _rests = rules.trailing(m, k, k)
        return TaskInstance(
            cls=KernelKind.TRSM,
            params=params,
            rank=grid.owner(m, k),
            precision=trsm_execution_precision(kernel),
            flops=kernel_flops_rect(KernelKind.TRSM, edge(m), edge(k)),
            writes=TileRef(m, k, k + 1),
            output_precision=panel_storage(m, k),
            reads=[
                (
                    ("POTRF", (k,)),
                    TileRef(k, k, k + 1),
                    panel_payload(k, k),
                    Precision.FP64,
                    elements(k, k),
                    "in",
                ),
                (
                    c_prod,
                    TileRef(m, k, k),
                    c_payload,
                    c_payload,
                    elements(m, k),
                    "inout",
                ),
            ],
            sender_conversion=sender_conv(m, k),
            priority=prio(k, KernelKind.TRSM),
        )

    def syrk_inst(params):
        m, k = params
        c_prod = None if k == 0 else ("SYRK", (m, k - 1))
        return TaskInstance(
            cls=KernelKind.SYRK,
            params=params,
            rank=grid.owner(m, m),
            precision=Precision.FP64,
            flops=kernel_flops_rect(KernelKind.SYRK, edge(m), edge(k)),
            writes=TileRef(m, m, k + 1),
            output_precision=Precision.FP64,
            reads=[
                (
                    ("TRSM", (m, k)),
                    TileRef(m, k, k + 1),
                    panel_payload(m, k),
                    panel_storage(m, k),
                    elements(m, k),
                    "in",
                ),
                (
                    c_prod,
                    TileRef(m, m, k),
                    Precision.FP64,
                    Precision.FP64,
                    elements(m, m),
                    "inout",
                ),
            ],
            priority=prio(k, KernelKind.SYRK),
        )

    def gemm_inst(params):
        m, nn, k = params
        c_prod = None if k == 0 else ("GEMM", (m, nn, k - 1))
        prec, c_payload, out_prec = rules.trailing(m, nn, k)
        return TaskInstance(
            cls=KernelKind.GEMM,
            params=params,
            rank=grid.owner(m, nn),
            precision=prec,
            flops=kernel_flops_rect(KernelKind.GEMM, edge(m), edge(nn), edge(k)),
            writes=TileRef(m, nn, k + 1),
            output_precision=out_prec,
            reads=[
                (
                    ("TRSM", (m, k)),
                    TileRef(m, k, k + 1),
                    panel_payload(m, k),
                    panel_storage(m, k),
                    elements(m, k),
                    "in",
                ),
                (
                    ("TRSM", (nn, k)),
                    TileRef(nn, k, k + 1),
                    panel_payload(nn, k),
                    panel_storage(nn, k),
                    elements(nn, k),
                    "in",
                ),
                (
                    c_prod,
                    TileRef(m, nn, k),
                    c_payload,
                    c_payload,
                    elements(m, nn),
                    "inout",
                ),
            ],
            priority=prio(k, KernelKind.GEMM),
        )

    _inst = {
        KernelKind.POTRF: potrf_inst,
        KernelKind.TRSM: trsm_inst,
        KernelKind.SYRK: syrk_inst,
        KernelKind.GEMM: gemm_inst,
    }

    def kmajor_space():
        for k in range(nt):
            yield (KernelKind.POTRF, (k,))
            for m in range(k + 1, nt):
                yield (KernelKind.TRSM, (m, k))
            for m in range(k + 1, nt):
                yield (KernelKind.SYRK, (m, k))
            for m in range(k + 2, nt):
                for nn in range(k + 1, m):
                    yield (KernelKind.GEMM, (m, nn, k))

    def kmajor_inst(tagged):
        kind, params = tagged
        return _inst[kind](params)

    return [TaskClassSpec("CHOLESKY", kmajor_space, kmajor_inst)]


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
    with hot_region("dag.build"):
        graph = unroll(_cholesky_classes(rules))
    return rules.dag(graph)


def stream_cholesky_tasks(
    n: int,
    nb: int,
    kernel_map: KernelPrecisionMap,
    *,
    strategy: ConversionStrategy = ConversionStrategy.AUTO,
    grid: ProcessGrid | None = None,
    comm_map: CommPrecisionMap | None = None,
) -> Iterator[Task]:
    """Lazily emit the Cholesky tasks in k-major (topological) order.

    The generator counterpart of :func:`build_cholesky_dag` for
    :func:`repro.runtime.simulator.simulate_stream`: tasks are yielded
    one at a time and nothing global is retained besides the
    ``(class, params) → tid`` map, so simulating NT in the thousands
    (``cholesky_task_count(nt) ≈ nt³/6`` tasks) never materialises the
    DAG.
    """
    return unroll_stream(
        _cholesky_classes(_CholeskyDataflow(n, nb, kernel_map, strategy, grid, comm_map))
    )
