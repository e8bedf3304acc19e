"""The parent's closure PTG: the test tree's oracle for the Cholesky emitter.

The miniature Parameterized Task Graph DSL that used to be
``repro/runtime/dsl.py`` (:class:`TaskClassSpec` binds an execution
space to a dataflow function, :func:`unroll_stream` resolves producers
through a ``(class, params) → tid`` map and mints the tasks) together
with the four ``*_inst`` closures and the method-per-lookup
``_CholeskyDataflow`` that ``repro/core/dag_cholesky.py`` was written
against — moved here verbatim when the table-driven emitter replaced
them.  :func:`repro.core.dag_cholesky.build_cholesky_dag` /
``stream_cholesky_tasks`` are property-tested equal to it field for
field and edge for edge (``tests/test_core_dag.py``) and benchmarked
against it (``benchmarks/test_dag_build.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.config import ConversionStrategy
from repro.core.conversion import CommPrecisionMap, build_comm_precision_map, payload_encoding
from repro.core.precision_map import KernelPrecisionMap
from repro.perfmodel.kernels import KernelKind, kernel_flops, kernel_flops_rect
from repro.precision import Precision
from repro.runtime.task import Task, TaskGraph, TaskInput, TileRef
from repro.tiles.distribution import ProcessGrid
from repro.tiles.kernels import trsm_execution_precision

# -- the DSL (was repro/runtime/dsl.py) ----------------------------------------


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


# -- the Cholesky PTG written against it (was repro/core/dag_cholesky.py) -------

_KIND_RANK = {
    KernelKind.POTRF: 0,
    KernelKind.TRSM: 1,
    KernelKind.SYRK: 2,
    KernelKind.GEMM: 3,
}


@dataclass
class _CholeskyDataflow:
    """The dataflow rules of Algorithm 1, as the closure PTG looks them up.

    Everything that decides a tile's size, a task's priority or the
    encoding on an edge lives here once, a method per question; the four
    task classes below ask it per instance.
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


def build_cholesky_graph_oracle(
    n: int,
    nb: int,
    kernel_map: KernelPrecisionMap,
    *,
    strategy: ConversionStrategy = ConversionStrategy.AUTO,
    grid: ProcessGrid | None = None,
    comm_map: CommPrecisionMap | None = None,
) -> TaskGraph:
    """The parent's ``build_cholesky_dag(...).graph``."""
    return unroll(_cholesky_classes(_CholeskyDataflow(n, nb, kernel_map, strategy, grid, comm_map)))
