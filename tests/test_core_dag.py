"""Unit tests for the Cholesky PTG (DAG construction)."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ConversionStrategy, MPConfig
from repro.core.dag_cholesky import build_cholesky_dag, stream_cholesky_tasks
from repro.core.precision_map import KernelPrecisionMap, two_precision_map, uniform_map
from repro.precision import Precision
from repro.runtime.task import TaskInput
from repro.tiles.distribution import ProcessGrid
from tests.cholesky_ptg_oracle import build_cholesky_graph_oracle, edge_lists


def _dag(nt=5, nb=16, prec=Precision.FP16, strategy=ConversionStrategy.AUTO, grid=None):
    kmap = two_precision_map(nt, prec) if prec != Precision.FP64 else uniform_map(nt, prec)
    return build_cholesky_dag(nt * nb, nb, kmap, strategy=strategy, grid=grid)


class TestCensus:
    @pytest.mark.parametrize("nt", [1, 2, 4, 7])
    def test_task_counts(self, nt):
        dag = _dag(nt=nt)
        counts = dag.graph.counts_by_kind()
        assert counts["POTRF"] == nt
        assert counts.get("TRSM", 0) == nt * (nt - 1) // 2
        assert counts.get("SYRK", 0) == nt * (nt - 1) // 2
        assert counts.get("GEMM", 0) == nt * (nt - 1) * (nt - 2) // 6

    def test_flops_total(self):
        nt, nb = 6, 16
        dag = _dag(nt=nt, nb=nb)
        expected = (
            nt * nb**3 / 3
            + nt * (nt - 1) / 2 * (nb**3 + nb**3 + nb**2)
            + nt * (nt - 1) * (nt - 2) / 6 * 2 * nb**3
        )
        assert dag.graph.total_flops() == pytest.approx(expected)

    @pytest.mark.parametrize("n,nb", [(87, 16), (100, 16), (33, 32)])
    def test_flops_total_ragged(self, n, nb):
        """nb ∤ n: ragged edge tiles are rectangular and must be priced
        per dimension, not by cubing a single edge (regression)."""
        nt = -(-n // nb)
        kmap = uniform_map(nt, Precision.FP64)
        dag = build_cholesky_dag(n, nb, kmap)

        def edge(i):
            return nb if i < nt - 1 else n - (nt - 1) * nb

        expected = sum(edge(k) ** 3 / 3 for k in range(nt))
        expected += sum(
            edge(m) * edge(k) ** 2 for k in range(nt) for m in range(k + 1, nt)
        )
        expected += sum(
            edge(m) ** 2 * edge(k) + edge(m) ** 2
            for k in range(nt) for m in range(k + 1, nt)
        )
        expected += sum(
            2 * edge(m) * edge(nn) * edge(k)
            for k in range(nt)
            for nn in range(k + 1, nt)
            for m in range(nn + 1, nt)
        )
        assert dag.graph.total_flops() == pytest.approx(expected, rel=1e-12)

    def test_flops_total_ragged_matches_dtd(self):
        """The closure-PTG oracle prices ragged tiles identically."""
        n, nb = 87, 16
        kmap = uniform_map(-(-n // nb), Precision.FP64)
        ptg = build_cholesky_dag(n, nb, kmap)
        oracle = build_cholesky_graph_oracle(n, nb, kmap)
        assert oracle.total_flops() == pytest.approx(
            ptg.graph.total_flops(), rel=1e-12
        )

    def test_map_size_validation(self):
        with pytest.raises(ValueError, match="inconsistent"):
            build_cholesky_dag(100, 16, uniform_map(5, Precision.FP64))


class TestDataflow:
    def test_input_ordering_convention(self):
        dag = _dag(nt=4)
        for task in dag.graph:
            if task.kind == "POTRF":
                assert len(task.inputs) == 1 and task.inputs[0].role == "inout"
            elif task.kind == "TRSM":
                assert [i.role for i in task.inputs] == ["in", "inout"]
            elif task.kind == "SYRK":
                assert [i.role for i in task.inputs] == ["in", "inout"]
            elif task.kind == "GEMM":
                assert [i.role for i in task.inputs] == ["in", "in", "inout"]

    def test_version_chain(self):
        dag = _dag(nt=4)
        by_label = {t.label: t for t in dag.graph}
        # GEMM(3,2,k) chain on tile (3,2): versions bump by iteration
        g0 = by_label["GEMM(3, 2, 0)"]
        g1 = by_label["GEMM(3, 2, 1)"]
        assert g0.output == (3, 2, 1)
        assert g1.output == (3, 2, 2)
        assert g1.inputs[2].producer == g0.tid
        # TRSM(3,2) consumes the last GEMM's output
        t = by_label["TRSM(3, 2)"]
        assert t.inputs[1].producer == g1.tid
        assert t.inputs[1].tile == (3, 2, 2)

    def test_potrf_reads_syrk(self):
        dag = _dag(nt=3)
        by_label = {t.label: t for t in dag.graph}
        p2 = by_label["POTRF(2,)"]
        assert p2.inputs[0].producer == by_label["SYRK(2, 1)"].tid

    def test_first_iteration_reads_host_tiles(self):
        dag = _dag(nt=3)
        host_reads = [
            inp for t in dag.graph for inp in t.inputs if inp.producer is None
        ]
        # every tile of the lower triangle enters exactly once from the host
        tiles = {i.tile[:2] for i in host_reads}
        assert tiles == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}

    def test_graph_is_dag_and_topological(self):
        dag = _dag(nt=6)
        order = dag.graph.topological_order()
        pos = {tid: i for i, tid in enumerate(order)}
        for task in dag.graph:
            for p in dag.graph.predecessors(task.tid):
                assert pos[p] < pos[task.tid]


class TestPrecisionAnnotations:
    def test_trsm_exec_precision(self):
        dag = _dag(nt=4, prec=Precision.FP16)
        for task in dag.graph:
            if task.kind == "TRSM":
                assert task.precision == Precision.FP32
            if task.kind in ("POTRF", "SYRK"):
                assert task.precision == Precision.FP64
            if task.kind == "GEMM":
                assert task.precision == Precision.FP16

    def test_stc_sender_conversions(self):
        dag = _dag(nt=4, prec=Precision.FP16, strategy=ConversionStrategy.AUTO)
        for task in dag.graph:
            if task.kind == "TRSM":
                # storage FP32 → payload FP16: one sender conversion
                assert task.sender_conversion == (Precision.FP32, Precision.FP16)
            if task.kind == "POTRF" and task.params[0] < 3:
                assert task.sender_conversion == (Precision.FP64, Precision.FP32)

    def test_ttc_no_sender_conversions(self):
        dag = _dag(nt=4, prec=Precision.FP16, strategy=ConversionStrategy.TTC)
        assert all(t.sender_conversion is None for t in dag.graph)

    def test_fp16_resting_chain(self):
        """FP16 GEMM chains keep the accumulator tile in FP16 encoding."""
        dag = _dag(nt=5, prec=Precision.FP16)
        by_label = {t.label: t for t in dag.graph}
        g = by_label["GEMM(4, 3, 1)"]
        assert g.output_precision == Precision.FP16
        assert g.inputs[2].payload_precision == Precision.FP16  # from GEMM(4,3,0)
        g0 = by_label["GEMM(4, 3, 0)"]
        assert g0.inputs[2].payload_precision == Precision.FP32  # host tile at rest

    def test_fp64_everything_fp64(self):
        dag = _dag(nt=4, prec=Precision.FP64)
        for task in dag.graph:
            assert task.precision == Precision.FP64
            assert task.output_precision == Precision.FP64
            for inp in task.inputs:
                assert inp.payload_precision == Precision.FP64


class TestOwnership:
    def test_owner_computes(self):
        grid = ProcessGrid(2, 2)
        dag = _dag(nt=6, grid=grid)
        for task in dag.graph:
            i, j, _version = task.output
            assert task.rank == grid.owner(i, j)

    def test_priorities_by_iteration(self):
        dag = _dag(nt=4)
        by_label = {t.label: t for t in dag.graph}
        assert by_label["POTRF(0,)"].priority < by_label["TRSM(1, 0)"].priority
        assert by_label["GEMM(2, 1, 0)"].priority < by_label["POTRF(1,)"].priority + 4


# -- the table-driven emitter ≡ the closure PTG it replaced ---------------------

@st.composite
def _cholesky_case(draw):
    """(n, nb, kernel map, strategy, grid): ragged or full, any map over
    the adaptive formats (FP64 diagonal, mirrored like every built map)."""
    nt = draw(st.integers(1, 12))
    nb = draw(st.sampled_from([4, 16]))
    n = nt * nb - draw(st.integers(0, nb - 1))  # nb ∤ n unless the draw is 0
    formats = [int(p) for p in MPConfig().formats]
    lower = draw(st.lists(st.sampled_from(formats), min_size=nt * nt, max_size=nt * nt))
    codes = np.tril(np.array(lower, dtype=np.int8).reshape(nt, nt), -1)
    codes = codes + codes.T
    np.fill_diagonal(codes, int(Precision.FP64))
    strategy = draw(st.sampled_from(list(ConversionStrategy)))
    grid = draw(st.sampled_from([None, ProcessGrid(2, 2), ProcessGrid(2, 3)]))
    return n, nb, KernelPrecisionMap(nt, codes), strategy, grid


class TestEmitterEqualsOracle:
    @given(_cholesky_case())
    @settings(max_examples=60, deadline=None)
    def test_graph_equals_oracle_and_stream(self, case):
        n, nb, kmap, strategy, grid = case
        graph = build_cholesky_dag(n, nb, kmap, strategy=strategy, grid=grid).graph
        oracle = build_cholesky_graph_oracle(n, nb, kmap, strategy=strategy, grid=grid)
        assert graph.tasks == oracle.tasks  # dataclass equality, field for field
        preds, succs = edge_lists(oracle.tasks)
        assert [graph.predecessors(t) for t in range(len(graph))] == preds
        assert [graph.successors(t) for t in range(len(graph))] == succs
        streamed = list(stream_cholesky_tasks(n, nb, kmap, strategy=strategy, grid=grid))
        assert streamed == graph.tasks


class TestSharedPanelReads:
    """One panel tile, one ``TaskInput``: the writer mints it, every
    consumer lists the same immutable object."""

    def test_consumers_share_the_writers_input(self):
        nt = 6
        by_label = {t.label: t for t in _dag(nt=nt).graph}
        m, k = 3, 1
        trsm = by_label[f"TRSM({m}, {k})"]
        shared = by_label[f"SYRK({m}, {k})"].inputs[0]
        assert shared.producer == trsm.tid and shared.tile is trsm.output
        row = [by_label[f"GEMM({m}, {nn}, {k})"].inputs[0] for nn in range(k + 1, m)]
        col = [by_label[f"GEMM({mm}, {m}, {k})"].inputs[1] for mm in range(m + 1, nt)]
        assert row and col and all(inp is shared for inp in row + col)
        # the factored diagonal tile is shared by the TRSMs below it the same way
        diag = {id(by_label[f"TRSM({mm}, {k})"].inputs[0]) for mm in range(k + 1, nt)}
        assert len(diag) == 1

    def test_distinct_input_count_pinned(self):
        """NT=8: 8 POTRF + 28 TRSM + 28 SYRK + 56 GEMM accumulator reads,
        7 shared diagonal reads, 28 shared panel reads — not one per
        consumer (288 reads in all)."""
        graph = _dag(nt=8).graph
        assert sum(len(t.inputs) for t in graph) == 288
        assert len({id(inp) for t in graph for inp in t.inputs}) == 8 + 28 + 28 + 56 + 7 + 28

    def test_shared_objects_are_frozen(self):
        """Aliasing is safe because neither object can be written."""
        inp = _dag(nt=3).graph.tasks[1].inputs[0]
        with pytest.raises(AttributeError):
            inp.producer = 7
        with pytest.raises(TypeError):
            inp.tile[2] = 9
        assert TaskInput(None, inp.tile, inp.payload_precision, inp.storage_precision,
                         inp.elements).role == "in"


class TestGcFootprint:
    def test_build_adds_few_tracked_objects_per_task(self):
        """A built task is its ``Task``, its inputs list and the
        ``TaskInput``s it mints: tile refs are int tuples the collector
        untracks and edges live in flat int lists (the list-per-task graph
        with named-tuple tile refs held 6.1 per task)."""
        nt, nb = 16, 64
        kmap = two_precision_map(nt, Precision.FP16)
        build_cholesky_dag(nt * nb, nb, kmap)  # first-call caches are not the graph's
        gc.collect()
        before = len(gc.get_objects())
        dag = build_cholesky_dag(nt * nb, nb, kmap, grid=ProcessGrid(2, 2))
        gc.collect()
        per_task = (len(gc.get_objects()) - before) / len(dag.graph)
        assert per_task <= 3.2, f"{per_task:.2f} tracked objects per task"
