"""Edge-case and failure-injection tests for the runtime layer."""

import numpy as np
import pytest

from repro.core import (
    build_cholesky_dag,
    simulate_cholesky,
    two_precision_map,
    uniform_map,
)
from repro.perfmodel import V100
from repro.precision import Precision
from repro.runtime import Platform, TaskGraph, execute_numeric, simulate
from repro.runtime.task import Task, TaskInput
from repro.tiles.tilematrix import TiledSymmetricMatrix
from tests.conftest import lower_dense


class TestDegenerateGraphs:
    def test_single_tile_matrix(self):
        """NT = 1: one POTRF, nothing else."""
        plat = Platform.single_gpu(V100)
        rep = simulate_cholesky(512, 512, uniform_map(1, Precision.FP64), plat)
        assert rep.stats.n_tasks == 1
        assert rep.makespan > 0

    def test_empty_graph(self):
        g = TaskGraph()
        g.finalize()
        plat = Platform.single_gpu(V100)
        rep = simulate(g, plat, 512)
        assert rep.makespan == 0.0
        assert rep.stats.n_tasks == 0

    def test_two_tile_matrix_numeric(self, rng):
        a = rng.standard_normal((32, 32))
        spd = a @ a.T + 32 * np.eye(32)
        mat = TiledSymmetricMatrix.from_dense(spd, 16)
        dag = build_cholesky_dag(32, 16, two_precision_map(2, Precision.FP16))
        out = lower_dense(execute_numeric(dag.graph, mat))
        rel = np.linalg.norm(out @ out.T - spd) / np.linalg.norm(spd)
        assert rel < 1e-2


class TestSimulatorRobustness:
    def test_unknown_payload_origin_detected(self):
        """A consumer whose payload was never produced nor host-seeded."""
        g = TaskGraph()
        g.add(Task(
            tid=0, kind="POTRF", params=(0,), rank=0, precision=Precision.FP64,
            flops=1.0, output=(0, 0, 1), output_precision=Precision.FP64,
            inputs=[TaskInput(None, (0, 0, 0), Precision.FP64,
                              Precision.FP64, 4, "inout")],
        ))
        g.add(Task(
            tid=1, kind="TRSM", params=(1, 0), rank=0, precision=Precision.FP64,
            flops=1.0, output=(1, 0, 1), output_precision=Precision.FP64,
            inputs=[
                TaskInput(0, (0, 0, 1), Precision.FP32,  # wrong key!
                          Precision.FP64, 4, "in"),
                TaskInput(None, (1, 0, 0), Precision.FP64,
                          Precision.FP64, 4, "inout"),
            ],
        ))
        g.finalize()
        plat = Platform.single_gpu(V100)
        with pytest.raises(KeyError, match="no origin"):
            simulate(g, plat, 2)

    def test_a_version_nobody_wrote_names_its_payload(self):
        """Task 1 reads version 2 of tile (0, 0), which task 0 never wrote
        (it wrote version 1): the engine's ``KeyError`` names the payload
        as ``(i, j, version, PRECISION)``, decoded from its int key."""
        fp64 = Precision.FP64
        g = TaskGraph()
        g.new_task(kind="POTRF", params=(0,), rank=0, precision=fp64, flops=1.0,
                   output=(0, 0, 1), output_precision=fp64,
                   inputs=[TaskInput(None, (0, 0, 0), fp64, fp64, 4, "inout")])
        g.new_task(kind="TRSM", params=(1, 0), rank=0, precision=fp64, flops=1.0,
                   output=(1, 0, 1), output_precision=fp64,
                   inputs=[TaskInput(0, (0, 0, 2), fp64, fp64, 4),
                           TaskInput(None, (1, 0, 0), fp64, fp64, 4, "inout")])
        g.finalize()
        with pytest.raises(KeyError, match=r"payload \(0, 0, 2, FP64\) has no origin "
                                           r"\(missing producer or host seed\)"):
            simulate(g, Platform.single_gpu(V100), 2)

    def test_priority_affects_order_not_results(self):
        """Scrambling priorities changes scheduling, never correctness."""
        nt, nb = 8, 512
        plat = Platform.single_gpu(V100)
        kmap = two_precision_map(nt, Precision.FP16)
        base = simulate_cholesky(nt * nb, nb, kmap, plat, record_events=False)
        dag = build_cholesky_dag(nt * nb, nb, kmap, grid=plat.process_grid())
        rng = np.random.default_rng(0)
        for t in dag.graph:
            t.priority = int(rng.integers(0, 100))
        scrambled = simulate(dag.graph, plat, nb, record_events=False)
        assert scrambled.stats.n_tasks == base.stats.n_tasks
        assert scrambled.stats.total_flops == base.stats.total_flops
        # makespan may differ (scheduling) but stays within 2x
        assert scrambled.makespan < base.makespan * 2

    def test_many_gpus_few_tiles(self):
        """More ranks than tiles: idle ranks must not deadlock anything."""
        from repro.perfmodel.gpus import NodeSpec

        node = NodeSpec("wide", V100, 8, 256e9, 25e9, 1.5e-6)
        plat = Platform(node=node, n_nodes=2)  # 16 ranks
        rep = simulate_cholesky(3 * 512, 512, uniform_map(3, Precision.FP64), plat)
        assert rep.stats.n_tasks == 3 + 3 + 3 + 1

    def test_zero_memory_gpu_unbounded_mode(self, unbounded):
        """Unbounded memories must work even for huge matrices."""
        plat = unbounded(Platform.single_gpu(V100))
        rep = simulate_cholesky(
            16 * 2048, 2048, uniform_map(16, Precision.FP64), plat, record_events=False,
        )
        assert rep.stats.n_evictions == 0


class TestTraceAccounting:
    def test_compute_busy_le_makespan(self):
        plat = Platform.single_gpu(V100)
        rep = simulate_cholesky(6 * 512, 512, uniform_map(6, Precision.FP64), plat)
        busy = sum(e.duration for e in rep.trace.events_of_rank(0) if e.engine == "compute")
        assert busy <= rep.makespan * (1 + 1e-9)

    def test_events_sorted_within_engine(self):
        plat = Platform.single_gpu(V100)
        rep = simulate_cholesky(5 * 512, 512, uniform_map(5, Precision.FP64), plat)
        compute = [e for e in rep.trace.events if e.engine == "compute"]
        # the compute engine is serial: events must not overlap
        ordered = sorted(compute, key=lambda e: e.t_start)
        for a, b in zip(ordered, ordered[1:]):
            assert a.t_end <= b.t_start + 1e-12
