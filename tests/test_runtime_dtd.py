"""Tests for Dynamic Task Discovery and its Cholesky front end."""

import numpy as np
import pytest

from repro.core import ConversionStrategy, build_cholesky_dag, build_precision_map, two_precision_map
from repro.core.dtd_cholesky import build_cholesky_dag_dtd
from repro.precision import Precision
from repro.runtime import execute_numeric
from repro.runtime.dtd import AccessMode, DataAccess, DTDRuntime
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix


class TestDTDRuntime:
    def test_raw_dependency_inferred(self):
        rt = DTDRuntime()
        t0 = rt.insert_task("W", (0,), [DataAccess((0, 0), AccessMode.OUTPUT)])
        t1 = rt.insert_task("R", (1,), [
            DataAccess((0, 0), AccessMode.INPUT),
            DataAccess((1, 0), AccessMode.OUTPUT),
        ])
        g = rt.finalize()
        assert g.predecessors(t1.tid) == [t0.tid]

    def test_waw_creates_version_chain(self):
        rt = DTDRuntime()
        a = rt.insert_task("A", (0,), [DataAccess((0, 0), AccessMode.INOUT)])
        b = rt.insert_task("B", (1,), [DataAccess((0, 0), AccessMode.INOUT)])
        g = rt.finalize()
        assert a.output.version == 1
        assert b.output.version == 2
        assert g.predecessors(b.tid) == [a.tid]
        assert rt.current_version((0, 0)) == 2

    def test_unwritten_input_comes_from_host(self):
        rt = DTDRuntime()
        t = rt.insert_task("R", (0,), [
            DataAccess((3, 1), AccessMode.INPUT),
            DataAccess((0, 0), AccessMode.OUTPUT),
        ])
        rt.finalize()
        assert t.inputs[0].producer is None
        assert t.inputs[0].tile.version == 0

    def test_requires_exactly_one_write(self):
        rt = DTDRuntime()
        with pytest.raises(ValueError, match="exactly one"):
            rt.insert_task("X", (0,), [DataAccess((0, 0), AccessMode.INPUT)])
        with pytest.raises(ValueError, match="exactly one"):
            rt.insert_task("X", (0,), [
                DataAccess((0, 0), AccessMode.OUTPUT),
                DataAccess((1, 1), AccessMode.OUTPUT),
            ])

    def test_insert_after_finalize_rejected(self):
        rt = DTDRuntime()
        rt.insert_task("A", (0,), [DataAccess((0, 0), AccessMode.OUTPUT)])
        rt.finalize()
        with pytest.raises(RuntimeError):
            rt.insert_task("B", (1,), [DataAccess((1, 1), AccessMode.OUTPUT)])

    def test_output_mode_skips_dataflow(self):
        """OUTPUT (write-only) accesses don't read the previous version."""
        rt = DTDRuntime()
        rt.insert_task("A", (0,), [DataAccess((0, 0), AccessMode.INOUT)])
        t = rt.insert_task("B", (1,), [DataAccess((0, 0), AccessMode.OUTPUT)])
        rt.finalize()
        assert t.inputs == []  # no read; still versions after A via the map
        assert t.output.version == 2


class TestDTDCholeskyEquivalence:
    """Task by task, tid and input producer ids included (dataclass
    equality): both front ends mint k-major ids."""

    @pytest.mark.parametrize("strategy", [ConversionStrategy.AUTO, ConversionStrategy.TTC])
    def test_same_graph_as_ptg_extreme(self, strategy):
        kmap = two_precision_map(5, Precision.FP16)
        ptg = build_cholesky_dag(5 * 16, 16, kmap, strategy=strategy)
        dtd = build_cholesky_dag_dtd(5 * 16, 16, kmap, strategy=strategy)
        assert list(ptg.graph.tasks) == list(dtd.graph.tasks)

    def test_same_graph_adaptive_map(self, matern_cov_160):
        kmap = build_precision_map(tile_norms(matern_cov_160), 1e-4)
        ptg = build_cholesky_dag(160, 20, kmap)
        dtd = build_cholesky_dag_dtd(160, 20, kmap)
        assert list(ptg.graph.tasks) == list(dtd.graph.tasks)

    def test_numeric_execution_identical(self, rng):
        a = rng.standard_normal((80, 80))
        mat = TiledSymmetricMatrix.from_dense(a @ a.T + 80 * np.eye(80), 16)
        kmap = two_precision_map(5, Precision.FP16_32)
        out_ptg = execute_numeric(build_cholesky_dag(80, 16, kmap).graph, mat)
        out_dtd = execute_numeric(build_cholesky_dag_dtd(80, 16, kmap).graph, mat)
        assert np.array_equal(out_ptg.lower_dense(), out_dtd.lower_dense())

    def test_size_validation(self):
        from repro.core import uniform_map

        with pytest.raises(ValueError):
            build_cholesky_dag_dtd(100, 16, uniform_map(5, Precision.FP64))
