"""Convert once: a panel payload is rounded once per input format, and the
factorization still reaches its kernels where perfbench patches them."""

import numpy as np
import pytest

import repro.core.cholesky
import repro.precision.emulate
import repro.precision.gemm
import repro.runtime.executor
from repro.core.cholesky import mp_cholesky
from repro.core.config import ConversionStrategy, MPConfig
from repro.core.dag_cholesky import build_cholesky_dag
from repro.core.precision_map import build_precision_map, two_precision_map
from repro.geostats.generator import SyntheticField, build_tiled_covariance
from repro.precision import Precision
from repro.runtime.executor import execute_numeric
from repro.runtime.parallel_executor import execute_numeric_parallel
from repro.tiles import kernels as tk
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix

FP16_MIN_NORMAL = 2.0**-14


@pytest.fixture(scope="module")
def weak_sqexp():
    """A short-range 2D-sqexp covariance (ragged NT=7): all four adaptive
    formats, and FP16 tiles whose entries are mostly subnormal in fp16."""
    ds = SyntheticField.sqexp_2d(200, 1.0, 0.03, seed=1, nugget=0.01).sample()
    mat = build_tiled_covariance(ds.locations, ds.model, ds.theta_true, 32, nugget=ds.nugget)
    kmap = build_precision_map(tile_norms(mat), 1e-4, MPConfig().formats)
    return mat, kmap


def _bits(mat: TiledSymmetricMatrix) -> dict:
    return {t: mat.get(*t).tobytes() for t in mat.lower_indices()}


class TestSubnormalHeavyFactorization:
    def test_fixture_is_what_it_claims(self, weak_sqexp):
        mat, kmap = weak_sqexp
        assert set(kmap.tile_fractions()) == set(MPConfig().formats)
        fp16 = np.abs(np.concatenate([mat.get(i, j).ravel() for i, j in mat.lower_indices()
                                      if kmap.kernel(i, j) == Precision.FP16]))
        assert np.mean((fp16 > 0) & (fp16 < FP16_MIN_NORMAL)) > 0.5

    @pytest.mark.parametrize("strategy", list(ConversionStrategy))
    def test_reference_and_executors_agree_bitwise(self, weak_sqexp, strategy):
        mat, kmap = weak_sqexp
        ref = mp_cholesky(mat, kmap, strategy=strategy).factor
        dag = build_cholesky_dag(mat.n, mat.nb, kmap, strategy=strategy)
        assert _bits(execute_numeric(dag.graph, mat)) == _bits(ref)
        assert _bits(execute_numeric_parallel(dag.graph, mat, n_threads=3)) == _bits(ref)


class _Spy:
    """Counts calls of ``round_to_fp16`` by the identity of what they round."""

    def __init__(self, monkeypatch):
        self.calls: list[np.ndarray] = []
        real = repro.precision.emulate.round_to_fp16

        def spy(x):
            self.calls.append(x)
            return real(x)

        monkeypatch.setattr(repro.precision.emulate, "round_to_fp16", spy)
        monkeypatch.setattr(repro.precision.gemm, "round_to_fp16", spy)


def _record_operands(monkeypatch, module) -> list:
    """Every ``Operand`` that ``module`` wraps from here on."""
    made = []
    real = module.Operand

    def recording(data):
        made.append(real(data))
        return made[-1]

    monkeypatch.setattr(module, "Operand", recording)
    return made


class TestPayloadsAreRoundedOnce:
    NT = 6

    @pytest.fixture
    def all_fp16(self, tiled_96):
        return tiled_96, two_precision_map(self.NT, Precision.FP16)

    def _panel_roundings(self, spy, payloads):
        """How often each payload array itself went into the primitive."""
        return [sum(x is data for x in spy.calls) for data in payloads]

    def test_mp_cholesky(self, all_fp16, monkeypatch):
        mat, kmap = all_fp16
        operands = _record_operands(monkeypatch, repro.core.cholesky)
        spy = _Spy(monkeypatch)
        res = mp_cholesky(mat, kmap)
        nt = self.NT
        payloads = [op.data for op in operands]
        # one diagonal and nt-1-k panel payloads per iteration that has a panel
        assert len(payloads) == (nt - 1) + nt * (nt - 1) // 2
        panel = [p for p in payloads if not np.array_equal(p, np.tril(p))]
        assert len(panel) == nt * (nt - 1) // 2
        # a TRSM result feeds up to nt-2 FP16 GEMMs, yet is rounded to their grid once
        assert res.kernel_counts[("GEMM", Precision.FP16)] == nt * (nt - 1) * (nt - 2) // 6
        roundings = self._panel_roundings(spy, panel)
        assert max(roundings) == 1
        assert sum(roundings) >= len(panel) - 1  # tile (nt-1, nt-2) feeds no GEMM

    def test_execute_numeric(self, all_fp16, monkeypatch):
        mat, kmap = all_fp16
        dag = build_cholesky_dag(mat.n, mat.nb, kmap)
        spy = _Spy(monkeypatch)
        operands = _record_operands(monkeypatch, repro.runtime.executor)
        execute_numeric(dag.graph, mat)
        # one payload per broadcast tile (each travels at one precision here), however many read it
        assert len(operands) == (self.NT - 1) + self.NT * (self.NT - 1) // 2
        assert max(self._panel_roundings(spy, [op.data for op in operands])) == 1


class TestPerfbenchPatchPoints:
    """perfbench/workloads.py ``getattr``/``setattr``s these names for its
    in-situ kernel profile; they must stay attributes, and the kernels and
    tile accessors must stay what the factorization calls through them."""

    def test_names_resolve(self):
        for module in (repro.core.cholesky, tk, repro.precision.gemm):
            assert callable(getattr(module, "quantize"))
        for name in ("potrf", "trsm", "syrk", "gemm", "trsm_execution_precision"):
            assert callable(getattr(tk, name))
        for name in ("get", "set"):
            assert callable(getattr(TiledSymmetricMatrix, name))

    def test_factorization_calls_through_the_attributes(self, weak_sqexp, monkeypatch):
        mat, kmap = weak_sqexp
        seen: dict[tuple[str, Precision], int] = {}

        depths = []

        def counted(fn, key_of, depth_of=lambda *args, **kwargs: 1):
            def wrapper(*args, **kwargs):
                key = key_of(*args, **kwargs)
                seen[key] = seen.get(key, 0) + depth_of(*args, **kwargs)
                return fn(*args, **kwargs)
            return wrapper

        def gemm_depth(a, b, c, precision=Precision.FP64):
            # tile updates, not calls: a stacked GEMM (``c`` a sequence of tiles) counts its depth
            depths.append(1 if isinstance(c, np.ndarray) else len(c))
            return depths[-1]

        # perfbench's own key functions: positional operands, ``precision=`` keyword
        monkeypatch.setattr(tk, "potrf", counted(tk.potrf, lambda c: ("POTRF", Precision.FP64)))
        monkeypatch.setattr(tk, "trsm", counted(
            tk.trsm, lambda l_kk, c, precision=Precision.FP64:
            ("TRSM", tk.trsm_execution_precision(precision))))
        monkeypatch.setattr(tk, "syrk", counted(
            tk.syrk, lambda a, c, precision=Precision.FP64: ("SYRK", Precision.FP64)))
        monkeypatch.setattr(tk, "gemm", counted(
            tk.gemm, lambda a, b, c, precision=Precision.FP64: ("GEMM", precision), gemm_depth))
        accesses = {"get": 0, "set": 0}
        for name in accesses:
            real = getattr(TiledSymmetricMatrix, name)

            def tallied(self, *args, _real=real, _name=name, **kwargs):
                accesses[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(TiledSymmetricMatrix, name, tallied)

        res = mp_cholesky(mat, kmap)
        assert seen == res.kernel_counts
        assert max(depths) > 1  # the FP16 updates went through the attribute as stacks
        assert {Precision.FP16, Precision.FP16_32, Precision.FP32} <= {p for kind, p in seen if kind == "GEMM"}
        # tiles stay at their rest dtype between kernels: the float64 accessors are
        # the generation-phase cast only (perfbench ``pop``s both, so each is called)
        n_tiles = mat.nt * (mat.nt + 1) // 2
        assert 1 <= accesses["get"] <= n_tiles and 1 <= accesses["set"] <= n_tiles
