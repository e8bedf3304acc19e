"""Tiles rest in their own dtype and are rounded once: ``mp_cholesky`` ≡ the
float64-round-trip loop it replaced (``tests/cholesky_numeric_oracle.py``)
on the raw bits, and the mechanisms that make it cheaper do what they say."""

import dataclasses
import warnings

import numpy as np
import pytest

import repro.precision.emulate
import repro.precision.gemm
from repro.core.cholesky import mp_cholesky
from repro.core.config import ConversionStrategy, MPConfig
from repro.core.dag_cholesky import build_cholesky_dag
from repro.core.precision_map import build_precision_map, two_precision_map, uniform_map
from repro.geostats.covariance import SquaredExponential
from repro.geostats.generator import SyntheticField
from repro.geostats.likelihood import log_likelihood
from repro.geostats.mle import fit_mle
from repro.precision import Precision
from repro.precision.emulate import OnFp16Grid, as_input, round_to_fp16
from repro.runtime.executor import execute_numeric
from repro.tiles import kernels as tk
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix
from tests import cholesky_numeric_oracle
from tests.cholesky_numeric_oracle import mp_cholesky_oracle
from tests.conftest import random_spd


def _adaptive_map(mat, u_req):
    return build_precision_map(tile_norms(mat), u_req, MPConfig().formats)


def _raw(factor: TiledSymmetricMatrix) -> dict:
    """Every tile as it rests: dtype, recorded storage precision, bytes (signed zeros included)."""
    return {t: (factor.tiles[t].dtype.str, factor.precision_of(*t), factor.tiles[t].tobytes())
            for t in factor.lower_indices()}


def _outcome(factorize, mat, kmap, **kwargs):
    """``(raw factor, kernel counts)``, or the type of what the factorization raised."""
    try:
        res = factorize(mat, kmap, **kwargs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        return type(exc)
    return _raw(res.factor), res.kernel_counts


class TestFactorEqualsOracle:
    @pytest.mark.parametrize("strategy", list(ConversionStrategy))
    @pytest.mark.parametrize("u_req", [1e-2, 1e-4, 1e-9])
    def test_adaptive_maps_on_ragged_tiles(self, weak_sqexp_cov, u_req, strategy):
        kmap = _adaptive_map(weak_sqexp_cov, u_req)
        if u_req == 1e-4:
            assert set(kmap.tile_fractions()) == set(MPConfig().formats)
        got = _outcome(mp_cholesky, weak_sqexp_cov, kmap, strategy=strategy)
        assert got == _outcome(mp_cholesky_oracle, weak_sqexp_cov, kmap, strategy=strategy)
        if u_req != 1e-2:
            assert isinstance(got, tuple)  # a factor was compared, not two failures

    @pytest.mark.parametrize("make_map", [
        lambda nt: two_precision_map(nt, Precision.FP16),     # every GEMM a chain of FP16 updates
        lambda nt: two_precision_map(nt, Precision.FP16_32),
        lambda nt: two_precision_map(nt, Precision.TF32),
        lambda nt: uniform_map(nt, Precision.FP32),           # diagonal tiles rest in float32 too
        lambda nt: None,                                       # the FP64 default
    ], ids=["FP64/FP16", "FP64/FP16_32", "FP64/TF32", "FP32-uniform", "default"])
    def test_fixed_maps(self, tiled_96, make_map):
        kmap = make_map(tiled_96.nt)
        got = _outcome(mp_cholesky, tiled_96, kmap)
        assert isinstance(got, tuple) and got == _outcome(mp_cholesky_oracle, tiled_96, kmap)

    def test_overwrite(self, weak_sqexp_cov):
        kmap = _adaptive_map(weak_sqexp_cov, 1e-4)
        before = _raw(weak_sqexp_cov)
        want = _outcome(mp_cholesky_oracle, weak_sqexp_cov, kmap)
        assert _outcome(mp_cholesky, weak_sqexp_cov, kmap, overwrite=False) == want
        assert _raw(weak_sqexp_cov) == before  # the input's tiles were neither replaced nor written into
        scratch = weak_sqexp_cov.copy()
        res = mp_cholesky(scratch, kmap, overwrite=True)
        assert res.factor is scratch and (_raw(scratch), res.kernel_counts) == want

    def test_no_tile_leaves_flagged(self, tiled_96):
        factor = mp_cholesky(tiled_96, two_precision_map(tiled_96.nt, Precision.FP16)).factor
        assert {type(t) for t in factor.tiles.values()} == {np.ndarray}

    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_saturating_input_fails_alike_and_silently(self, weak_sqexp_cov, scale):
        kmap = _adaptive_map(weak_sqexp_cov, 1e-4)
        huge = weak_sqexp_cov.copy()
        for t in huge.lower_indices():
            huge.set(*t, huge.get(*t) * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(mp_cholesky, huge, kmap)
            assert got == _outcome(mp_cholesky_oracle, huge, kmap)
        # the NaN tile is found by POTRF or by TRSM's finiteness check, whichever reads it first
        assert isinstance(got, type)


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.fixture
def fp16_chain(rng):
    """320×320 in 64-wide tiles (two accumulator chunks), every trailing update FP16."""
    mat = TiledSymmetricMatrix.from_dense(random_spd(320, rng), 64)
    return mat, two_precision_map(mat.nt, Precision.FP16)


class _GemmLog:
    """Each ``tk.gemm`` call: precision, whether ``C`` came flagged, what came
    back, and how many ``round_to_fp16`` calls it made."""

    def __init__(self, monkeypatch):
        self.calls, self.roundings = [], 0
        real_round, real_gemm = repro.precision.emulate.round_to_fp16, tk.gemm

        def counting_round(x):
            self.roundings += 1
            return real_round(x)

        def logged_gemm(a, b, c, precision=Precision.FP64):
            before = self.roundings
            as_input(a, precision), as_input(b, precision)  # panel conversions are not the GEMM's
            made = self.roundings - before
            out = real_gemm(a, b, c, precision=precision)
            self.calls.append((precision, isinstance(c, OnFp16Grid), out, self.roundings - before - made))
            return out

        monkeypatch.setattr(repro.precision.emulate, "round_to_fp16", counting_round)
        monkeypatch.setattr(repro.precision.gemm, "round_to_fp16", counting_round)
        monkeypatch.setattr(tk, "gemm", logged_gemm)


class TestRoundedOnce:
    def test_fp16_results_are_flagged_and_on_the_grid(self, weak_sqexp_cov, monkeypatch):
        log = _GemmLog(monkeypatch)
        mp_cholesky(weak_sqexp_cov, _adaptive_map(weak_sqexp_cov, 1e-4))
        assert {p for p, *_ in log.calls} >= {Precision.FP16, Precision.FP16_32, Precision.FP32}
        for precision, _flagged_in, out, _n in log.calls:
            assert isinstance(out, OnFp16Grid) == (precision == Precision.FP16)
            assert out.dtype == (np.float64 if precision == Precision.FP64 else np.float32)
            if precision == Precision.FP16:
                assert _bits(round_to_fp16(np.asarray(out))) == _bits(out)

    @pytest.mark.parametrize("run", [
        lambda mat, kmap: mp_cholesky(mat, kmap),
        lambda mat, kmap: execute_numeric(build_cholesky_dag(mat.n, mat.nb, kmap).graph, mat),
    ], ids=["mp_cholesky", "execute_numeric"])
    def test_c_is_rounded_at_its_first_fp16_update_only(self, fp16_chain, monkeypatch, run):
        mat, kmap = fp16_chain
        log = _GemmLog(monkeypatch)
        run(mat, kmap)
        nt = mat.nt
        assert len(log.calls) == nt * (nt - 1) * (nt - 2) // 6
        # tile (m, n) takes n updates; all but its first find it on the grid already
        first = (nt - 1) * (nt - 2) // 2
        assert sum(flagged for _p, flagged, _out, _n in log.calls) == len(log.calls) - first > 0
        chunks = 2  # nb = 64 over the 32-wide accumulator chunk
        for _p, flagged, _out, n_roundings in log.calls:
            # one per chunk and the update's own; C's only when it arrives unflagged
            assert n_roundings == chunks + 1 + (not flagged) <= 4 - flagged

    def test_one_get_and_one_set_per_tile(self, weak_sqexp_cov, monkeypatch):
        kmap = _adaptive_map(weak_sqexp_cov, 1e-4)
        seen = {"get": [], "set": []}
        for name in seen:
            real = getattr(TiledSymmetricMatrix, name)

            def tallied(self, i, j, *args, _real=real, _name=name, **kwargs):
                seen[_name].append((i, j))
                return _real(self, i, j, *args, **kwargs)

            monkeypatch.setattr(TiledSymmetricMatrix, name, tallied)
        mp_cholesky(weak_sqexp_cov, kmap)
        lower = sorted(weak_sqexp_cov.lower_indices())
        # the generation-phase cast, and nothing per kernel
        assert sorted(seen["get"]) == lower and sorted(seen["set"]) == lower


class TestOnFp16Grid:
    def test_the_claim_does_not_survive_arithmetic(self, rng):
        x = round_to_fp16(rng.standard_normal((6, 6)).astype(np.float32)).view(OnFp16Grid)
        for plain in (x + 1, x * x, x @ x, -x, np.abs(x), x == x, np.tril(x), np.asarray(x)):
            assert type(plain) is np.ndarray
        assert isinstance(x.sum(), np.float32)
        for still in (x.T, x[:3], x[:, 1::2]):  # a view holds a subset of the same values
            assert type(still) is OnFp16Grid

    def test_as_input_rounds_it_never_again(self, rng, monkeypatch):
        x = round_to_fp16(rng.standard_normal((6, 6)).astype(np.float32)).view(OnFp16Grid)
        monkeypatch.setattr(repro.precision.emulate, "round_to_fp16",
                            lambda x: pytest.fail("rounded a tile that says it is on the grid"))
        for prec in (Precision.FP16, Precision.FP16_32, Precision.FP32):
            assert as_input(x, prec) is x
        assert type(as_input(x, Precision.FP64)) is np.ndarray
        assert np.array_equal(as_input(x, Precision.FP64), x)


class TestTrsmWithoutTheWrapper:
    """``tk.trsm`` calls ``?trtrs`` itself: same bits for either layout of
    ``L``, and the errors ``scipy.linalg.solve_triangular`` raised."""

    @pytest.mark.parametrize("precision", [Precision.FP64, Precision.FP16])
    def test_bits_for_both_layouts_of_l(self, rng, precision):
        lower = np.linalg.cholesky(random_spd(24, rng))
        c = rng.standard_normal((17, 24))  # a ragged panel tile
        want = cholesky_numeric_oracle.trsm(lower, c, precision=precision)
        width = np.float64 if precision == Precision.FP64 else np.float32
        for l_kk in (lower, np.asfortranarray(lower)):
            got = tk.trsm(l_kk, c, precision=precision)
            assert got.dtype == width and _bits(got.astype(np.float64)) == _bits(want)

    @pytest.mark.parametrize("bad, error", [(0.0, np.linalg.LinAlgError), (np.nan, ValueError)])
    def test_singular_or_non_finite_l_raises_what_scipy_raised(self, rng, bad, error):
        lower = np.linalg.cholesky(random_spd(8, rng))
        lower[5, 5] = bad
        c = rng.standard_normal((8, 8))
        with pytest.raises(error) as want:
            cholesky_numeric_oracle.trsm(lower, c, precision=Precision.FP32)
        with pytest.raises(error, match=str(want.value)):
            tk.trsm(lower, c, precision=Precision.FP32)


class _WideVariance(SquaredExponential):
    """2D-sqexp whose variance the optimizer may push past the fp16 range."""

    def bounds(self):
        return [(0.01, 1e9), (0.01, 2.0)]


class TestSaturatingProbe:
    """A θ whose covariance saturates fp16 is an infeasible probe with a
    reason, not a RuntimeWarning (an error under the suite's filter)."""

    @pytest.fixture(scope="class")
    def ds(self):
        ds = SyntheticField.sqexp_2d(512, 1.0, 0.03, seed=0, nugget=0.01).sample()
        return dataclasses.replace(ds, model=_WideVariance(dim=2))

    def test_log_likelihood(self, ds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = log_likelihood(ds, (1e8, 0.03), MPConfig(accuracy=1e-4, tile_size=64))
        assert ev.value == -np.inf and ev.reason == "not_positive_definite"

    def test_fit_counts_it_by_reason(self, ds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_mle(ds, accuracy=1e-4, tile_size=64, x0=(1e8, 0.03), max_evals=6, restarts=0)
        assert res.infeasible_evals == res.n_evals > 0
        assert res.infeasible_by_reason == {"not_positive_definite": res.n_evals}
