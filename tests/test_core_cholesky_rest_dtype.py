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
from repro.precision.emulate import OnFp16Grid, Operand, as_input, round_to_fp16
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
    """Each ``tk.gemm`` call, one tile or a stack: its precision, which ``C``
    tiles came flagged, the tiles that came back, and the element count of
    every ``round_to_fp16`` call it made."""

    def __init__(self, monkeypatch):
        self.calls, self.rounded = [], []
        real_round, real_gemm = repro.precision.emulate.round_to_fp16, tk.gemm

        def counting_round(x):
            self.rounded.append(x.size)
            return real_round(x)

        def logged_gemm(a, b, c, precision=Precision.FP64):
            stacked = not isinstance(c, np.ndarray)
            for x in (a, b) if not stacked else (*a, *b):
                as_input(x, precision)  # panel conversions are not the GEMM's
            before = len(self.rounded)
            out = real_gemm(a, b, c, precision=precision)
            flagged = [isinstance(t, OnFp16Grid) for t in (c if stacked else [c])]
            self.calls.append((precision, flagged, list(out) if stacked else [out], self.rounded[before:]))
            return out

        for module in (repro.precision.emulate, repro.precision.gemm, tk):
            monkeypatch.setattr(module, "round_to_fp16", counting_round)
        monkeypatch.setattr(tk, "gemm", logged_gemm)

    @property
    def updates(self):
        """``(precision, C came flagged, updated tile)`` per tile: a stacked call counts its depth."""
        return [(p, f, out) for p, flags, outs, _r in self.calls for f, out in zip(flags, outs)]


class TestRoundedOnce:
    def test_fp16_results_are_flagged_and_on_the_grid(self, weak_sqexp_cov, monkeypatch):
        log = _GemmLog(monkeypatch)
        mp_cholesky(weak_sqexp_cov, _adaptive_map(weak_sqexp_cov, 1e-4))
        assert {p for p, *_ in log.updates} >= {Precision.FP16, Precision.FP16_32, Precision.FP32}
        for precision, _flagged_in, out in log.updates:
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
        assert len(log.updates) == nt * (nt - 1) * (nt - 2) // 6
        # tile (m, n) takes n updates; all but its first find it on the grid already
        first = (nt - 1) * (nt - 2) // 2
        assert sum(flagged for _p, flagged, _out in log.updates) == len(log.updates) - first > 0
        chunks, size = 2, mat.nb * mat.nb  # nb = 64 over the 32-wide accumulator chunk
        for _p, flagged, _outs, rounded in log.calls:
            # one whole-stack rounding per chunk and the update's own; C's only where it
            # arrives unflagged, and only those tiles of it
            rough = flagged.count(False)
            want = [len(flagged) * size] * (chunks + 1) + ([rough * size] if rough else [])
            assert sorted(rounded) == sorted(want)

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

    @pytest.mark.parametrize("operand", ["L", "C"])
    def test_a_non_finite_form_is_refused_by_every_reader(self, rng, operand):
        """A form found non-finite is not remembered as checked: the first
        reader of it and a later reader of the cached form both raise the
        ValueError ``log_likelihood`` reports as ``non_finite``."""
        lower = np.linalg.cholesky(random_spd(8, rng))
        c = rng.standard_normal((8, 8))
        (lower if operand == "L" else c)[5, 2] = np.nan
        l_op, c_op = Operand(lower), Operand(c)
        for _reader in range(2):
            with pytest.raises(ValueError, match="infs or NaNs"):
                tk.trsm(l_op, c_op, precision=Precision.FP32)
        assert l_op.finite == (set() if operand == "L" else {Precision.FP32}) and not c_op.finite

    def test_a_finite_form_is_checked_by_its_first_reader_only(self, rng, monkeypatch):
        l_op = Operand(np.linalg.cholesky(random_spd(8, rng)))
        checked, real = [], np.asarray_chkfinite
        monkeypatch.setattr(np, "asarray_chkfinite", lambda x: checked.append(x.shape) or real(x))
        for m in (3, 4, 5):
            tk.trsm(l_op, rng.standard_normal((m, 8)), precision=Precision.FP32)
        assert checked == [(8, 8), (3, 8), (4, 8), (5, 8)]  # the panel's L once, each plain C
        assert l_op.finite == {Precision.FP32}

    def test_a_non_finite_diagonal_factor_is_a_non_finite_probe(self, monkeypatch):
        """A NaN in a broadcast L_kk: the panel's first TRSM refuses it, and the
        likelihood reports the reason, warning-free."""
        ds = SyntheticField.sqexp_2d(200, 1.0, 0.03, seed=1, nugget=0.01).sample()
        real_potrf, calls = tk.potrf, []

        def poisoned(c_kk):
            lower = real_potrf(c_kk)
            calls.append(1)
            if len(calls) == 2:
                lower[-1, 0] = np.nan
            return lower

        monkeypatch.setattr(tk, "potrf", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = log_likelihood(ds, ds.theta_true, MPConfig(accuracy=1e-4, tile_size=32))
        assert (ev.value, ev.reason, len(calls)) == (-np.inf, "non_finite", 2)


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
