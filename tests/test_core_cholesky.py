"""Unit and property tests for the adaptive mixed-precision Cholesky."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cholesky import logdet_from_factor, mp_cholesky, solve_with_factor
from repro.core.config import ConversionStrategy
from repro.core.conversion import build_comm_precision_map
from repro.core.precision_map import build_precision_map, two_precision_map, uniform_map
from repro.geostats.generator import SyntheticField, build_tiled_covariance
from repro.precision import Precision
from repro.tiles.kernels import NotPositiveDefiniteError
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix
from tests.conftest import lower_dense, random_spd


class TestFP64Reference:
    def test_matches_numpy(self, tiled_96, spd_96):
        res = mp_cholesky(tiled_96)
        L = lower_dense(res.factor)
        assert np.allclose(L, np.linalg.cholesky(spd_96), atol=1e-10)

    def test_reconstruction(self, tiled_96, spd_96):
        L = lower_dense(mp_cholesky(tiled_96).factor)
        rel = np.linalg.norm(L @ L.T - spd_96) / np.linalg.norm(spd_96)
        assert rel < 1e-14

    def test_ragged_tiles(self, rng):
        spd = random_spd(52, rng)
        mat = TiledSymmetricMatrix.from_dense(spd, 16)
        L = lower_dense(mp_cholesky(mat).factor)
        assert np.allclose(L @ L.T, spd)

    def test_single_tile(self, rng):
        spd = random_spd(16, rng)
        mat = TiledSymmetricMatrix.from_dense(spd, 16)
        L = lower_dense(mp_cholesky(mat).factor)
        assert np.allclose(L, np.linalg.cholesky(spd))

    def test_input_not_modified_by_default(self, tiled_96):
        before = tiled_96.to_dense()
        mp_cholesky(tiled_96)
        assert np.array_equal(tiled_96.to_dense(), before)

    def test_overwrite_mode(self, tiled_96, spd_96):
        res = mp_cholesky(tiled_96, overwrite=True)
        assert res.factor is tiled_96

    def test_raises_on_indefinite(self, rng):
        a = rng.standard_normal((32, 32))
        sym = (a + a.T) / 2  # indefinite
        mat = TiledSymmetricMatrix.from_dense(sym, 16)
        with pytest.raises(NotPositiveDefiniteError):
            mp_cholesky(mat)


class TestMixedPrecision:
    def test_error_scales_with_accuracy(self, matern_cov_160):
        dense = matern_cov_160.to_dense()
        dense += 0.01 * np.eye(160)
        mat = TiledSymmetricMatrix.from_dense(dense, 20)
        norms = tile_norms(mat)
        errors = {}
        for acc in (1e-2, 1e-6, 1e-12):
            kmap = build_precision_map(norms, acc)
            L = lower_dense(mp_cholesky(mat, kmap).factor)
            errors[acc] = np.linalg.norm(L @ L.T - dense) / np.linalg.norm(dense)
        assert errors[1e-12] < errors[1e-6] < errors[1e-2]
        assert errors[1e-2] < 1e-1

    def test_error_within_budget(self, matern_cov_160):
        """The factorization residual respects the u_req budget scale."""
        dense = matern_cov_160.to_dense() + 0.01 * np.eye(160)
        mat = TiledSymmetricMatrix.from_dense(dense, 20)
        acc = 1e-4
        kmap = build_precision_map(tile_norms(mat), acc)
        L = lower_dense(mp_cholesky(mat, kmap).factor)
        rel = np.linalg.norm(L @ L.T - dense) / np.linalg.norm(dense)
        assert rel < acc * mat.nt * 10  # rule bound with slack for growth

    @pytest.mark.parametrize("strategy", [ConversionStrategy.AUTO, ConversionStrategy.TTC])
    def test_strategies_numerically_close(self, matern_cov_160, strategy):
        """AUTO's STC payloads never lose more accuracy than TTC beyond
        re-quantisation."""
        dense = matern_cov_160.to_dense() + 0.01 * np.eye(160)
        mat = TiledSymmetricMatrix.from_dense(dense, 20)
        kmap = build_precision_map(tile_norms(mat), 1e-4)
        ref = lower_dense(mp_cholesky(mat, kmap, strategy=ConversionStrategy.TTC).factor)
        out = lower_dense(mp_cholesky(mat, kmap, strategy=strategy).factor)
        rel = np.linalg.norm(out - ref) / np.linalg.norm(ref)
        assert rel < 1e-3

    def test_kernel_counts(self, tiled_96):
        res = mp_cholesky(tiled_96, two_precision_map(6, Precision.FP16))
        counts = res.kernel_counts
        assert counts[("POTRF", Precision.FP64)] == 6
        assert counts[("SYRK", Precision.FP64)] == 15
        assert counts[("TRSM", Precision.FP32)] == 15  # FP16 tiles → FP32 TRSM
        assert counts[("GEMM", Precision.FP16)] == 20

    def test_map_size_mismatch(self, tiled_96):
        with pytest.raises(ValueError, match="NT"):
            mp_cholesky(tiled_96, uniform_map(5, Precision.FP64))


class TestLogdetAndSolve:
    def test_logdet_matches_slogdet(self, tiled_96, spd_96):
        res = mp_cholesky(tiled_96)
        _sign, ref = np.linalg.slogdet(spd_96)
        assert logdet_from_factor(res.factor) == pytest.approx(ref)

    def test_result_logdet_method(self, tiled_96):
        res = mp_cholesky(tiled_96)
        assert res.logdet() == logdet_from_factor(res.factor)

    def test_solve(self, tiled_96, spd_96, rng):
        res = mp_cholesky(tiled_96)
        b = rng.standard_normal(96)
        x = solve_with_factor(res.factor, b)
        assert np.allclose(spd_96 @ x, b)

    def test_solve_matrix_rhs(self, tiled_96, spd_96, rng):
        res = mp_cholesky(tiled_96)
        b = rng.standard_normal((96, 3))
        x = solve_with_factor(res.factor, b)
        assert np.allclose(spd_96 @ x, b)

    def test_logdet_neg_inf_on_bad_diag(self, tiled_96):
        res = mp_cholesky(tiled_96)
        tile = res.factor.get(0, 0)
        tile[0, 0] = -1.0
        res.factor.set(0, 0, tile)
        assert logdet_from_factor(res.factor) == -math.inf


@given(st.integers(2, 5), st.integers(0, 10**6),
       st.sampled_from([1e-1, 1e-4, 1e-8]))
@settings(max_examples=25, deadline=None)
def test_property_mp_factor_residual_bounded(nt, seed, accuracy):
    """For diagonally dominant SPD input, MP residual stays proportional
    to the accuracy budget and the factor keeps a positive diagonal."""
    rng = np.random.default_rng(seed)
    nb = 8
    n = nt * nb
    a = rng.standard_normal((n, n))
    spd = a @ a.T + 2 * n * np.eye(n)
    mat = TiledSymmetricMatrix.from_dense(spd, nb)
    kmap = build_precision_map(tile_norms(mat), accuracy)
    res = mp_cholesky(mat, kmap)
    L = lower_dense(res.factor)
    rel = np.linalg.norm(L @ L.T - spd) / np.linalg.norm(spd)
    assert rel < max(accuracy * nt * 20, 1e-13)
    assert np.all(np.diag(L) > 0)


def _syrks_reading_a_down_cast_payload(cmap) -> int:
    """SYRK(m, k) reads panel tile (m, k)'s broadcast: under AUTO it travels at
    the tile's communication precision, under TTC at its storage precision."""
    il, jl = np.tril_indices(cmap.nt, -1)
    return int(np.count_nonzero(cmap.comm_codes[il, jl] < cmap.storage_codes[il, jl]))


class TestAutoEqualsTtc:
    """STC "without accuracy loss", where it can be exact.

    AUTO and TTC differ in what a receiver reads only where a payload is
    down-cast at the sender; a GEMM re-rounds its input to its own format
    either way, so the one reader that can tell is the FP64 SYRK.  Where
    none reads a down-cast payload the factors must agree bit for bit —
    on the ``mle_adaptive`` benchmark's field (2D sqexp, n = 1,024, nb =
    64) that is every u_req ≤ 1e-4.  From 1e-3 on every off-diagonal tile
    is FP16, every SYRK reads a half payload, and the factors differ.
    """

    @staticmethod
    def _plan(seed, accuracy):
        ds = SyntheticField.sqexp_2d(1024, 1.0, 0.03, seed=seed, nugget=0.01).sample()
        cov = build_tiled_covariance(ds.locations, ds.model, ds.theta_true, 64, nugget=ds.nugget)
        kmap = build_precision_map(tile_norms(cov), accuracy)
        return cov, kmap, build_comm_precision_map(kmap)

    @staticmethod
    def _factors(cov, kmap, cmap):
        return [mp_cholesky(cov, kmap, strategy=s, comm_map=cmap).factor
                for s in (ConversionStrategy.AUTO, ConversionStrategy.TTC)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("accuracy", [1e-4, 1e-5])
    def test_bit_identical_where_no_syrk_reads_a_down_cast_payload(self, seed, accuracy):
        cov, kmap, cmap = self._plan(seed, accuracy)
        assert _syrks_reading_a_down_cast_payload(cmap) == 0
        assert np.count_nonzero(kmap.codes != Precision.FP64) > 0  # a mixed map, not all FP64
        auto, ttc = self._factors(cov, kmap, cmap)
        assert auto.tiles.keys() == ttc.tiles.keys()
        for key, tile in ttc.tiles.items():
            assert auto.tiles[key].dtype == tile.dtype and np.array_equal(auto.tiles[key], tile), key

    def test_a_down_cast_syrk_payload_shows(self):
        cov, kmap, cmap = self._plan(0, 1e-3)
        assert _syrks_reading_a_down_cast_payload(cmap) == cmap.nt * (cmap.nt - 1) // 2
        auto, ttc = self._factors(cov, kmap, cmap)
        assert not all(np.array_equal(auto.tiles[k], ttc.tiles[k]) for k in ttc.tiles)


class TestTileRowSolve:
    """``solve_with_factor`` substitutes tile row by tile row on the factor itself."""

    @staticmethod
    def _dense_solve(factor, b):
        import scipy.linalg

        lower = lower_dense(factor)
        y = scipy.linalg.solve_triangular(lower, b, lower=True)
        return scipy.linalg.solve_triangular(lower.T, y, lower=False)

    @pytest.mark.parametrize("n, nb", [(101, 16), (7, 16), (40, 1)])
    @pytest.mark.parametrize("shape", [(), (3,), (1,)])
    def test_ragged_tiles_and_any_rhs_shape(self, rng, n, nb, shape):
        spd = random_spd(n, rng)
        factor = mp_cholesky(TiledSymmetricMatrix.from_dense(spd, nb)).factor
        b = rng.standard_normal((n, *shape))
        before = b.copy()
        x = solve_with_factor(factor, b)
        assert x.shape == b.shape and x.dtype == np.float64 and not np.shares_memory(x, b)
        assert np.array_equal(b, before)
        np.testing.assert_allclose(x, self._dense_solve(factor, b), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(spd @ x, b, rtol=0, atol=1e-10)

    def test_float32_tiles_are_widened_exactly(self, tiled_96, rng):
        factor = mp_cholesky(tiled_96, two_precision_map(6, Precision.FP32)).factor
        assert {t.dtype for t in factor.tiles.values()} == {np.dtype(np.float32), np.dtype(np.float64)}
        widened = factor.copy()
        widened.tiles = {k: t.astype(np.float64) for k, t in factor.tiles.items()}
        b = rng.standard_normal((96, 2))
        assert np.array_equal(solve_with_factor(factor, b), solve_with_factor(widened, b))
        assert np.array_equal(solve_with_factor(factor, b[:, 0]), solve_with_factor(widened, b[:, 0]))

    def test_no_dense_factor_is_formed(self, rng):
        import tracemalloc

        n, nb = 768, 64
        factor = mp_cholesky(TiledSymmetricMatrix.from_dense(random_spd(n, rng), nb)).factor
        b = rng.standard_normal(n)
        solve_with_factor(factor, b)  # scipy's import is not the solve's memory
        tracemalloc.start()
        try:
            solve_with_factor(factor, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n // 16, peak  # a dense n×n float64 is 4.7 MB; the solve peaks near 9 kB

    @pytest.mark.parametrize("column_major", [False, True])
    def test_singular_diagonal_tile_raises(self, tiled_96, rng, column_major):
        factor = mp_cholesky(tiled_96).factor
        b = rng.standard_normal(96)
        if column_major:  # such a diagonal tile reaches LAPACK through a copy
            factor.tiles = {k: np.asfortranarray(t) for k, t in factor.tiles.items()}
            np.testing.assert_allclose(solve_with_factor(factor, b), self._dense_solve(factor, b),
                                       rtol=1e-12)
        factor.tiles[2, 2][3, 3] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="tile 2, diagonal 3"):
            solve_with_factor(factor, b)


class TestSolveAgainstMpmath:
    """``solve_with_factor`` against a 40-digit solve with the same factor.

    Each of its two tile-row substitutions ``T x̂ = b`` (n×n, float64's
    unit roundoff u = 2^-53) is backward stable entrywise: ``|b − T x̂| ≤
    γ_n·|T|·|x̂|`` with ``γ_n = nu/(1 − nu)`` (Higham, *Accuracy and
    Stability*, Thm 8.5; it holds for any order of each row's sum, so tile
    products followed by a ``dtrtrs`` on the diagonal tile keep it).
    Composed, ``(L + ΔL₁)(Lᵀ + ΔL₂) x̂ = b``: the
    solution's residual against ``LLᵀ`` is at most ``(2γ_n + γ_n²)·|L|·|Lᵀ|·|x̂|``
    and its distance to the exact solution at most ``|(LLᵀ)⁻¹|`` times
    that.  Residuals, the exact solution and the inverse are formed at 40
    digits, where every float64 entry is exact and a sum of 40 terms errs
    by about 10^-39 relative; the constants are these, not fitted.
    """

    N, NB = 40, 8

    def test_each_solve_and_the_solution(self, rng, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        from repro.core import cholesky

        a = random_spd(self.N, rng, cond_boost=1e-3)
        factor = mp_cholesky(TiledSymmetricMatrix.from_dense(a, self.NB)).factor
        lower = lower_dense(factor)
        b = rng.standard_normal(self.N)
        solves = []
        substitute = cholesky._substitute

        def recorded(factor, x, *, transpose):
            rhs = x.copy()
            substitute(factor, x, transpose=transpose)
            solves.append((lower.T if transpose else lower, rhs, x.copy()))

        monkeypatch.setattr(cholesky, "_substitute", recorded)
        x = solve_with_factor(factor, b)
        assert len(solves) == 2 and solves[0][0] is lower and np.array_equal(solves[1][2], x)
        assert np.array_equal(solves[0][1], b) and np.array_equal(solves[1][1], solves[0][2])

        u = 2.0**-53
        gamma = self.N * u / (1 - self.N * u)

        def mp(m):
            return mpmath.matrix(np.atleast_2d(m.T).T.tolist())

        with mpmath.workdps(40):
            for t, rhs, xt in solves:
                residual = mp(rhs) - mp(t) * mp(xt)
                bound = mp(np.abs(t)) * mp(np.abs(xt))
                assert all(abs(residual[i]) <= gamma * bound[i] for i in range(self.N))
            lower, abs_lower = mp(lower), mp(np.abs(lower))
            exact = mpmath.lu_solve(lower * lower.T, mp(b))
            residual_bound = (2 * gamma + gamma**2) * abs_lower * abs_lower.T * mp(np.abs(x))
            bound = mpmath.inverse(lower * lower.T).apply(abs) * residual_bound
            assert all(abs(mpmath.mpf(x[i]) - exact[i]) <= bound[i] for i in range(self.N))
