"""Unit tests for mixed-precision iterative refinement."""

import numpy as np
import pytest

from repro.core.cholesky import mp_cholesky, solve_with_factor
from repro.core.precision_map import build_precision_map, two_precision_map
from repro.core.refinement import refine_solve
from repro.precision import Precision
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix
from tests.conftest import random_spd


@pytest.fixture
def problem(rng):
    spd = random_spd(96, rng)
    mat = TiledSymmetricMatrix.from_dense(spd, 16)
    b = rng.standard_normal(96)
    return spd, mat, b


class TestRefineSolve:
    def test_fp64_factor_converges_immediately(self, problem):
        spd, mat, b = problem
        res = refine_solve(mat, mp_cholesky(mat), b)
        assert res.converged
        assert res.iterations <= 2
        assert np.linalg.norm(spd @ res.x - b) / np.linalg.norm(b) < 1e-12

    def test_low_precision_factor_recovers_fp64_accuracy(self, problem):
        """The headline property of [33]: FP16-heavy factor + refinement
        reaches working accuracy."""
        spd, mat, b = problem
        result = mp_cholesky(mat, two_precision_map(6, Precision.FP16))
        # direct solve with the cheap factor is only ~FP16-accurate
        direct = solve_with_factor(result.factor, b)
        direct_rel = np.linalg.norm(spd @ direct - b) / np.linalg.norm(b)
        assert direct_rel > 1e-10
        # refinement recovers
        res = refine_solve(mat, result, b, tol=1e-12)
        assert res.converged
        assert res.final_residual < 1e-12
        assert res.iterations > 1

    def test_residual_decreases_monotonically(self, problem):
        spd, mat, b = problem
        result = mp_cholesky(mat, two_precision_map(6, Precision.FP16_32))
        res = refine_solve(mat, result, b, tol=1e-13)
        assert all(a >= b_ for a, b_ in zip(res.residual_norms, res.residual_norms[1:]))

    def test_adaptive_map_refines(self, matern_cov_160, rng):
        dense = matern_cov_160.to_dense() + 0.01 * np.eye(160)
        mat = TiledSymmetricMatrix.from_dense(dense, 20)
        kmap = build_precision_map(tile_norms(mat), 1e-2)
        result = mp_cholesky(mat, kmap)
        b = rng.standard_normal(160)
        res = refine_solve(mat, result, b, tol=1e-11, max_iterations=100)
        assert res.converged, f"residuals: {res.residual_norms[-3:]}"

    def test_zero_rhs(self, problem):
        _spd, mat, _b = problem
        res = refine_solve(mat, mp_cholesky(mat), np.zeros(96))
        assert res.converged
        assert np.array_equal(res.x, np.zeros(96))

    def test_divergence_detected(self):
        """A factor far too inaccurate for the conditioning stops early.

        κ(Σ) = 10^4.8 against FP16 off-diagonal tiles: the factorization
        succeeds, but each correction multiplies the residual by about ten,
        so two consecutive growths end the iteration with the best iterate.
        """
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        spd = (q * np.logspace(0, -4.8, 64)) @ q.T
        spd = (spd + spd.T) / 2
        mat = TiledSymmetricMatrix.from_dense(spd, 16)
        result = mp_cholesky(mat, two_precision_map(4, Precision.FP16))
        b = rng.standard_normal(64)
        res = refine_solve(mat, result, b, tol=1e-14, max_iterations=30)
        assert not res.converged and res.iterations == 3
        first, *grown = res.residual_norms
        assert first < grown[0] < grown[1] and grown[1] > 10 * first
        # the best iterate is the direct solve the refinement started from,
        # and the residual reported is that iterate's, not the last one's
        assert np.array_equal(res.x, solve_with_factor(result.factor, b))
        assert res.final_residual == first == pytest.approx(3.41, abs=0.01)
        assert res.final_residual == pytest.approx(
            np.linalg.norm(b - spd @ res.x) / np.linalg.norm(b), rel=1e-9)

    def test_no_dense_matrix_is_formed(self, rng):
        import tracemalloc

        n, nb = 384, 32
        mat = TiledSymmetricMatrix.from_dense(random_spd(n, rng), nb)
        result = mp_cholesky(mat, two_precision_map(n // nb, Precision.FP32))
        b = rng.standard_normal(n)
        refine_solve(mat, result, b)  # scipy's import is not the solve's memory
        tracemalloc.start()
        try:
            res = refine_solve(mat, result, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations > 1
        assert peak < n * n // 2, peak  # a dense n×n float64 is 16 times that
