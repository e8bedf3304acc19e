"""Unit and property tests for the TLR extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.precision_map import build_precision_map
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix
from repro.tlr import (
    LowRankTile,
    TLRSymmetricMatrix,
    add_lowrank,
    compress,
    recompress,
    tlr_cholesky,
)


@pytest.fixture(scope="module")
def matern_mat():
    from repro.geostats.covariance import Matern
    from repro.geostats.generator import build_tiled_covariance
    from repro.geostats.locations import generate_locations

    locs = generate_locations(300, 2, seed=2)
    cov = build_tiled_covariance(locs, Matern(dim=2), (1.0, 0.1, 0.5), 50)
    dense = cov.to_dense() + 0.01 * np.eye(300)
    return TiledSymmetricMatrix.from_dense(dense, 50), dense


class TestCompression:
    def test_exact_rank(self, rng):
        u = rng.standard_normal((20, 3))
        v = rng.standard_normal((16, 3))
        lr = compress(u @ v.T, 1e-12)
        assert lr.rank == 3
        assert np.allclose(lr.to_dense(), u @ v.T)

    def test_tolerance_controls_error(self, rng):
        tile = rng.standard_normal((30, 30))
        tile = tile + 10 * np.outer(rng.standard_normal(30), rng.standard_normal(30))
        for tol in (1e-1, 1e-3):
            lr = compress(tile, tol)
            err = np.linalg.norm(lr.to_dense() - tile, 2)
            assert err <= tol * np.linalg.norm(tile, 2) * 1.001 or lr.rank == 30

    def test_max_rank_cap(self, rng):
        lr = compress(rng.standard_normal((20, 20)), 1e-14, max_rank=5)
        assert lr.rank == 5

    def test_zero_tile(self):
        lr = compress(np.zeros((8, 6)), 1e-6)
        assert lr.rank == 1
        assert np.allclose(lr.to_dense(), 0.0)

    def test_bytes_smaller_when_lowrank(self, rng):
        u = rng.standard_normal((64, 2))
        v = rng.standard_normal((64, 2))
        lr = compress(u @ v.T, 1e-10)
        assert lr.nbytes < 64 * 64 * 8

    def test_transpose(self, rng):
        lr = compress(rng.standard_normal((10, 6)), 1e-14)
        assert np.allclose(lr.T.to_dense(), lr.to_dense().T)

    def test_invalid_factors(self):
        with pytest.raises(ValueError):
            LowRankTile(np.zeros((4, 2)), np.zeros((4, 3)))


class TestRecompressAdd:
    def test_recompress_reduces_redundant_rank(self, rng):
        u = rng.standard_normal((20, 2))
        v = rng.standard_normal((20, 2))
        fat = LowRankTile(np.hstack([u, u]), np.hstack([v, v]))
        slim = recompress(fat, 1e-12)
        assert slim.rank <= 4
        assert np.allclose(slim.to_dense(), fat.to_dense(), atol=1e-10)

    def test_add_correct(self, rng):
        a = compress(rng.standard_normal((12, 12)), 1e-14, max_rank=3)
        b = compress(rng.standard_normal((12, 12)), 1e-14, max_rank=2)
        s = add_lowrank(a, b, 1e-13)
        assert np.allclose(s.to_dense(), a.to_dense() + b.to_dense(), atol=1e-9)

    def test_add_shape_mismatch(self, rng):
        a = compress(rng.standard_normal((12, 12)), 1e-6)
        b = compress(rng.standard_normal((10, 12)), 1e-6)
        with pytest.raises(ValueError):
            add_lowrank(a, b, 1e-6)

    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_property_add_exact_at_tight_tol(self, seed, ra, rb):
        rng = np.random.default_rng(seed)
        a = LowRankTile(rng.standard_normal((15, ra)), rng.standard_normal((15, ra)))
        b = LowRankTile(rng.standard_normal((15, rb)), rng.standard_normal((15, rb)))
        s = add_lowrank(a, b, 1e-13)
        ref = a.to_dense() + b.to_dense()
        assert np.linalg.norm(s.to_dense() - ref) <= 1e-9 * (1 + np.linalg.norm(ref))


class TestTLRMatrix:
    def test_roundtrip_accuracy(self, matern_mat):
        mat, dense = matern_mat
        tlr = TLRSymmetricMatrix.from_tiled(mat, 1e-8)
        rel = np.linalg.norm(tlr.to_dense() - dense) / np.linalg.norm(dense)
        assert rel < 1e-7

    def test_compression_improves_with_tol(self, matern_mat):
        mat, _ = matern_mat
        tight = TLRSymmetricMatrix.from_tiled(mat, 1e-10)
        loose = TLRSymmetricMatrix.from_tiled(mat, 1e-3)
        assert loose.memory_bytes() < tight.memory_bytes()
        assert loose.mean_rank() < tight.mean_rank()
        assert loose.compression_ratio() > 1.0


class TestTLRCholesky:
    def test_residual_tracks_tolerance(self, matern_mat):
        mat, dense = matern_mat
        errs = {}
        for tol in (1e-9, 1e-4):
            tlr = TLRSymmetricMatrix.from_tiled(mat, tol)
            res = tlr_cholesky(tlr)
            L = np.tril(res.factor.to_dense())
            errs[tol] = np.linalg.norm(L @ L.T - dense) / np.linalg.norm(dense)
        assert errs[1e-9] < 1e-7
        assert errs[1e-9] < errs[1e-4] < 1e-2

    def test_matches_dense_cholesky_at_tight_tol(self, matern_mat):
        mat, dense = matern_mat
        tlr = TLRSymmetricMatrix.from_tiled(mat, 1e-12)
        res = tlr_cholesky(tlr)
        L = np.tril(res.factor.to_dense())
        assert np.allclose(L, np.linalg.cholesky(dense), atol=1e-6)

    def test_logdet(self, matern_mat):
        mat, dense = matern_mat
        res = tlr_cholesky(TLRSymmetricMatrix.from_tiled(mat, 1e-10))
        _s, ref = np.linalg.slogdet(dense)
        assert res.logdet() == pytest.approx(ref, rel=1e-6)

    def test_flop_savings_at_loose_tol(self, matern_mat):
        mat, _ = matern_mat
        loose = tlr_cholesky(TLRSymmetricMatrix.from_tiled(mat, 1e-3))
        tight = tlr_cholesky(TLRSymmetricMatrix.from_tiled(mat, 1e-10))
        assert loose.flops < tight.flops
        assert loose.flop_savings > tight.flop_savings

    def test_mixed_precision_tlr(self, matern_mat):
        """The future-work combination: precision map applied to LR factors."""
        mat, dense = matern_mat
        kmap = build_precision_map(tile_norms(mat), 1e-4)
        tlr = TLRSymmetricMatrix.from_tiled(mat, 1e-8)
        res = tlr_cholesky(tlr, kernel_map=kmap)
        L = np.tril(res.factor.to_dense())
        rel = np.linalg.norm(L @ L.T - dense) / np.linalg.norm(dense)
        assert rel < 1e-2  # dominated by the 1e-4 precision budget
        # and strictly worse than the unquantised TLR factorization
        res_full = tlr_cholesky(tlr)
        l_full = np.tril(res_full.factor.to_dense())
        rel_full = np.linalg.norm(l_full @ l_full.T - dense) / np.linalg.norm(dense)
        assert rel_full < rel

    def test_indefinite_raises(self, rng):
        from repro.tiles.kernels import NotPositiveDefiniteError

        a = rng.standard_normal((100, 100))
        sym = (a + a.T) / 2
        mat = TiledSymmetricMatrix.from_dense(sym, 25)
        with pytest.raises(NotPositiveDefiniteError):
            tlr_cholesky(TLRSymmetricMatrix.from_tiled(mat, 1e-8))

    def test_kernel_map_size_checked(self, matern_mat):
        mat, _ = matern_mat
        tlr = TLRSymmetricMatrix.from_tiled(mat, 1e-6)
        with pytest.raises(ValueError):
            tlr_cholesky(tlr, kernel_map=build_precision_map(np.ones((3, 3)), 1e-4))
