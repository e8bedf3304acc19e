"""Unit tests for exact and sampled tile norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tiles.norms import (
    global_norm_from_tile_norms,
    sampled_tile_norms,
    tile_norms,
)
from repro.tiles.tilematrix import TiledSymmetricMatrix


class TestExactNorms:
    def test_matches_dense_blocks(self, tiled_96, spd_96):
        norms = tile_norms(tiled_96)
        assert norms.shape == (6, 6)
        for i in range(6):
            for j in range(6):
                block = spd_96[16 * i : 16 * (i + 1), 16 * j : 16 * (j + 1)]
                assert norms[i, j] == pytest.approx(np.linalg.norm(block))

    def test_mirrored(self, tiled_96):
        norms = tile_norms(tiled_96)
        assert np.array_equal(norms, norms.T)

    def test_global_norm_consistency(self, tiled_96, spd_96):
        norms = tile_norms(tiled_96)
        assert global_norm_from_tile_norms(norms) == pytest.approx(np.linalg.norm(spd_96))


@given(hnp.arrays(np.float64, (4, 6), elements=st.floats(-1e6, 1e6, allow_nan=False)))
@settings(max_examples=50)
def test_global_norm_combines_block_norms(a):
    """``‖A‖_F² = Σ_ij ‖A_ij‖_F²`` over any blocking of ``A``."""
    blocks = np.array([[np.linalg.norm(a[:2, :3]), np.linalg.norm(a[:2, 3:])],
                       [np.linalg.norm(a[2:, :3]), np.linalg.norm(a[2:, 3:])]])
    combined = global_norm_from_tile_norms(blocks)
    assert abs(combined - float(np.linalg.norm(a))) <= 1e-9 * (1.0 + combined)


class TestSampledNorms:
    def _oracle(self, dense):
        def entry(rows, cols):
            return dense[np.asarray(rows), np.asarray(cols)]

        return entry

    def test_exact_when_tiles_small(self, spd_96):
        norms = sampled_tile_norms(96, 16, self._oracle(spd_96), samples_per_tile=10**6)
        exact = tile_norms(TiledSymmetricMatrix.from_dense(spd_96, 16))
        assert np.allclose(norms, exact)

    def test_unbiased_estimate(self, spd_96):
        """Sampled estimate converges to the exact norm."""
        exact = tile_norms(TiledSymmetricMatrix.from_dense(spd_96, 48))
        rng = np.random.default_rng(0)
        norms = sampled_tile_norms(
            96, 48, self._oracle(spd_96), samples_per_tile=1500, rng=rng
        )
        rel_err = np.abs(norms - exact) / exact
        assert np.max(rel_err) < 0.2

    def test_mirrored(self, spd_96):
        norms = sampled_tile_norms(96, 32, self._oracle(spd_96), samples_per_tile=20)
        assert np.array_equal(norms, norms.T)

    def test_deterministic_with_rng(self, spd_96):
        a = sampled_tile_norms(
            96, 32, self._oracle(spd_96), samples_per_tile=16,
            rng=np.random.default_rng(7),
        )
        b = sampled_tile_norms(
            96, 32, self._oracle(spd_96), samples_per_tile=16,
            rng=np.random.default_rng(7),
        )
        assert np.array_equal(a, b)

    def test_ragged(self, rng):
        a = rng.standard_normal((50, 50))
        dense = a @ a.T
        norms = sampled_tile_norms(50, 16, self._oracle(dense), samples_per_tile=10**6)
        exact = tile_norms(TiledSymmetricMatrix.from_dense(dense, 16))
        assert np.allclose(norms, exact)
