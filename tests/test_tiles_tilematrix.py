"""Unit tests for tiled symmetric matrix storage."""

import numpy as np
import pytest

from repro.precision import Precision
from repro.tiles.tilematrix import TiledSymmetricMatrix, tile_index_range
from tests.conftest import lower_dense


class TestTileIndexRange:
    def test_uniform(self):
        assert tile_index_range(100, 25, 0) == (0, 25)
        assert tile_index_range(100, 25, 3) == (75, 100)

    def test_ragged_last(self):
        assert tile_index_range(90, 25, 3) == (75, 90)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            tile_index_range(100, 25, 4)


class TestRoundtrip:
    def test_dense_roundtrip(self, spd_96):
        mat = TiledSymmetricMatrix.from_dense(spd_96, 16)
        assert mat.nt == 6
        assert np.array_equal(mat.to_dense(), spd_96)

    def test_ragged_roundtrip(self, rng):
        a = rng.standard_normal((50, 50))
        spd = a @ a.T + 50 * np.eye(50)
        mat = TiledSymmetricMatrix.from_dense(spd, 16)
        assert mat.nt == 4
        assert mat.tile_shape(3, 3) == (2, 2)
        assert mat.tile_shape(3, 0) == (2, 16)
        assert np.array_equal(mat.to_dense(), spd)

    def test_mirrored_access(self, tiled_96):
        upper = tiled_96.get(0, 3)
        lower = tiled_96.get(3, 0)
        assert np.array_equal(upper, lower.T)

    def test_from_tile_function(self):
        mat = TiledSymmetricMatrix.from_tile_function(
            8, 4, lambda i, j: np.full((4, 4), 10 * i + j, dtype=float)
        )
        assert np.all(mat.get(1, 0) == 10.0)
        assert np.all(mat.get(0, 1) == 10.0)  # transposed mirror

    def test_lower_triangle_holds_the_tiles(self, tiled_96):
        low = lower_dense(tiled_96)
        for i, j in tiled_96.lower_indices():
            block = low[i * 16 : (i + 1) * 16, j * 16 : (j + 1) * 16]
            tile = tiled_96.get(i, j)
            assert np.array_equal(block, np.tril(tile) if i == j else tile)
        assert np.array_equal(low, np.tril(low))


class TestStoragePrecision:
    def test_default_fp64(self, tiled_96):
        assert tiled_96.precision_of(2, 1) == Precision.FP64
        assert tiled_96.tiles[(2, 1)].dtype == np.float64

    def test_set_records_precision(self, tiled_96, rng):
        tile = rng.standard_normal(tiled_96.tile_shape(2, 0))
        tiled_96.set(2, 0, tile, precision=Precision.FP32)
        assert tiled_96.tiles[(2, 0)].dtype == np.float32
        # subsequent set without precision keeps the recorded one
        tiled_96.set(2, 0, tile)
        assert tiled_96.tiles[(2, 0)].dtype == np.float32

    def test_storage_bytes_shrink(self, spd_96):
        full = TiledSymmetricMatrix.from_dense(spd_96, 16)
        mixed = full.copy()
        for i, j in mixed.lower_indices():
            if i != j:
                mixed.set(i, j, mixed.get(i, j), precision=Precision.FP32)
        assert mixed.storage_bytes() < full.storage_bytes()


class TestValidation:
    def test_set_upper_raises(self, tiled_96, rng):
        with pytest.raises(IndexError):
            tiled_96.set(0, 3, rng.standard_normal((16, 16)))

    def test_set_wrong_shape(self, tiled_96, rng):
        with pytest.raises(ValueError, match="shape"):
            tiled_96.set(2, 0, rng.standard_normal((8, 8)))

    def test_from_dense_requires_square(self, rng):
        with pytest.raises(ValueError, match="square"):
            TiledSymmetricMatrix.from_dense(rng.standard_normal((4, 6)), 2)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            TiledSymmetricMatrix(n=0, nb=4)


class TestCopy:
    def test_copy_independent(self, tiled_96):
        clone = tiled_96.copy()
        clone.tiles[(0, 0)][0, 0] += 1.0
        assert tiled_96.tiles[(0, 0)][0, 0] != clone.tiles[(0, 0)][0, 0]
        assert clone.storage_precision == tiled_96.storage_precision
