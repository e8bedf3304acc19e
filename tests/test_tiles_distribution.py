"""Unit and property tests for the 2D block-cyclic distribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tiles.distribution import ProcessGrid, squarest_grid


class TestSquarestGrid:
    @pytest.mark.parametrize(
        "p,expected",
        [(1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (6, (2, 3)), (12, (3, 4)),
         (384, (16, 24)), (7, (1, 7)), (36, (6, 6))],
    )
    def test_known_factorizations(self, p, expected):
        assert squarest_grid(p) == expected

    @given(st.integers(1, 2000))
    @settings(max_examples=80)
    def test_invariants(self, p):
        a, b = squarest_grid(p)
        assert a * b == p
        assert a <= b  # paper: P ≤ Q

    def test_invalid(self):
        with pytest.raises(ValueError):
            squarest_grid(0)


class TestProcessGrid:
    def test_owner_rank_layout(self):
        g = ProcessGrid(2, 3)
        assert g.size == 6
        assert g.owner(0, 0) == 0
        assert g.owner(0, 1) == 1
        assert g.owner(1, 0) == 3
        assert g.owner(2, 3) == 0  # cyclic wrap

    def test_coords_roundtrip(self):
        """Rank ``r·Q + c`` owns grid position (r, c): PaRSEC's row-major layout."""
        g = ProcessGrid(3, 4)
        for rank in range(g.size):
            r, c = divmod(rank, g.q)
            assert g.owner(r, c) == rank

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            ProcessGrid(0, 3)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 40), st.integers(0, 40))
    def test_owner_in_range(self, p, q, i, j):
        g = ProcessGrid(p, q)
        assert 0 <= g.owner(i, j) < g.size

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=50)
    def test_tiles_partitioned(self, p, q, i, j):
        """Each rank owns one residue class of tiles: (i mod P, j mod Q)."""
        g = ProcessGrid(p, q)
        assert g.owner(i, j) == g.owner(i + p, j) == g.owner(i, j + q)
        assert g.owner(i, j) == g.owner(i % p, j % q)

    def test_squarest_constructor(self):
        g = ProcessGrid.squarest(384)
        assert (g.p, g.q) == (16, 24)
