"""Unit and property tests for the tile-centric precision selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.precision_map import (
    FIXED_CONFIGS,
    KernelPrecisionMap,
    band_precision_map,
    build_precision_map,
    fixed_config_map,
    two_precision_map,
    uniform_map,
)
from repro.precision import ADAPTIVE_FORMATS, Precision, rule_epsilon
from repro.tiles.norms import global_norm_from_tile_norms, tile_norms


def _norms(nt: int, rng: np.random.Generator, decay: float = 0.5) -> np.ndarray:
    base = np.array(
        [[np.exp(-decay * abs(i - j)) for j in range(nt)] for i in range(nt)]
    )
    return base * (1.0 + 0.01 * rng.random((nt, nt)))


class TestRule:
    def test_diagonal_always_fp64(self, rng):
        kmap = build_precision_map(_norms(8, rng), 1e-2)
        for k in range(8):
            assert kmap.kernel(k, k) == Precision.FP64

    def test_rule_threshold_exact(self):
        """A tile sits at precision p iff rel ≤ u_req/u_low(p) (narrowest wins)."""
        nt = 6
        norms = _norms(nt, np.random.default_rng(0), decay=1.0)
        u_req = 1e-4
        kmap = build_precision_map(norms, u_req)
        gnorm = global_norm_from_tile_norms(norms)
        for i in range(nt):
            for j in range(i):
                rel = norms[i, j] * nt / gnorm
                selected = kmap.kernel(i, j)
                # the selected format admits the tile
                assert rel <= u_req / rule_epsilon(selected) or selected == Precision.FP64
                # and no narrower adaptive format admits it
                for prec in ADAPTIVE_FORMATS:
                    if prec < selected:
                        assert rel > u_req / rule_epsilon(prec)

    def test_tighter_accuracy_never_lowers_precision(self, rng):
        norms = _norms(10, rng)
        loose = build_precision_map(norms, 1e-2)
        tight = build_precision_map(norms, 1e-8)
        assert np.all(tight.codes >= loose.codes)

    def test_extremes(self, rng):
        norms = _norms(6, rng)
        # absurdly loose accuracy: everything off-diagonal goes FP16
        loose = build_precision_map(norms, 0.99)
        off = [loose.kernel(i, j) for i in range(6) for j in range(i)]
        assert all(p == Precision.FP16 for p in off)
        # extremely tight: everything FP64
        tight = build_precision_map(norms, 1e-15)
        assert np.all(tight.codes == int(Precision.FP64))

    def test_restricted_format_set(self, rng):
        norms = _norms(8, rng)
        kmap = build_precision_map(norms, 1e-2, formats=(Precision.FP64, Precision.FP32))
        used = set(np.unique(kmap.codes))
        assert used <= {int(Precision.FP64), int(Precision.FP32)}

    def test_zero_matrix(self):
        kmap = build_precision_map(np.zeros((4, 4)), 1e-4)
        assert np.all(kmap.codes == int(Precision.FP64))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            build_precision_map(np.ones((3, 4)), 1e-4)

    def test_matches_real_covariance(self, matern_cov_160):
        norms = tile_norms(matern_cov_160)
        kmap = build_precision_map(norms, 1e-4)
        fr = kmap.tile_fractions()
        assert fr[Precision.FP64] >= 8 / 36  # at least the diagonal


class TestMapHelpers:
    def test_two_precision_map(self):
        kmap = two_precision_map(5, Precision.FP16)
        assert kmap.kernel(0, 0) == Precision.FP64
        assert kmap.kernel(3, 1) == Precision.FP16

    def test_uniform_fp64(self):
        kmap = uniform_map(4, Precision.FP64)
        assert np.all(kmap.codes == int(Precision.FP64))

    def test_fixed_config_map_matches_the_per_label_builders(self):
        nt = 6
        by_hand = {
            "FP64": uniform_map(nt, Precision.FP64),
            "FP32": uniform_map(nt, Precision.FP32),
            "FP64/FP16_32": two_precision_map(nt, Precision.FP16_32),
            "FP64/FP16": two_precision_map(nt, Precision.FP16),
        }
        assert list(FIXED_CONFIGS) == list(by_hand)
        for label, expected in by_hand.items():
            assert np.array_equal(fixed_config_map(nt, label).codes, expected.codes)
        with pytest.raises(KeyError):
            fixed_config_map(nt, "adaptive")

    def test_band_map(self):
        kmap = band_precision_map(6, [(0, Precision.FP64), (2, Precision.FP32),
                                      (6, Precision.FP16)])
        assert kmap.kernel(1, 1) == Precision.FP64
        assert kmap.kernel(2, 1) == Precision.FP32
        assert kmap.kernel(5, 0) == Precision.FP16

    def test_band_map_empty_raises(self):
        with pytest.raises(ValueError):
            band_precision_map(4, [])

    def test_fractions_sum_to_one(self, rng):
        kmap = build_precision_map(_norms(9, rng), 1e-4)
        assert sum(kmap.tile_fractions().values()) == pytest.approx(1.0)

    def test_render_contains_legend(self, rng):
        out = build_precision_map(_norms(4, rng), 1e-4).render()
        assert "FP64" in out and "\n" in out

    def test_codes_shape_validated(self):
        with pytest.raises(ValueError):
            KernelPrecisionMap(nt=4, codes=np.zeros((3, 3), dtype=np.int8))


@given(st.integers(2, 12), st.floats(1e-12, 1e-1), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_property_selection_total_and_valid(nt, u_req, seed):
    rng = np.random.default_rng(seed)
    norms = np.abs(rng.lognormal(0.0, 2.0, size=(nt, nt)))
    norms = (norms + norms.T) / 2
    kmap = build_precision_map(norms, u_req)
    for i in range(nt):
        for j in range(nt):
            prec = kmap.kernel(i, j)
            assert prec in ADAPTIVE_FORMATS
            if i == j:
                assert prec == Precision.FP64
