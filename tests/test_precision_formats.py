"""Unit tests for the precision format lattice."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.precision.formats import (
    ADAPTIVE_FORMATS,
    FORMAT_INFO,
    Precision,
    bytes_per_element,
    get_storage_precision,
    rule_epsilon,
    validate_adaptive_set,
)

ALL = list(Precision)


class TestLattice:
    """``max`` / ``min`` / ``sorted`` over the ordered enum are the lattice
    operations (Algorithm 2's ``get_higher_precision`` is ``max``)."""

    def test_total_order(self):
        assert (
            Precision.FP16
            < Precision.BF16_32
            < Precision.FP16_32
            < Precision.TF32
            < Precision.FP32
            < Precision.FP64
        )

    @given(st.sampled_from(ALL), st.sampled_from(ALL))
    def test_higher_lower_consistent(self, a, b):
        hi = max(a, b)
        lo = min(a, b)
        assert {hi, lo} == {a, b}
        assert hi >= lo

    @given(st.sampled_from(ALL), st.sampled_from(ALL), st.sampled_from(ALL))
    def test_higher_associative(self, a, b, c):
        assert max(max(a, b), c) == max(a, max(b, c))

    @given(st.sampled_from(ALL))
    def test_idempotent(self, a):
        assert max(a, a) == a
        assert min(a, a) == a

    def test_sort_by_width(self):
        assert sorted([Precision.FP64, Precision.FP16, Precision.FP32]) == [
            Precision.FP16,
            Precision.FP32,
            Precision.FP64,
        ]


class TestFormatInfo:
    def test_all_formats_described(self):
        assert set(FORMAT_INFO) == set(Precision)

    def test_epsilon_ordering(self):
        # within the adaptive set the lattice order tracks accuracy:
        # wider format -> smaller rule epsilon (weakly monotone).  TF32 and
        # BF16_32 sit outside the adaptive set and their epsilons are not
        # comparable to FP16_32's (same 11-bit significand, wider range).
        eps = [rule_epsilon(p) for p in sorted(ADAPTIVE_FORMATS)]
        assert all(a >= b for a, b in zip(eps, eps[1:]))

    def test_unit_roundoffs(self):
        assert FORMAT_INFO[Precision.FP64].unit_roundoff == 2.0**-53
        assert FORMAT_INFO[Precision.FP32].unit_roundoff == 2.0**-24
        assert FORMAT_INFO[Precision.FP16].unit_roundoff == 2.0**-11

    def test_storage_bytes(self):
        assert bytes_per_element(Precision.FP64) == 8
        assert bytes_per_element(Precision.FP32) == 4
        assert bytes_per_element(Precision.TF32) == 4  # rests in FP32 words
        assert bytes_per_element(Precision.FP16) == 2
        assert bytes_per_element(Precision.FP16_32) == 2  # inputs travel as halves
        assert bytes_per_element(Precision.BF16_32) == 2


class TestStoragePrecision:
    def test_fp64_rests_fp64(self):
        assert get_storage_precision(Precision.FP64) == Precision.FP64

    @pytest.mark.parametrize(
        "prec",
        [Precision.FP32, Precision.TF32, Precision.FP16_32, Precision.BF16_32, Precision.FP16],
    )
    def test_everything_else_rests_fp32(self, prec):
        # TRSM's FP32 hardware floor forces FP32 storage (Fig. 2b)
        assert get_storage_precision(prec) == Precision.FP32


class TestValidateAdaptiveSet:
    def test_default_set(self):
        assert validate_adaptive_set(ADAPTIVE_FORMATS) == ADAPTIVE_FORMATS

    def test_requires_fp64(self):
        with pytest.raises(ValueError, match="must contain FP64"):
            validate_adaptive_set((Precision.FP32, Precision.FP16))

    def test_deduplicates_and_orders(self):
        out = validate_adaptive_set(
            (Precision.FP16, Precision.FP64, Precision.FP16, Precision.FP32)
        )
        assert out == (Precision.FP64, Precision.FP32, Precision.FP16)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            validate_adaptive_set(())
