"""Unit and property tests for Algorithm 2 (automated precision conversion)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ConversionStrategy
from repro.core.conversion import (
    accumulator_encoding,
    build_comm_precision_map,
    encoding_width,
    input_encoding,
    needs_conversion,
    payload_encoding,
)
from repro.core.precision_map import (
    KernelPrecisionMap,
    build_precision_map,
    two_precision_map,
    uniform_map,
)
from repro.precision import ADAPTIVE_FORMATS, Precision, get_storage_precision

from tests.comm_map_oracle import build_comm_precision_map_loop


def random_kmap(nt: int, seed: int) -> KernelPrecisionMap:
    rng = np.random.default_rng(seed)
    codes = rng.choice([int(p) for p in ADAPTIVE_FORMATS], size=(nt, nt)).astype(np.int8)
    codes = np.maximum(codes, codes.T)  # symmetric
    np.fill_diagonal(codes, int(Precision.FP64))
    return KernelPrecisionMap(nt=nt, codes=codes)


class TestEncodings:
    def test_payload_encodings(self):
        assert payload_encoding(Precision.FP64) == "f64"
        assert payload_encoding(Precision.FP32) == "f32"
        assert payload_encoding(Precision.TF32) == "f32"
        assert payload_encoding(Precision.FP16_32) == "f16"
        assert payload_encoding(Precision.FP16) == "f16"
        assert payload_encoding(Precision.BF16_32) == "bf16"

    def test_input_encodings(self):
        assert input_encoding(Precision.TF32) == "f32"  # truncation inside the core
        assert input_encoding(Precision.FP16_32) == "f16"

    def test_accumulator_encodings(self):
        assert accumulator_encoding(Precision.FP64) == "f64"
        assert accumulator_encoding(Precision.FP16_32) == "f32"
        assert accumulator_encoding(Precision.FP16) == "f16"

    def test_encoding_width_roundtrip(self):
        for enc in ("f64", "f32", "f16", "bf16"):
            assert payload_encoding(encoding_width(enc)) == enc

    def test_needs_conversion(self):
        assert needs_conversion(Precision.FP32, Precision.FP16)
        assert not needs_conversion(Precision.FP32, Precision.TF32)
        assert not needs_conversion(Precision.FP16, Precision.FP16_32)
        # inout role: FP16_32's accumulator is f32
        assert not needs_conversion(Precision.FP32, Precision.FP16_32, "inout")
        assert needs_conversion(Precision.FP32, Precision.FP16, "inout")


class TestDiagonalRule:
    def test_fp32_when_no_fp64_successor(self):
        cmap = build_comm_precision_map(two_precision_map(6, Precision.FP16))
        for k in range(5):
            assert cmap.comm(k, k) == Precision.FP32
            assert cmap.is_stc(k, k)

    def test_fp64_when_any_fp64_successor(self):
        kmap = uniform_map(6, Precision.FP64)
        cmap = build_comm_precision_map(kmap)
        for k in range(5):
            assert cmap.comm(k, k) == Precision.FP64
            assert not cmap.is_stc(k, k)

    def test_last_diagonal_no_broadcast(self):
        cmap = build_comm_precision_map(two_precision_map(6, Precision.FP16))
        assert cmap.comm(5, 5) == Precision.FP64  # no successors; storage precision


class TestExtremeConfigurations:
    """Section VII-D: 'In this case, all communications can employ STC.'"""

    @pytest.mark.parametrize("low", [Precision.FP16, Precision.FP16_32])
    def test_all_stc(self, low):
        nt = 8
        cmap = build_comm_precision_map(two_precision_map(nt, low))
        for i in range(nt):
            for j in range(i + 1):
                if i == j == nt - 1:
                    continue
                assert cmap.is_stc(i, j), f"tile ({i},{j})"
        assert cmap.stc_fraction() == 1.0

    def test_fp64_uniform_all_ttc(self):
        cmap = build_comm_precision_map(uniform_map(8, Precision.FP64))
        assert cmap.stc_fraction() == 0.0

    def test_payload_strategy_switch(self):
        cmap = build_comm_precision_map(two_precision_map(8, Precision.FP16))
        assert cmap.payload(4, 2, ConversionStrategy.TTC) == Precision.FP32
        assert cmap.payload(4, 2, ConversionStrategy.STC) == Precision.FP16
        assert cmap.payload(4, 2, ConversionStrategy.AUTO) == Precision.FP16


class TestAlgorithmInvariants:
    @given(st.integers(2, 14), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_comm_bounded(self, nt, seed):
        """comm ≤ storage, and comm ≥ every successor's need (capped)."""
        kmap = random_kmap(nt, seed)
        cmap = build_comm_precision_map(kmap)
        for m in range(nt):
            for k in range(m):
                comm = cmap.comm(m, k)
                storage = get_storage_precision(kmap.kernel(m, k))
                assert comm <= storage
                succ = [kmap.kernel(m, n) for n in range(k + 1, m)]
                succ += [kmap.kernel(n, m) for n in range(m + 1, nt)]
                succ.append(kmap.kernel(m, k))  # SYRK consumes at own precision
                need = min(storage, max(succ))
                assert comm >= need

    @given(st.integers(2, 12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_no_information_loss(self, nt, seed):
        """STC payloads carry at least the sender tile's own precision."""
        kmap = random_kmap(nt, seed)
        cmap = build_comm_precision_map(kmap)
        for m in range(nt):
            for k in range(m):
                assert cmap.comm(m, k) >= min(
                    kmap.kernel(m, k), get_storage_precision(kmap.kernel(m, k))
                )

    @given(st.integers(2, 10), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, nt, seed):
        kmap = random_kmap(nt, seed)
        a = build_comm_precision_map(kmap)
        b = build_comm_precision_map(kmap)
        assert np.array_equal(a.comm_codes, b.comm_codes)
        assert np.array_equal(a.storage_codes, b.storage_codes)

    def test_render_marks_stc_lowercase(self):
        cmap = build_comm_precision_map(two_precision_map(4, Precision.FP16))
        out = cmap.render()
        assert "q" in out  # lowercase = STC FP16 payload

    def test_render_legend_covers_every_glyph(self):
        """Regression: the legend must name every format the glyph table
        defines (TF32 and BF16_32 used to be omitted)."""
        cmap = build_comm_precision_map(uniform_map(4, Precision.FP64))
        legend = cmap.render().rsplit("[", 1)[1]
        for prec in Precision:
            assert prec.name in legend, f"{prec.name} missing from legend"

    def test_upper_triangle_access_rejected(self):
        cmap = build_comm_precision_map(uniform_map(4, Precision.FP64))
        with pytest.raises(IndexError):
            cmap.comm(0, 2)


class TestVectorizedEquivalence:
    """The NumPy suffix-max formulation is bit-identical to Algorithm 2's
    reference loop implementation (same values, same dtype)."""

    @given(st.integers(1, 24), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_on_random_maps(self, nt, seed):
        rng = np.random.default_rng(seed)
        codes = rng.choice([int(p) for p in Precision], size=(nt, nt)).astype(np.int8)
        codes = np.maximum(codes, codes.T)
        np.fill_diagonal(codes, int(Precision.FP64))
        kmap = KernelPrecisionMap(nt=nt, codes=codes)
        fast = build_comm_precision_map(kmap)
        ref = build_comm_precision_map_loop(kmap)
        assert np.array_equal(fast.comm_codes, ref.comm_codes)
        assert np.array_equal(fast.storage_codes, ref.storage_codes)
        assert fast.comm_codes.dtype == ref.comm_codes.dtype == np.int8
        assert fast.storage_codes.dtype == ref.storage_codes.dtype == np.int8

    @pytest.mark.parametrize("low", [Precision.FP32, Precision.FP16_32, Precision.FP16])
    def test_bit_identical_on_extreme_maps(self, low):
        for nt in (1, 2, 3, 8, 17):
            kmap = two_precision_map(nt, low)
            fast = build_comm_precision_map(kmap)
            ref = build_comm_precision_map_loop(kmap)
            assert np.array_equal(fast.comm_codes, ref.comm_codes)
            assert np.array_equal(fast.storage_codes, ref.storage_codes)

    def test_bit_identical_on_adaptive_map(self, matern_cov_160):
        from repro.tiles.norms import tile_norms

        kmap = build_precision_map(tile_norms(matern_cov_160), 1e-6)
        fast = build_comm_precision_map(kmap)
        ref = build_comm_precision_map_loop(kmap)
        assert np.array_equal(fast.comm_codes, ref.comm_codes)

    def test_stc_fraction_matches_loop_count(self):
        """Vectorized stc_fraction equals the explicit per-tile count."""
        kmap = random_kmap(13, 42)
        cmap = build_comm_precision_map(kmap)
        total = stc = 0
        for i in range(cmap.nt):
            for j in range(i + 1):
                if i == j == cmap.nt - 1:
                    continue
                total += 1
                stc += int(cmap.is_stc(i, j))
        assert cmap.stc_counts() == (stc, total)
        assert cmap.stc_fraction() == stc / total


class TestRealisticMap:
    def test_matern_map_mixed_strategies(self, matern_cov_160):
        from repro.tiles.norms import tile_norms

        # at 1e-6 the map mixes FP32 with FP16-class tiles, so some panel
        # broadcasts hit FP32 successors (TTC) while others qualify for STC
        kmap = build_precision_map(tile_norms(matern_cov_160), 1e-6)
        cmap = build_comm_precision_map(kmap)
        frac = cmap.stc_fraction()
        assert 0.0 < frac < 1.0  # realistic maps mix STC and TTC
