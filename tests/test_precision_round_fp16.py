"""``round_to_fp16`` against NumPy's float16 cast, bit for bit.

The primitive replaces ``x.astype(float16).astype(x.dtype)`` everywhere
the emulation rounds to the fp16 grid, so the oracle is that cast and
the comparison is on the raw encodings (NaN payloads, signed zeros).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.emulate import quantize, round_to_fp16
from repro.precision.formats import Precision

UINT = {np.float32: np.uint32, np.float64: np.uint64}


def numpy_cast(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return x.astype(np.float16).astype(x.dtype)


def assert_same_bits(x: np.ndarray) -> None:
    got, want = round_to_fp16(x), numpy_cast(x)
    assert got.dtype == want.dtype == x.dtype and got.shape == x.shape
    uint = UINT[x.dtype.type]
    bad = np.flatnonzero(np.ascontiguousarray(got).view(uint).ravel()
                         != np.ascontiguousarray(want).view(uint).ravel())
    assert bad.size == 0, (
        f"{bad.size} lanes differ, first x={x.ravel()[bad[0]]!r}: "
        f"got {got.ravel()[bad[0]]!r}, NumPy {want.ravel()[bad[0]]!r}"
    )


def every_fp16() -> np.ndarray:
    """All 65,536 fp16 encodings: ±0, subnormals, normals, ±inf, every NaN."""
    return np.arange(2**16, dtype=np.uint16).view(np.float16)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestAgainstNumpyCast:
    def test_every_fp16_value_is_a_fixed_point(self, dtype):
        x = every_fp16().astype(dtype)
        assert_same_bits(x)
        finite = np.isfinite(x)
        assert np.array_equal(round_to_fp16(x)[finite], x[finite])

    def test_neighbours_of_every_fp16_value(self, dtype):
        x = every_fp16().astype(dtype)
        x = x[np.isfinite(x)]
        assert_same_bits(np.nextafter(x, dtype(np.inf)))
        assert_same_bits(np.nextafter(x, dtype(-np.inf)))

    def test_midpoints_tie_to_even(self, dtype):
        # positive fp16 values in encoding order are in value order, and
        # the midpoint of two neighbours is exact in float32 and float64
        pos = np.arange(0x7C00, dtype=np.uint16).view(np.float16).astype(dtype)
        mid = (pos[:-1] + pos[1:]) / dtype(2)
        for x in (mid, -mid):
            assert_same_bits(x)
            assert_same_bits(np.nextafter(x, dtype(np.inf)))
            assert_same_bits(np.nextafter(x, dtype(-np.inf)))
        # ties go to the neighbour with the even encoding
        rounded = round_to_fp16(mid).astype(np.float16).view(np.uint16)
        assert np.all(rounded % 2 == 0)

    def test_subnormal_range_and_signed_zero(self, dtype):
        tiny = np.finfo(dtype).tiny
        x = np.array([0.0, -0.0, tiny, -tiny, 2.0**-26, -(2.0**-26), 2.0**-25, -(2.0**-25),
                      1.5 * 2.0**-25, 2.0**-24, 3 * 2.0**-25, 2.0**-14, 2.0**-14 - 2.0**-25,
                      2.0**-14 - 2.0**-26, -(2.0**-14) + 2.0**-26, 1e-30, -1e-30], dtype=dtype)
        assert_same_bits(x)
        assert np.signbit(round_to_fp16(np.array([-1e-30], dtype=dtype)))[0]
        grid = np.linspace(-(2.0**-13), 2.0**-13, 100_001).astype(dtype)
        assert_same_bits(grid)

    def test_saturation_and_non_finite(self, dtype):
        x = np.array([65504.0, 65519.99, 65520.0, -65519.99, -65520.0, 1e30, -1e30,
                      np.inf, -np.inf, np.nan, -np.nan], dtype=dtype)
        assert_same_bits(x)
        out = round_to_fp16(x)
        assert out[0] == 65504.0 and out[1] == 65504.0 and np.isposinf(out[2])

    def test_all_finite_arrays_up_to_the_saturation_boundary(self, dtype):
        # no NaN, inf or saturating lane: every lane is rounded on its own
        # binade's grid, none by the cast
        x = every_fp16().astype(dtype)
        x = x[np.isfinite(x)]
        assert_same_bits(x)
        assert np.array_equal(round_to_fp16(x), x)
        below = np.nextafter(dtype(65520.0), dtype(0.0))
        edge = np.array([65504.0, 65519.99, below, -65519.99, -below, 1.0, 2.0**-20, 0.0], dtype=dtype)
        assert_same_bits(edge)
        assert np.all(np.abs(round_to_fp16(edge)[:5]) == 65504.0)
        # one lane on the boundary and the array is the cast's again
        for top in (65520.0, -65520.0):
            over = np.array([top, 65519.99, 1.0, 2.0**-20], dtype=dtype)
            assert_same_bits(over)
            assert np.isinf(round_to_fp16(over)[0]) and round_to_fp16(over)[1] == 65504.0
        # the shortcut's own boundary: largest subnormal, smallest normal
        for top in (2.0**-14, np.nextafter(dtype(2.0**-14), dtype(0.0))):
            assert_same_bits(np.array([top, -top, 2.0**-25, 3 * 2.0**-25, 0.0], dtype=dtype))

    def test_nan_payloads(self, dtype):
        uint = UINT[dtype]
        mant_bits = 23 if dtype is np.float32 else 52
        exp_ones = uint((2 ** (8 if dtype is np.float32 else 11) - 1) << mant_bits)
        sign = uint(1 << (mant_bits + (8 if dtype is np.float32 else 11)))
        payloads = np.array([1, 2, 1 << (mant_bits - 11), 1 << (mant_bits - 10), 1 << (mant_bits - 1),
                             (1 << mant_bits) - 1, (1 << (mant_bits - 1)) + 1], dtype=uint)
        x = np.concatenate([exp_ones | payloads, sign | exp_ones | payloads]).view(dtype)
        assert np.all(np.isnan(x))
        assert_same_bits(x)

    def test_layouts(self, dtype, rng):
        base = (rng.standard_normal((12, 9)) * 10.0 ** rng.uniform(-9, 5, size=(12, 9))).astype(dtype)
        for x in (base, np.asfortranarray(base), base.T, base[::2, ::3], base[:, 4], base[3]):
            assert_same_bits(x)
        assert round_to_fp16(np.asfortranarray(base)).flags["F_CONTIGUOUS"]
        assert_same_bits(np.asarray(base[0, 0]))  # 0-d
        assert_same_bits(base[:0])  # empty

    def test_input_not_modified(self, dtype, rng):
        x = (rng.standard_normal(64) * 1e-6).astype(dtype)
        before = x.copy()
        round_to_fp16(x)
        assert np.array_equal(x, before)


def test_quantize_rounds_through_the_primitive(rng):
    x = rng.standard_normal((8, 8)) * 10.0 ** rng.uniform(-9, 5, size=(8, 8))
    for prec in (Precision.FP16, Precision.FP16_32):
        assert quantize(x, prec).tobytes() == numpy_cast(x).tobytes()


def _arrays(dtype):
    """Arbitrary encodings of ``dtype``, and values crowded where fp16 rounds."""
    width = 32 if dtype is np.float32 else 64
    encodings = st.integers(0, 2**width - 1).map(lambda b: np.array(b, dtype=UINT[dtype]).view(dtype)[()])
    elements = st.one_of(
        encodings,
        st.floats(-131072.0, 131072.0, width=width).map(dtype),
        st.floats(-(2.0**-13), 2.0**-13, width=width).map(dtype),
    )
    return st.lists(elements, min_size=1, max_size=64).map(lambda v: np.array(v, dtype=dtype))


def _check_arrays(x32, x64):
    assert_same_bits(x32)
    assert_same_bits(x64)


# quick in tier-1, the full count with the slow suites
test_property_bit_patterns = settings(max_examples=25, deadline=None)(
    given(_arrays(np.float32), _arrays(np.float64))(_check_arrays))
test_property_bit_patterns_full = pytest.mark.slow(settings(max_examples=1000, deadline=None)(
    given(_arrays(np.float32), _arrays(np.float64))(_check_arrays)))


@pytest.mark.slow
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_random_bit_patterns_in_bulk(dtype):
    """A million arbitrary encodings per dtype, contiguous and strided."""
    uint = UINT[dtype]
    rng = np.random.default_rng(20230914)
    bits = rng.integers(0, np.iinfo(uint).max, size=(1024, 1024), dtype=uint, endpoint=True)
    x = bits.view(dtype)
    assert_same_bits(x)
    assert_same_bits(x.T[::2])
    if dtype is np.float64:
        # uniform bit patterns almost never land near the fp16 range:
        # fold the exponents into it
        x = np.ldexp(1.0 + rng.random((1024, 1024)), rng.integers(-40, 20, size=(1024, 1024)))
        assert_same_bits(x * rng.choice([-1.0, 1.0], size=x.shape))
