"""Unit and property tests for the emulated mixed-precision GEMM."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.precision.gemm
from repro.precision.emulate import Operand, as_input, truncate_mantissa
from repro.precision.formats import FORMAT_INFO, Precision
from repro.precision.gemm import gemm_relative_error, mixed_gemm, multiply_accumulate
from repro.tiles import kernels as tk


def update(a, b, c, *, precision):
    """The trailing update ``c − a @ b`` on raw operands, widened to float64."""
    out = multiply_accumulate(as_input(a, precision), as_input(b, precision), c, precision=precision)
    return np.asarray(out, dtype=np.float64)


class TestMixedGemmBasics:
    def test_fp64_is_exact(self, rng):
        a, b = rng.standard_normal((32, 24)), rng.standard_normal((24, 40))
        assert np.array_equal(mixed_gemm(a, b, precision=Precision.FP64), a @ b)

    def test_shapes_checked(self, rng):
        a, b = rng.standard_normal((4, 4)), rng.standard_normal((5, 4))
        with pytest.raises(ValueError, match="incompatible"):
            mixed_gemm(a, b)

    def test_c_shape_checked(self, rng):
        a = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="shape"):
            multiply_accumulate(a, a, rng.standard_normal((3, 3)))

    def test_update_fp64(self, rng):
        a, b, c = (rng.standard_normal((8, 8)) for _ in range(3))
        assert np.array_equal(update(a, b, c, precision=Precision.FP64), c - a @ b)

    @pytest.mark.parametrize("prec", list(Precision))
    def test_returns_float64(self, prec, rng):
        a = rng.standard_normal((16, 16))
        assert mixed_gemm(a, a, precision=prec).dtype == np.float64


class TestErrorScaling:
    @pytest.mark.parametrize(
        "prec,lo,hi",
        [
            (Precision.FP32, 1e-8, 1e-5),
            (Precision.TF32, 1e-5, 1e-2),
            (Precision.FP16_32, 1e-5, 1e-2),
            (Precision.BF16_32, 1e-4, 1e-1),
            (Precision.FP16, 1e-4, 1e-1),
        ],
    )
    def test_error_near_unit_roundoff(self, prec, lo, hi):
        err = gemm_relative_error(256, prec)
        assert lo < err < hi, f"{prec}: {err}"

    def test_error_ordering_matches_fig1(self):
        """Fig. 1 top row: FP64 < FP32 < TF32/FP16_32 < FP16."""
        errs = {p: gemm_relative_error(256, p) for p in Precision}
        assert errs[Precision.FP64] == 0.0
        assert errs[Precision.FP32] < errs[Precision.TF32]
        assert errs[Precision.FP32] < errs[Precision.FP16_32]
        assert errs[Precision.FP16_32] <= errs[Precision.FP16]
        assert errs[Precision.TF32] < errs[Precision.BF16_32]

    def test_fp16_error_grows_with_k(self):
        """Half-precision accumulation error grows with the inner dim."""
        e_small = gemm_relative_error(64, Precision.FP16)
        e_large = gemm_relative_error(512, Precision.FP16)
        assert e_large > e_small

    def test_fp32_accumulated_formats_insensitive_to_chunk(self, rng, monkeypatch):
        a = rng.standard_normal((64, 64))
        monkeypatch.setattr(repro.precision.gemm, "_FP16_CHUNK", 8)
        out1 = mixed_gemm(a, a, precision=Precision.FP16_32)
        monkeypatch.setattr(repro.precision.gemm, "_FP16_CHUNK", 64)
        out2 = mixed_gemm(a, a, precision=Precision.FP16_32)
        assert np.array_equal(out1, out2)  # chunking only affects pure FP16


@given(
    st.integers(4, 24),
    st.sampled_from([Precision.FP32, Precision.FP16_32, Precision.FP16, Precision.TF32]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_property_error_within_theory(n, prec, seed):
    """Emulated GEMM error stays within the classical k·u bound."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(n, n))
    b = rng.uniform(-1, 1, size=(n, n))
    exact = a @ b
    approx = mixed_gemm(a, b, precision=prec)
    info = FORMAT_INFO[prec]
    # inputs rounded at input_bits, accumulation at accum_bits
    u_in = 2.0 ** (1 - info.input_bits)
    u_acc = 2.0 ** (1 - info.accum_bits)
    bound = (2 * u_in + (n + 2) * u_acc) * 4.0  # generous constant
    err = float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
    # normalise by the product's condition: |a||b| vs |ab|
    amp = float(np.linalg.norm(np.abs(a) @ np.abs(b)) / max(np.linalg.norm(exact), 1e-30))
    assert err <= bound * max(amp, 1.0)


# -- the cast-chain implementation this module replaced, kept as the oracle ---


def oracle_quantize(x, precision):
    """``quantize`` as NumPy dtype casts (the fp16 cast the primitive replaced)."""
    x = np.asarray(x, dtype=np.float64)
    if precision == Precision.FP64:
        return x
    if precision == Precision.FP32:
        return x.astype(np.float32).astype(np.float64)
    if precision in (Precision.FP16, Precision.FP16_32):
        with np.errstate(over="ignore"):
            return x.astype(np.float16).astype(np.float64)
    bits = 11 if precision == Precision.TF32 else 8
    return truncate_mantissa(x.astype(np.float32), bits).astype(np.float64)


def oracle_accumulate_fp16(a, b, chunk):
    a32 = np.asarray(a, dtype=np.float32)
    b32 = np.asarray(b, dtype=np.float32)
    k = a32.shape[1]
    acc = np.zeros((a32.shape[0], b32.shape[1]), dtype=np.float32)
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        acc += a32[:, start:stop] @ b32[start:stop, :]
        with np.errstate(over="ignore"):
            acc = acc.astype(np.float16).astype(np.float32)
    return acc.astype(np.float64)


def oracle_mixed_gemm(a, b, c=None, *, precision, fp16_chunk=32):
    """``a @ b``, or the update ``(−a @ b) + c`` as BLAS xGEMM's α = −1,
    β = 1 computes it: every operand re-quantised per call, every stage
    widened to float64 and narrowed again."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if precision == Precision.FP64:
        prod = a @ b
    elif precision == Precision.FP32:
        prod = (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float64)
    elif precision in (Precision.TF32, Precision.FP16_32, Precision.BF16_32):
        aq = oracle_quantize(a, precision).astype(np.float32)
        bq = oracle_quantize(b, precision).astype(np.float32)
        prod = (aq @ bq).astype(np.float64)
    else:
        aq = oracle_quantize(a, precision).astype(np.float16)
        bq = oracle_quantize(b, precision).astype(np.float16)
        prod = oracle_accumulate_fp16(aq, bq, fp16_chunk)
    if c is None:
        return prod
    c = np.asarray(c, dtype=np.float64)
    if precision == Precision.FP16:
        with np.errstate(over="ignore"):
            return (
                (-prod.astype(np.float16)).astype(np.float32) + c.astype(np.float16).astype(np.float32)
            ).astype(np.float16).astype(np.float64)
    if precision == Precision.FP64:
        return -prod + c
    return (-prod.astype(np.float32) + c.astype(np.float32)).astype(np.float64)


def _same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


#: O(1) entries, and entries that are mostly subnormal or zero in fp16 —
#: what the far-field tiles the selection rule demotes to FP16 hold
DATA = {
    "O(1)": lambda rng, shape: rng.standard_normal(shape),
    "subnormal-heavy": lambda rng, shape: rng.standard_normal(shape) * 10.0 ** rng.uniform(-9, -3, shape),
    "mixed": lambda rng, shape: rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 2, shape),
}
SHAPES = [(64, 64, 64), (16, 16, 16), (7, 33, 5), (13, 70, 9), (1, 1, 1), (5, 31, 12)]


@pytest.mark.parametrize("prec", list(Precision))
@pytest.mark.parametrize("data", list(DATA))
class TestReplacementIsExact:
    """``mixed_gemm`` ≡ the cast chains it replaced, on the raw bits."""

    def test_product_only(self, prec, data, rng):
        for m, k, n in SHAPES:
            a, b = DATA[data](rng, (m, k)), DATA[data](rng, (k, n))
            assert _same_bits(mixed_gemm(a, b, precision=prec),
                              oracle_mixed_gemm(a, b, precision=prec)), (m, k, n)

    def test_update_with_c(self, prec, data, rng):
        """``c − p`` rounds as BLAS's ``(−p) + c`` does, signed zeros included."""
        for m, k, n in SHAPES:
            a, b, c = DATA[data](rng, (m, k)), DATA[data](rng, (k, n)), DATA[data](rng, (m, n))
            assert _same_bits(update(a, b, c, precision=prec),
                              oracle_mixed_gemm(a, b, c, precision=prec)), (m, k, n)

    def test_chunk_width_and_layouts(self, prec, data, rng, monkeypatch):
        a, b, c = DATA[data](rng, (24, 50)), DATA[data](rng, (40, 50)), DATA[data](rng, (24, 40))
        for chunk in (8, 32, 64):
            monkeypatch.setattr(repro.precision.gemm, "_FP16_CHUNK", chunk)
            # b as the transposed view the trailing update passes, c from a Fortran-ordered tile
            got = update(a, b.T, np.asfortranarray(c), precision=prec)
            want = oracle_mixed_gemm(a, b.T, np.asfortranarray(c), precision=prec, fp16_chunk=chunk)
            assert _same_bits(got, want), chunk

    def test_c_at_its_rest_dtype(self, prec, data, rng):
        """A float32 ``c`` (an FP32-stored tile) gives what its float64 widening gives."""
        a, b = DATA[data](rng, (20, 20)), DATA[data](rng, (20, 20))
        c32 = DATA[data](rng, (20, 20)).astype(np.float32)
        assert _same_bits(update(a, b, c32, precision=prec),
                          oracle_mixed_gemm(a, b, c32, precision=prec))

    def test_saturation(self, prec, data, rng):
        a, b = DATA[data](rng, (8, 40)) * 300.0, DATA[data](rng, (40, 8)) * 300.0
        c = DATA[data](rng, (8, 8)) * 7e4
        with np.errstate(invalid="ignore"):  # inf − inf where the fp16 accumulator overflowed
            got = update(a, b, c, precision=prec)
            want = oracle_mixed_gemm(a, b, c, precision=prec)
        assert _same_bits(got, want)


@pytest.mark.parametrize("prec", list(Precision))
class TestPreparedOperands:
    def test_operand_forms_are_made_once_and_shared(self, prec, rng):
        raw = rng.standard_normal((12, 12)) * 1e-5
        op = Operand(raw)
        first = as_input(op, prec)
        assert as_input(op, prec) is first
        assert first.dtype == (np.float64 if prec == Precision.FP64 else np.float32)
        assert np.array_equal(first, as_input(raw, prec))
        assert np.array_equal(first.astype(np.float64), oracle_quantize(raw, prec))

    def test_cached_and_raw_calls_are_one_code_path(self, prec, rng):
        a, b, c = (rng.standard_normal((16, 16)) * 1e-4 for _ in range(3))
        raw = update(a, b.T, c, precision=prec)
        ops = update(Operand(a), Operand(b.T), c, precision=prec)
        prepared = multiply_accumulate(as_input(a, prec), as_input(b, prec).T, c, precision=prec)
        kernel = tk.gemm(Operand(a), Operand(b), c, precision=prec)
        # the kernels return at the accumulator's width; ``update`` widens that to float64
        width = np.float64 if prec == Precision.FP64 else np.float32
        assert prepared.dtype == kernel.dtype == width
        assert _same_bits(raw, ops)
        assert _same_bits(raw, prepared.astype(np.float64)) and _same_bits(raw, kernel.astype(np.float64))


def test_unasked_for_invalid_is_an_error():
    """pyproject's filter: a RuntimeWarning raised inside repro.precision fails the suite."""
    with pytest.raises(RuntimeWarning, match="invalid"):
        mixed_gemm(np.array([[np.inf]]), np.array([[0.0]]), precision=Precision.FP32)


# -- the pure-FP16 accumulator against exact rational arithmetic -----------------


def fraction_to_fp16(x):
    """``x`` (a ``Fraction``) rounded to nearest-even on the binary16 grid: ±inf past 65504."""
    if x == 0 or math.isinf(x):  # an overflowed running sum stays ±inf
        return x
    m = abs(x)
    e = m.numerator.bit_length() - m.denominator.bit_length()
    if Fraction(2) ** e > m:
        e -= 1
    ulp = Fraction(2) ** (max(e, -14) - 10)  # 11 significant bits; subnormal spacing 2^-24
    q, r = divmod(m, ulp)
    if r > ulp / 2 or (r == ulp / 2 and q % 2):
        q += 1
    v = q * ulp
    if v > 65504:
        return math.copysign(math.inf, x)
    return v if x > 0 else -v


def fraction_replay(a, b, chunk=32):
    """The fp16 accumulator in exact arithmetic: each chunk's products summed
    exactly, the running sum rounded to fp16 after every chunk."""
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = Fraction(0)
            for start in range(0, a.shape[1], chunk):
                part = sum(Fraction(float(x)) * Fraction(float(y))
                           for x, y in zip(a[i, start:start + chunk], b[start:start + chunk, j]))
                acc = fraction_to_fp16(acc + part)
            out[i, j] = acc
    return out


class TestFp16ChunkAgainstExactSums:
    """``multiply_accumulate``'s pure-FP16 path is a half-precision running
    sum rounded once per 32-wide chunk.  Entries are multiples of 1/8 below
    2 in magnitude, so a product is a multiple of 1/64 and a chunk's partial
    sums stay below 2^13 of those units: every float32 add inside a chunk
    is exact, whatever order the BLAS sums in, and the result is fixed by
    the fp16 roundings alone."""

    @staticmethod
    def _operands(rng, m, k, n):
        a = (rng.integers(-15, 16, size=(m, k)) / 8.0).astype(np.float32)
        b = (rng.integers(-15, 16, size=(k, n)) / 8.0).astype(np.float32)
        # nine entries of same-sign products of at least 1: their running sums
        # pass 32 (2^11 units of 1/64) within a chunk, so every later rounding cuts
        a[:3] = rng.integers(8, 16, size=(3, k)) / 8.0
        b[:, :3] = rng.integers(8, 16, size=(k, 3)) / 8.0
        return a, b

    @pytest.mark.parametrize("k", [1, 31, 32, 33, 64, 65])
    def test_matches_the_replay(self, rng, k):
        a, b = self._operands(rng, 5, k, 6)
        got = multiply_accumulate(a, b, precision=Precision.FP16)
        assert got.dtype == np.float64
        assert np.array_equal(got, fraction_replay(a, b))

    def test_the_chunk_roundings_are_seen(self, rng):
        """At k = 65 a replay that rounds once at the end, or every 16
        products, differs: the test above checks where the roundings fall."""
        a, b = self._operands(rng, 5, 65, 6)
        for chunk in (16, 65):
            assert not np.array_equal(fraction_replay(a, b), fraction_replay(a, b, chunk=chunk))

    def test_saturates_past_65504(self):
        """Row 0 · column 1 is 33 · 255² = 2,145,825: the running sum passes
        the largest fp16 value in the first chunk and stays +inf.  Against a
        column of ones, 65,504 + 8 rounds back to 65,504 and 65,504 + 16 (the
        midpoint to 65,536) rounds to even, which is +inf."""
        a = np.zeros((3, 33), dtype=np.float32)
        a[0] = 255.0
        a[1:, 0] = 65504.0
        a[1:, 32] = (8.0, 16.0)
        b = np.ones((33, 2), dtype=np.float32)
        b[:, 1] = 255.0
        got = multiply_accumulate(a, b, precision=Precision.FP16)
        want = fraction_replay(a, b)
        assert want[0, 1] == want[2, 0] == math.inf and want[1, 0] == 65504.0
        assert np.array_equal(got, want)
