"""Unit and property tests for the emulated mixed-precision GEMM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.emulate import Operand, as_input, truncate_mantissa
from repro.precision.errors import relative_frobenius_error
from repro.precision.formats import FORMAT_INFO, Precision
from repro.precision.gemm import gemm_relative_error, mixed_gemm, mixed_syrk, multiply_accumulate
from repro.tiles import kernels as tk


class TestMixedGemmBasics:
    def test_fp64_is_exact(self, rng):
        a, b = rng.standard_normal((32, 24)), rng.standard_normal((24, 40))
        assert np.array_equal(mixed_gemm(a, b, precision=Precision.FP64), a @ b)

    def test_shapes_checked(self, rng):
        a, b = rng.standard_normal((4, 4)), rng.standard_normal((5, 4))
        with pytest.raises(ValueError, match="incompatible"):
            mixed_gemm(a, b)

    def test_beta_requires_c(self, rng):
        a = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="beta"):
            mixed_gemm(a, a, beta=1.0)

    def test_c_shape_checked(self, rng):
        a = rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="shape"):
            mixed_gemm(a, a, rng.standard_normal((3, 3)), beta=1.0)

    def test_alpha_beta_fp64(self, rng):
        a, b, c = (rng.standard_normal((8, 8)) for _ in range(3))
        out = mixed_gemm(a, b, c, precision=Precision.FP64, alpha=-1.0, beta=1.0)
        assert np.allclose(out, c - a @ b)

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

    def test_fp32_accumulated_formats_insensitive_to_chunk(self, rng):
        a = rng.standard_normal((64, 64))
        out1 = mixed_gemm(a, a, precision=Precision.FP16_32, fp16_chunk=8)
        out2 = mixed_gemm(a, a, precision=Precision.FP16_32, fp16_chunk=64)
        assert np.array_equal(out1, out2)  # chunking only affects pure FP16


class TestSyrk:
    def test_matches_gemm(self, rng):
        a = rng.standard_normal((16, 16))
        c = rng.standard_normal((16, 16))
        out = mixed_syrk(a, c, precision=Precision.FP64)
        assert np.allclose(out, c - a @ a.T)

    def test_fp64_syrk_symmetric_on_symmetric_c(self, rng):
        a = rng.standard_normal((12, 12))
        c0 = rng.standard_normal((12, 12))
        c = c0 + c0.T
        out = mixed_syrk(a, c, precision=Precision.FP64)
        assert np.allclose(out, out.T)


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
    err = relative_frobenius_error(approx, exact)
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


def oracle_mixed_gemm(a, b, c=None, *, precision, alpha=1.0, beta=0.0, fp16_chunk=32):
    """Every operand re-quantised per call, every stage widened to float64
    and narrowed again: nine ``→ float16`` casts for one FP16 update."""
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
        return alpha * prod
    c = np.asarray(c, dtype=np.float64)
    if precision == Precision.FP16:
        with np.errstate(over="ignore"):
            return (
                (np.float16(alpha) * prod.astype(np.float16)).astype(np.float32)
                + (np.float16(beta) * c.astype(np.float16)).astype(np.float32)
            ).astype(np.float16).astype(np.float64)
    if precision == Precision.FP64:
        return alpha * prod + beta * c
    return (
        np.float32(alpha) * prod.astype(np.float32) + np.float32(beta) * c.astype(np.float32)
    ).astype(np.float64)


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
            for alpha in (1.0, -1.0, 0.37):
                assert _same_bits(mixed_gemm(a, b, precision=prec, alpha=alpha),
                                  oracle_mixed_gemm(a, b, precision=prec, alpha=alpha)), (m, k, n, alpha)

    def test_update_with_c(self, prec, data, rng):
        for m, k, n in SHAPES:
            a, b, c = DATA[data](rng, (m, k)), DATA[data](rng, (k, n)), DATA[data](rng, (m, n))
            for alpha, beta in ((-1.0, 1.0), (1.0, -1.0), (0.37, -2.5), (3.0, 0.0), (1e-3, 1.0)):
                assert _same_bits(
                    mixed_gemm(a, b, c, precision=prec, alpha=alpha, beta=beta),
                    oracle_mixed_gemm(a, b, c, precision=prec, alpha=alpha, beta=beta),
                ), (m, k, n, alpha, beta)

    def test_chunk_width_and_layouts(self, prec, data, rng):
        a, b, c = DATA[data](rng, (24, 50)), DATA[data](rng, (40, 50)), DATA[data](rng, (24, 40))
        for chunk in (8, 32, 64):
            # b as the transposed view the trailing update passes, c from a Fortran-ordered tile
            got = mixed_gemm(a, b.T, np.asfortranarray(c), precision=prec, alpha=-1.0, beta=1.0,
                             fp16_chunk=chunk)
            want = oracle_mixed_gemm(a, b.T, np.asfortranarray(c), precision=prec, alpha=-1.0,
                                     beta=1.0, fp16_chunk=chunk)
            assert _same_bits(got, want), chunk

    def test_c_at_its_rest_dtype(self, prec, data, rng):
        """A float32 ``c`` (an FP32-stored tile) gives what its float64 widening gives."""
        a, b = DATA[data](rng, (20, 20)), DATA[data](rng, (20, 20))
        c32 = DATA[data](rng, (20, 20)).astype(np.float32)
        assert _same_bits(mixed_gemm(a, b, c32, precision=prec, alpha=-1.0, beta=1.0),
                          oracle_mixed_gemm(a, b, c32, precision=prec, alpha=-1.0, beta=1.0))

    def test_saturation(self, prec, data, rng):
        a, b = DATA[data](rng, (8, 40)) * 300.0, DATA[data](rng, (40, 8)) * 300.0
        c = DATA[data](rng, (8, 8)) * 7e4
        with np.errstate(invalid="ignore"):  # inf − inf where the fp16 accumulator overflowed
            got = mixed_gemm(a, b, c, precision=prec, alpha=-1.0, beta=1.0)
            want = oracle_mixed_gemm(a, b, c, precision=prec, alpha=-1.0, beta=1.0)
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
        raw = mixed_gemm(a, b.T, c, precision=prec, alpha=-1.0, beta=1.0)
        ops = mixed_gemm(Operand(a), Operand(b.T), c, precision=prec, alpha=-1.0, beta=1.0)
        prepared = multiply_accumulate(as_input(a, prec), as_input(b, prec).T, c,
                                       precision=prec, alpha=-1.0, beta=1.0)
        kernel = tk.gemm(Operand(a), Operand(b), c, precision=prec)
        # the kernels return at the accumulator's width; ``mixed_gemm`` widens that to float64
        width = np.float64 if prec == Precision.FP64 else np.float32
        assert prepared.dtype == kernel.dtype == width
        assert _same_bits(raw, ops)
        assert _same_bits(raw, prepared.astype(np.float64)) and _same_bits(raw, kernel.astype(np.float64))


def test_unasked_for_invalid_is_an_error():
    """pyproject's filter: a RuntimeWarning raised inside repro.precision fails the suite."""
    with pytest.raises(RuntimeWarning, match="invalid"):
        mixed_gemm(np.array([[np.inf]]), np.array([[0.0]]), precision=Precision.FP32)
