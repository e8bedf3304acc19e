"""The emulated arithmetic against extended precision (ROADMAP oracle 2(a)).

Every other test of the numeric path compares the emulation with the
emulation — bits against the cast chains it replaced, the factorization
against the loop it replaced.  These compare it with arithmetic that is
not ours: ``multiply_accumulate`` against an ``np.longdouble`` product of
the *rounded* inputs (64-bit significand: products of float32 values are
exact in it, and it sums k ≤ 2^10 of them to 2^-54 relative), within the
forward-error bound of the format's accumulator, and ``mp_cholesky``
against the matrix it factors, within the backward error the
tile-selection rule of arXiv 2003.05324 budgets for, and ``tk.trsm``
against the system it solves.  The constants are stated here, not fitted
per case:

* an accumulator of unit roundoff ``u`` summing ``k`` products in any
  order: ``|fl(Σ aᵢbᵢ) − Σ aᵢbᵢ| ≤ γ_k Σ|aᵢbᵢ|``, ``γ_k = ku/(1 − ku) ≤
  1.01·k·u`` here (Higham, *Accuracy and Stability*, §3.1); one more
  rounding when the product is subtracted from ``C``;
* the pure-FP16 accumulator rounds once per chunk of the inner
  dimension, so ``k`` becomes ``T = ⌈k / chunk⌉`` and ``u`` is fp16's
  2^-11; the float32 arithmetic inside a chunk adds under 1 % of that
  (``C_FP16`` = 1.05), and a rounding that lands below fp16's normal range
  (2^-14) errs by at most half the subnormal spacing, 2^-25, instead;
* ``‖LLᵀ − A‖_F ≤ c·NT·u_req·‖A‖_F`` with ``c`` = 1 on the weak-sqexp
  fixture (measured 0.003–0.05);
* a triangular solve ``X·Lᵀ = C`` with ``L`` n×n, at its execution
  precision's unit roundoff ``u``: ``|C − X̂·Lᵀ| ≤ γ_{n+1}·|X̂|·|Lᵀ|``
  entrywise — substitution's ``γ_n`` (Higham, Thm 8.5) and one more
  rounding, the reciprocal of the diagonal the kernel multiplies by
  (measured: up to 1.5u at n = 1, under n·u from n = 2).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cholesky import mp_cholesky
from repro.core.config import ConversionStrategy, MPConfig
from repro.core.precision_map import build_precision_map
from repro.precision import FORMAT_INFO, Precision
from repro.precision.emulate import Operand, as_input
from repro.precision.gemm import multiply_accumulate
from repro.tiles import kernels as tk
from repro.tiles.norms import tile_norms

# a RuntimeWarning from anywhere is a failure here, not only from inside repro
pytestmark = pytest.mark.filterwarnings("error")

#: on the tests whose oracle is ``np.longdouble`` arithmetic
needs_long_double = pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                                       reason="needs an extended-precision long double")

CHUNK = 32
C_GAMMA = 1.01
C_FP16 = 1.05
FP16_UNIT_ROUNDOFF = 2.0**-11
FP16_HALF_SUBNORMAL_SPACING = 2.0**-25
C_BACKWARD = 1.0

#: O(1) entries, and entries that are mostly subnormal or zero in fp16 — what the
#: far-field tiles the selection rule demotes hold
DATA = {
    "O(1)": lambda rng, shape: rng.standard_normal(shape),
    "subnormal-heavy": lambda rng, shape: rng.standard_normal(shape) * 10.0 ** rng.uniform(-9, -3, shape),
}


def _bound(precision: Precision, k: int, magnitude: np.ndarray, with_c: bool) -> np.ndarray:
    """Forward-error bound per entry; ``magnitude`` is ``|a|·|b|`` (+ ``|c|``)."""
    if precision == Precision.FP16:
        roundings = math.ceil(k / CHUNK) + with_c
        return C_FP16 * roundings * (FP16_UNIT_ROUNDOFF * magnitude + FP16_HALF_SUBNORMAL_SPACING)
    return C_GAMMA * (k + with_c) * FORMAT_INFO[precision].unit_roundoff * magnitude


@needs_long_double
@pytest.mark.parametrize("precision", list(Precision))
@settings(max_examples=60)
@given(m=st.integers(1, 20), k=st.integers(1, 130), n=st.integers(1, 20),
       data=st.sampled_from(sorted(DATA)), with_c=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_multiply_accumulate_forward_error(precision, m, k, n, data, with_c, seed):
    rng = np.random.default_rng(seed)
    a = as_input(DATA[data](rng, (m, k)), precision)
    b = as_input(DATA[data](rng, (k, n)), precision)
    wide = np.longdouble
    exact = a.astype(wide) @ b.astype(wide)
    magnitude = np.abs(a).astype(wide) @ np.abs(b).astype(wide)
    if with_c:
        # the trailing update, C at the dtype it rests in and (FP16) on the grid the kernel reads it on
        c = DATA[data](rng, (m, n)).astype(a.dtype)
        got = multiply_accumulate(a, b, c, precision=precision, alpha=-1.0, beta=1.0)
        c_read = as_input(c, precision) if precision == Precision.FP16 else c
        exact = c_read.astype(wide) - exact
        magnitude = magnitude + np.abs(c_read)
    else:
        got = multiply_accumulate(a, b, precision=precision)
    error = np.abs(got.astype(wide) - exact)
    assert np.all(error <= _bound(precision, k, magnitude, with_c)), (
        float(np.max(error / np.maximum(_bound(precision, k, magnitude, with_c), np.finfo(wide).tiny))))


@needs_long_double
def test_the_fp16_bound_is_not_slack_by_orders():
    """The bound is the model's, not a loose envelope: O(1) data comes within 10× of it."""
    rng = np.random.default_rng(7)
    a = as_input(rng.standard_normal((64, 128)), Precision.FP16)
    b = as_input(rng.standard_normal((128, 64)), Precision.FP16)
    wide = np.longdouble
    error = np.abs(multiply_accumulate(a, b, precision=Precision.FP16).astype(wide) - a.astype(wide) @ b.astype(wide))
    bound = _bound(Precision.FP16, 128, np.abs(a).astype(wide) @ np.abs(b).astype(wide), False)
    assert 0.1 < float(np.max(error / bound)) <= 1.0


@pytest.mark.parametrize("strategy", list(ConversionStrategy))
@pytest.mark.parametrize("u_req", [1e-2, 1e-4, 1e-9])
def test_mp_cholesky_backward_error(weak_sqexp_cov, u_req, strategy):
    kmap = build_precision_map(tile_norms(weak_sqexp_cov), u_req, MPConfig().formats)
    lower = mp_cholesky(weak_sqexp_cov, kmap, strategy=strategy).factor.lower_dense()
    a = weak_sqexp_cov.to_dense()
    residual = np.linalg.norm(lower @ lower.T - a) / np.linalg.norm(a)
    assert residual <= C_BACKWARD * weak_sqexp_cov.nt * u_req
    if u_req == 1e-9:
        assert residual > 1e-13  # the reduced-precision tiles are in it: this is not the FP64 factor


@needs_long_double
@pytest.mark.parametrize("precision", [Precision.FP64, Precision.FP32])
@settings(max_examples=60)
@given(m=st.integers(1, 40), n=st.integers(1, 64), boost=st.floats(1e-4, 1.0),
       graded=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_trsm_backward_error(precision, m, n, boost, graded, seed):
    """``tk.trsm`` (FP64, and the FP32 every FP16-class panel tile runs at) on the
    inputs as rounded to its execution precision, against the ``np.longdouble``
    residual; ``L`` from an SPD matrix of condition up to ~10⁴n, rows of ``C``
    O(1) or graded over six decades."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    lower = np.linalg.cholesky(a @ a.T + boost * n * np.eye(n))
    c = rng.standard_normal((m, n))
    if graded:
        c *= 10.0 ** rng.uniform(-3, 3, (m, 1))
    x = tk.trsm(Operand(lower), c, precision=precision)
    assert x.dtype == (np.float64 if precision == Precision.FP64 else np.float32)
    wide = np.longdouble
    l_in, c_in, x_w = (as_input(lower, precision).astype(wide), as_input(c, precision).astype(wide),
                       x.astype(wide))
    residual = np.abs(c_in - x_w @ l_in.T)
    bound = C_GAMMA * (n + 1) * FORMAT_INFO[precision].unit_roundoff * (np.abs(x_w) @ np.abs(l_in).T)
    assert np.all(residual <= bound), float(np.max(residual / bound))
