"""Unit tests for the numeric tile kernels."""

import numpy as np
import pytest

from repro.precision import Precision
from repro.tiles.kernels import (
    NotPositiveDefiniteError,
    gemm,
    potrf,
    syrk,
    trsm,
    trsm_execution_precision,
)
from tests.conftest import random_spd


class TestPotrf:
    def test_factorizes(self, rng):
        c = random_spd(16, rng)
        L = potrf(c)
        assert np.allclose(L @ L.T, c)
        assert np.allclose(L, np.tril(L))

    def test_raises_on_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            potrf(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_error_is_linalgerror(self):
        """MLE drivers catch LinAlgError; our subclass must be one."""
        assert issubclass(NotPositiveDefiniteError, np.linalg.LinAlgError)


class TestTrsmExecutionPrecision:
    def test_fp64_native(self):
        assert trsm_execution_precision(Precision.FP64) == Precision.FP64

    @pytest.mark.parametrize(
        "prec",
        [Precision.FP32, Precision.TF32, Precision.FP16_32, Precision.BF16_32, Precision.FP16],
    )
    def test_fp32_floor(self, prec):
        assert trsm_execution_precision(prec) == Precision.FP32


class TestTrsm:
    def test_fp64_exact(self, rng):
        L = np.tril(random_spd(12, rng))
        L = np.linalg.cholesky(L @ L.T + 12 * np.eye(12))
        c = rng.standard_normal((12, 12))
        out = trsm(L, c, precision=Precision.FP64)
        assert np.allclose(out @ L.T, c)

    def test_fp32_close(self, rng):
        L = np.linalg.cholesky(random_spd(12, rng))
        c = rng.standard_normal((12, 12))
        out64 = trsm(L, c, precision=Precision.FP64)
        out16 = trsm(L, c, precision=Precision.FP16)  # runs in FP32
        rel = np.linalg.norm(out16 - out64) / np.linalg.norm(out64)
        assert 0.0 < rel < 1e-4

    def test_output_contiguous(self, rng):
        L = np.linalg.cholesky(random_spd(8, rng))
        out = trsm(L, rng.standard_normal((8, 8)))
        assert out.flags["C_CONTIGUOUS"]


class TestSyrk:
    def test_fp64_update(self, rng):
        a = rng.standard_normal((10, 10))
        c = random_spd(10, rng)
        out = syrk(a, c)
        assert np.allclose(out, c - a @ a.T)

    def test_result_symmetric(self, rng):
        out = syrk(rng.standard_normal((10, 10)), random_spd(10, rng))
        assert np.array_equal(out, out.T)

    def test_payload_quantization(self, rng):
        a = rng.standard_normal((10, 10))
        c = random_spd(10, rng)
        out64 = syrk(a, c, precision=Precision.FP64)
        out16 = syrk(a, c, precision=Precision.FP16)
        assert not np.allclose(out64, out16)  # quantised payload differs
        assert np.linalg.norm(out16 - out64) / np.linalg.norm(out64) < 1e-2


class TestGemm:
    def test_fp64_update(self, rng):
        a, b = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        c = rng.standard_normal((8, 8))
        assert np.allclose(gemm(a, b, c), c - a @ b.T)

    @pytest.mark.parametrize("prec", [Precision.FP32, Precision.FP16_32, Precision.FP16])
    def test_reduced_precision_error_scales(self, prec, rng):
        a, b = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        c = rng.standard_normal((16, 16))
        out = gemm(a, b, c, precision=prec)
        ref = c - a @ b.T
        rel = np.linalg.norm(out - ref) / np.linalg.norm(ref)
        assert rel < 1e-1
        assert rel > 0.0


class TestKernelComposition:
    def test_one_tile_cholesky_iteration(self, rng):
        """POTRF + TRSM + SYRK reproduce a 2×2 block factorization."""
        n, nb = 24, 12
        spd = random_spd(n, rng)
        c00, c10, c11 = spd[:nb, :nb], spd[nb:, :nb], spd[nb:, nb:]
        l00 = potrf(c00)
        l10 = trsm(l00, c10)
        s11 = syrk(l10, c11)
        l11 = potrf(s11)
        full = np.linalg.cholesky(spd)
        assert np.allclose(l00, full[:nb, :nb])
        assert np.allclose(l10, full[nb:, :nb])
        assert np.allclose(l11, full[nb:, nb:])
