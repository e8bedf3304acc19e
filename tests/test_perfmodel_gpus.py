"""Unit tests for the GPU and node specifications."""

import pytest

from repro.perfmodel.gpus import (
    A100,
    GPU_BY_NAME,
    GUYOT_NODE,
    H100,
    SUMMIT_NODE,
    V100,
)
from repro.precision import Precision


class TestPeaks:
    def test_table1_v100(self):
        assert V100.peak(Precision.FP64) == 7.8e12
        assert V100.peak(Precision.FP32) == 15.7e12
        assert V100.peak(Precision.FP16) == 125e12

    def test_table1_a100_h100_fp64_tensor(self):
        # FP64 runs on tensor cores on A100/H100 → shares the FP32 peak
        assert A100.peak(Precision.FP64) == A100.peak(Precision.FP32) == 19.5e12
        assert H100.peak(Precision.FP64) == H100.peak(Precision.FP32) == 51.2e12

    def test_generation_scaling(self):
        for prec in (Precision.FP64, Precision.FP16, Precision.TF32):
            assert V100.peak(prec) <= A100.peak(prec) <= H100.peak(prec)

    def test_registry(self):
        assert GPU_BY_NAME["V100"] is V100
        assert set(GPU_BY_NAME) == {"V100", "A100", "H100"}


class TestSustainedRate:
    def test_saturating_with_size(self):
        rates = [V100.sustained_gemm_rate(Precision.FP16, n) for n in (128, 512, 2048, 8192)]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert rates[-1] < V100.peak(Precision.FP16)

    def test_half_rate_at_half_perf_size(self):
        n_half = V100.half_perf_size[Precision.FP64]
        r = V100.sustained_gemm_rate(Precision.FP64, n_half)
        r_sus = V100.peak(Precision.FP64) * V100.sustained_fraction[Precision.FP64]
        assert r == pytest.approx(r_sus / 2)

    def test_large_tile_near_sustained(self):
        r = A100.sustained_gemm_rate(Precision.FP64, 4096)
        r_sus = A100.peak(Precision.FP64) * A100.sustained_fraction[Precision.FP64]
        assert r > 0.99 * r_sus

    def test_tensor_formats_saturate_later(self):
        # at a small tile, FP16's fraction of its sustained rate is lower
        def frac(gpu, prec, n):
            sus = gpu.peak(prec) * gpu.sustained_fraction[prec]
            return gpu.sustained_gemm_rate(prec, n) / sus

        assert frac(A100, Precision.FP16, 512) < frac(A100, Precision.FP64, 512)


class TestPower:
    def test_idle_below_compute(self):
        for gpu in (V100, A100, H100):
            for prec in Precision:
                assert gpu.idle_power < gpu.compute_power(prec) <= gpu.tdp_watts

    def test_lower_precision_draws_less(self):
        for gpu in (V100, A100, H100):
            assert gpu.compute_power(Precision.FP16) < gpu.compute_power(Precision.FP64)


class TestNodes:
    def test_summit_node(self):
        assert SUMMIT_NODE.gpus_per_node == 6
        assert SUMMIT_NODE.gpu is V100

    def test_guyot(self):
        assert GUYOT_NODE.gpus_per_node == 8 and GUYOT_NODE.gpu is A100
