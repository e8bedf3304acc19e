"""Unit tests for the kernel time and conversion cost models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel.calibration import verify_table2
from repro.perfmodel.gpus import A100, V100
from repro.perfmodel.kernels import (
    KernelKind,
    conversion_time,
    gemm_time,
    kernel_flops,
    kernel_flops_rect,
    kernel_time,
)
from repro.precision import Precision


class TestKernelFlops:
    def test_standard_counts(self):
        nb = 100
        assert kernel_flops(KernelKind.POTRF, nb) == pytest.approx(nb**3 / 3)
        assert kernel_flops(KernelKind.TRSM, nb) == nb**3
        assert kernel_flops(KernelKind.SYRK, nb) == nb**3 + nb**2
        assert kernel_flops(KernelKind.GEMM, nb) == 2 * nb**3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            kernel_flops("TRMM", 64)

    def test_gemm_dominates(self):
        """>90 % of Cholesky flops are GEMM for moderate NT (Section IV)."""
        nt = 30
        gemm = kernel_flops(KernelKind.GEMM, 2048) * nt * (nt - 1) * (nt - 2) / 6
        other = (
            kernel_flops(KernelKind.POTRF, 2048) * nt
            + (kernel_flops(KernelKind.TRSM, 2048) + kernel_flops(KernelKind.SYRK, 2048))
            * nt * (nt - 1) / 2
        )
        assert gemm / (gemm + other) > 0.85


class TestKernelFlopsRect:
    def test_rect_counts(self):
        m, n, k = 96, 64, 32
        assert kernel_flops_rect(KernelKind.POTRF, k) == pytest.approx(k**3 / 3)
        assert kernel_flops_rect(KernelKind.TRSM, m, k) == m * k**2
        assert kernel_flops_rect(KernelKind.SYRK, m, k) == m**2 * k + m**2
        assert kernel_flops_rect(KernelKind.GEMM, m, n, k) == 2 * m * n * k

    @given(st.integers(1, 4096))
    @settings(max_examples=30)
    def test_reduces_to_square_counts(self, nb):
        """Square tiles price identically through either entry point."""
        assert kernel_flops_rect(KernelKind.POTRF, nb) == kernel_flops(KernelKind.POTRF, nb)
        assert kernel_flops_rect(KernelKind.TRSM, nb, nb) == kernel_flops(KernelKind.TRSM, nb)
        assert kernel_flops_rect(KernelKind.SYRK, nb, nb) == kernel_flops(KernelKind.SYRK, nb)
        assert kernel_flops_rect(KernelKind.GEMM, nb, nb, nb) == kernel_flops(KernelKind.GEMM, nb)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            kernel_flops_rect("TRMM", 64, 64)


class TestKernelTime:
    def test_table2_gemm_anchor(self):
        """GEMM times reproduce Table II within 15 %."""
        assert gemm_time(V100, 2048, Precision.FP64) * 1e3 == pytest.approx(2.2, rel=0.15)
        assert gemm_time(V100, 2048, Precision.FP32) * 1e3 == pytest.approx(1.09, rel=0.15)
        assert gemm_time(V100, 2048, Precision.FP16) * 1e3 == pytest.approx(0.14, rel=0.2)

    def test_kernel_efficiency_ordering(self):
        """POTRF is the least efficient kernel, GEMM the most."""
        nb = 2048
        t = {
            kind: kernel_time(V100, kind, nb, Precision.FP64) / kernel_flops(kind, nb)
            for kind in KernelKind.ALL
        }
        assert t[KernelKind.POTRF] > t[KernelKind.TRSM] > t[KernelKind.SYRK] > t[KernelKind.GEMM]

    @given(st.sampled_from([Precision.FP64, Precision.FP32, Precision.FP16]),
           st.integers(256, 4096))
    @settings(max_examples=30)
    def test_lower_precision_never_slower(self, prec, nb):
        t64 = kernel_time(V100, KernelKind.GEMM, nb, Precision.FP64)
        t = kernel_time(V100, KernelKind.GEMM, nb, prec)
        assert t <= t64 * 1.0001


class TestConversion:
    def test_same_precision_free(self):
        assert conversion_time(V100, 2048 * 2048, Precision.FP32, Precision.FP32) == 0.0

    def test_cost_scales_with_widths(self):
        n = 2048 * 2048
        t_64_16 = conversion_time(V100, n, Precision.FP64, Precision.FP16)
        t_32_16 = conversion_time(V100, n, Precision.FP32, Precision.FP16)
        assert t_64_16 > t_32_16 > 0.0

    def test_faster_hbm_converts_faster(self):
        n = 2048 * 2048
        assert conversion_time(A100, n, Precision.FP32, Precision.FP16) < conversion_time(
            V100, n, Precision.FP32, Precision.FP16
        )

    def test_conversion_well_below_fp64_gemm(self):
        """Conversion is an overhead, not a kernel-scale cost."""
        n = 2048
        conv = conversion_time(V100, n * n, Precision.FP32, Precision.FP16)
        assert conv < gemm_time(V100, n, Precision.FP64) / 5

    def test_launch_overhead_floor(self):
        tiny = conversion_time(V100, 1, Precision.FP32, Precision.FP16)
        assert tiny >= V100.conversion_launch


class TestCalibration:
    def test_shipped_model_passes_table2(self):
        report = verify_table2()
        assert report.ok, f"worst cell {report.worst_cell}: {report.max_rel_error:.3f}"
        assert report.mean_rel_error < 0.08
