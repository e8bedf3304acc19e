"""Fig. 1: GEMM accuracy and performance per precision format.

Top row (accuracy): emulated mixed-precision GEMMs against the FP64
reference — error ordering FP64 < FP32 < {TF32, FP16_32, BF16_32} < FP16
must hold, with each family sitting near its unit roundoff.

Bottom row (performance): the modeled sustained GEMM rate approaches each
format's theoretical peak with tile size, with tensor-core formats
saturating later — the paper's "near-theoretical peak performance is
achieved for each precision" observation.
"""

from repro.bench import (
    fig1_accuracy_rows,
    fig1_performance_rows,
    format_table,
    write_csv,
)
from repro.perfmodel import GPU_BY_NAME
from repro.precision import Precision

_FORMATS = ["FP64", "FP32", "TF32", "FP16_32", "BF16_32", "FP16"]


def test_fig1_gemm_accuracy(benchmark):
    rows = benchmark.pedantic(fig1_accuracy_rows, rounds=1, iterations=1)
    print()
    print(format_table(["n", *_FORMATS], rows, title="Fig. 1 (top): GEMM relative error vs FP64"))
    write_csv("fig1_gemm_accuracy", ["n", *_FORMATS], rows)
    for row in rows:
        n, e64, e32, etf32, e16_32, eb16_32, e16 = row
        assert e64 == 0.0
        assert e32 < etf32 < e16, f"error ordering violated at n={n}"
        assert e32 < e16_32 <= e16, f"FP16_32 must sit between FP32 and FP16 at n={n}"
        # error magnitudes near the respective unit roundoffs
        assert 1e-8 < e32 < 1e-5
        assert 1e-5 < e16_32 < 1e-2
        assert e16 < 0.2


def test_fig1_gemm_performance(benchmark):
    rows = benchmark(fig1_performance_rows)
    print()
    print(format_table(["gpu", "n", *_FORMATS], rows, title="Fig. 1 (bottom): GEMM Tflop/s"))
    write_csv("fig1_gemm_performance", ["gpu", "n", *_FORMATS], rows)
    by_gpu: dict[str, list] = {}
    for row in rows:
        by_gpu.setdefault(row[0], []).append(row)
    for gpu_name, gpu_rows in by_gpu.items():
        gpu = GPU_BY_NAME[gpu_name]
        largest = gpu_rows[-1]
        # near-peak at the largest size for the vector formats
        frac64 = largest[2] / (gpu.peak(Precision.FP64) / 1e12)
        assert 0.6 < frac64 <= 1.0, f"{gpu_name} FP64 sustained fraction {frac64:.2f}"
        # monotone non-decreasing rate with size, per format
        for col in range(2, 8):
            series = [r[col] for r in gpu_rows]
            assert all(a <= b * 1.0001 for a, b in zip(series, series[1:])), (
                f"{gpu_name} col {col} not monotone: {series}"
            )
        # tensor-core FP16 beats FP64 by >10x at the largest size on every GPU
        assert largest[7] > 4 * largest[2]
