"""Planning and sweep throughput benchmarks.

The precision-planning hot path (Algorithm 2's communication map) was
rewritten from a Python triple loop into a NumPy suffix-max scan.  This
harness pins the acceptance criterion — the vectorized builder must be
at least 10× faster than the reference loop at NT = 256 — and records
planning / simulation throughput for the perf trajectory
(``results/sweep_planning.csv`` plus the ``BENCH_*.json`` files the
sweep engine itself emits).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import write_csv
from repro.core.conversion import build_comm_precision_map
from repro.core.precision_map import KernelPrecisionMap, band_precision_map
from repro.precision import ADAPTIVE_FORMATS, Precision
from repro.sweep import RunSpec, execute_spec

from conftest import full_mode
from tests.comm_map_oracle import build_comm_precision_map_loop

NT = 256
SPEEDUP_FLOOR = 10.0


def _random_kmap(nt: int, seed: int = 0) -> KernelPrecisionMap:
    rng = np.random.default_rng(seed)
    codes = rng.choice([int(p) for p in ADAPTIVE_FORMATS], size=(nt, nt)).astype(np.int8)
    codes = np.maximum(codes, codes.T)
    np.fill_diagonal(codes, int(Precision.FP64))
    return KernelPrecisionMap(nt=nt, codes=codes)


def _best_of(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def test_comm_map_vectorized_speedup(benchmark):
    """Acceptance: vectorized comm-map builder ≥ 10× the loop at NT=256."""
    kmap = _random_kmap(NT)
    build_comm_precision_map(kmap)  # warm the LUT / allocator

    t_fast = _best_of(build_comm_precision_map, kmap)
    t_loop = _best_of(build_comm_precision_map_loop, kmap, repeats=1)
    speedup = t_loop / t_fast
    benchmark(build_comm_precision_map, kmap)

    rows = [
        ["comm_map_loop", NT, t_loop, NT * (NT + 1) / 2 / t_loop],
        ["comm_map_vectorized", NT, t_fast, NT * (NT + 1) / 2 / t_fast],
    ]
    write_csv("sweep_planning", ["stage", "nt", "seconds", "tiles_per_s"], rows)
    print(f"\nNT={NT}: loop {t_loop:.4f}s  vectorized {t_fast:.6f}s  speedup {speedup:.1f}x")
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized comm map only {speedup:.1f}x faster than loop (need ≥ {SPEEDUP_FLOOR}x)"
    )


def test_band_map_planning_throughput(benchmark):
    """Planning throughput of the banded kernel-map builder at NT=256."""
    bands = [(0, Precision.FP64), (8, Precision.FP32), (32, Precision.FP16_32),
             (NT, Precision.FP16)]
    kmap = benchmark(band_precision_map, NT, bands)
    assert kmap.nt == NT


def test_sweep_run_throughput(once):
    """End-to-end single-spec throughput: planning + simulation seconds as
    reported by the sweep worker (feeds the BENCH_*.json trajectory)."""
    n = 16384 if full_mode() else 4096
    spec = RunSpec(n=n, nb=512, config="FP64/FP16_32", strategy="auto")
    result = once(execute_spec, spec.to_dict())
    assert result["plan_seconds"] > 0.0
    assert result["sim_seconds"] > 0.0
    write_csv(
        "sweep_run_throughput",
        ["n", "nb", "nt", "plan_seconds", "sim_seconds", "tflops"],
        [[n, 512, result["nt"], result["plan_seconds"], result["sim_seconds"],
          result.get("tflops", 0.0)]],
    )
