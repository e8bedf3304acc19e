#!/usr/bin/env python3
"""One-screen reproduction summary (reduced scale, ~2 minutes).

Runs a condensed version of every headline result and prints a
paper-vs-measured scoreboard.  The full-scale regeneration lives in
``pytest benchmarks/ --benchmark-only``; this script is the quick
smoke-check a reader runs first.

Run:  python examples/reproduce_paper.py
"""

import tempfile
import time

import numpy as np

from repro.bench import (
    APPLICATIONS,
    app_kernel_map,
    format_table,
    strategy_rows,
    strategy_specs,
)
from repro.core import uniform_map
from repro.geostats import SyntheticField, fit_mle
from repro.perfmodel import SUMMIT_NODE, verify_table2
from repro.perfmodel.analytic import analytic_cholesky
from repro.precision import Precision, gemm_relative_error
from repro.runtime import Platform
from repro.sweep import run_sweep


def main() -> None:
    t0 = time.time()
    rows = []

    # Table II calibration
    rep = verify_table2()
    rows.append(["Table II (V100 move/GEMM times)", "exact measurements",
                 f"all 30 cells within {rep.max_rel_error * 100:.0f}%",
                 "PASS" if rep.ok else "FAIL"])

    # Fig. 1 accuracy ordering
    errs = {p: gemm_relative_error(512, p) for p in
            (Precision.FP32, Precision.FP16_32, Precision.FP16)}
    ok = errs[Precision.FP32] < errs[Precision.FP16_32] <= errs[Precision.FP16]
    rows.append(["Fig. 1 (GEMM error ordering)", "FP32 < FP16_32 ≤ FP16",
                 " < ".join(f"{e:.1e}" for e in errs.values()), "PASS" if ok else "FAIL"])

    # Fig. 5-style: tight accuracy ≡ exact MLE
    ds = SyntheticField.matern_2d(n=196, range_=0.15, smoothness=0.5, seed=1).sample()
    exact = fit_mle(ds, exact=True, tile_size=28, max_evals=120, xtol=1e-6, restarts=0)
    tight = fit_mle(ds, accuracy=1e-9, tile_size=28, max_evals=120, xtol=1e-6, restarts=0)
    ok = np.allclose(exact.theta_hat, tight.theta_hat, rtol=0.05, atol=0.01)
    rows.append(["Figs. 5/6 (tight u_req ≡ exact)", "estimates coincide",
                 f"θ̂ diff {max(abs(a - b) for a, b in zip(exact.theta_hat, tight.theta_hat)):.1e}",
                 "PASS" if ok else "FAIL"])

    # Fig. 7: app precision profiles (small n keeps this fast)
    fr = app_kernel_map(APPLICATIONS["3d-sqexp"], 32768, 2048, samples_per_tile=16
                        ).tile_fractions()
    high = (fr.get(Precision.FP64, 0) + fr.get(Precision.FP32, 0)) * 100
    rows.append(["Fig. 7 (3D-sqexp conservative)", ">60% FP64+FP32",
                 f"{high:.0f}% FP64+FP32", "PASS" if high > 60 else "FAIL"])

    # Fig. 8: STC vs TTC on one V100, six sweep points
    with tempfile.TemporaryDirectory() as cache_dir:
        result = run_sweep(strategy_specs("V100", (32768,)), cache_dir=cache_dir,
                           progress_seconds=None)
    tflops = {(r[0], r[3]): r[4] for r in strategy_rows(result)}
    ratio = tflops[("FP64/FP16", "STC")] / tflops[("FP64/FP16", "TTC")]
    speedup = tflops[("FP64/FP16", "STC")] / tflops[("FP64", "STC")]
    rows.append(["Fig. 8 (STC/TTC on V100)", "up to 1.3x", f"{ratio:.2f}x",
                 "PASS" if 1.05 < ratio < 1.6 else "FAIL"])
    rows.append(["Fig. 8 (FP64/FP16 vs FP64)", ">4x", f"{speedup:.1f}x",
                 "PASS" if speedup > 4 else "FAIL"])

    # Fig. 12c: MP effect at 384 GPUs (analytic)
    plat = Platform(node=SUMMIT_NODE, n_nodes=64)
    nt = 128
    t64 = analytic_cholesky(nt * 2048, 2048, uniform_map(nt, Precision.FP64), plat)
    kmap = app_kernel_map(APPLICATIONS["2d-sqexp"], nt * 2048, 2048, samples_per_tile=16)
    tmp = analytic_cholesky(nt * 2048, 2048, kmap, plat)
    sp = t64.seconds / tmp.seconds
    rows.append(["Fig. 12c (2D-sqexp @384 GPUs)", "up to 3.2x vs FP64", f"{sp:.2f}x",
                 "PASS" if 1.3 < sp < 4.5 else "FAIL"])

    print(format_table(["experiment", "paper claim", "measured", "verdict"], rows,
                       title="Reproduction scoreboard (reduced scale)"))
    print(f"\ncompleted in {time.time() - t0:.0f}s — full regeneration: "
          f"pytest benchmarks/ --benchmark-only")


if __name__ == "__main__":
    main()
