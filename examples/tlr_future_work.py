#!/usr/bin/env python3
"""The paper's future work, realised: mixed precision + tile low-rank.

Section VIII: "we intend to ... combin[e] the strengths of mixed
precisions with tile low-rank (TLR) computations to address the curse of
dimensionality."  This example factors the same Matérn covariance four
ways — dense FP64, dense mixed-precision, TLR, and mixed-precision TLR —
and compares memory footprint, arithmetic volume, and factorization
accuracy, plus an iterative-refinement solve that recovers FP64 accuracy
from the cheapest factor.

Run:  python examples/tlr_future_work.py
"""

import numpy as np

from repro.bench import format_table
from repro.core import (
    build_precision_map,
    mp_cholesky,
    refine_solve,
    two_precision_map,
)
from repro.geostats.covariance import Matern
from repro.geostats.generator import build_tiled_covariance
from repro.geostats.locations import generate_locations
from repro.precision import Precision
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix
from repro.tlr import TLRSymmetricMatrix, tlr_cholesky


def main() -> None:
    n, nb = 600, 100
    locs = generate_locations(n, 2, seed=13)
    cov = build_tiled_covariance(locs, Matern(dim=2), (1.0, 0.2, 0.5), nb)
    dense = cov.to_dense() + 0.01 * np.eye(n)
    mat = TiledSymmetricMatrix.from_dense(dense, nb)
    kmap = build_precision_map(tile_norms(mat), 1e-4)

    rows = []

    # dense FP64
    res = mp_cholesky(mat)
    l = np.tril(res.factor.to_dense())
    rows.append(["dense FP64", res.factor.storage_bytes() / 1e6,
                 np.linalg.norm(l @ l.T - dense) / np.linalg.norm(dense), "-"])

    # dense mixed precision (the paper's contribution)
    res_mp = mp_cholesky(mat, kmap)
    l = np.tril(res_mp.factor.to_dense())
    rows.append(["dense MP (1e-4)", res_mp.factor.storage_bytes() / 1e6,
                 np.linalg.norm(l @ l.T - dense) / np.linalg.norm(dense), "-"])

    # TLR
    tlr = TLRSymmetricMatrix.from_tiled(mat, 1e-6)
    res_tlr = tlr_cholesky(tlr)
    l = np.tril(res_tlr.factor.to_dense())
    rows.append(["TLR (1e-6)", tlr.memory_bytes() / 1e6,
                 np.linalg.norm(l @ l.T - dense) / np.linalg.norm(dense),
                 f"{res_tlr.flop_savings:.2f}x"])

    # MP + TLR: the future-work combination
    res_both = tlr_cholesky(tlr, kernel_map=kmap)
    l = np.tril(res_both.factor.to_dense())
    rows.append(["MP + TLR", tlr.memory_bytes() / 1e6,
                 np.linalg.norm(l @ l.T - dense) / np.linalg.norm(dense),
                 f"{res_both.flop_savings:.2f}x"])

    print(format_table(
        ["variant", "storage MB", "factor residual", "flop savings"],
        rows, title=f"Matérn covariance, n={n}, nb={nb} (mean TLR rank "
                    f"{tlr.mean_rank():.1f})",
    ))

    # cheap factor + iterative refinement → FP64-accurate solve
    rng = np.random.default_rng(1)
    b = rng.standard_normal(n)
    cheap = mp_cholesky(mat, two_precision_map(mat.nt, Precision.FP16))
    ref = refine_solve(mat, cheap, b, tol=1e-12)
    print(f"\nFP64/FP16 factor + iterative refinement: residual "
          f"{ref.final_residual:.2e} in {ref.iterations} iterations "
          f"(converged={ref.converged})")
    print("\nNote: at the paper's tile size (2048) the rank/nb ratio drops "
          "by ~20x,\nso TLR's memory and flop savings grow accordingly.")


if __name__ == "__main__":
    main()
