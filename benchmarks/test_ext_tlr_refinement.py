"""Extension benches: TLR compression (Section VIII future work) and
mixed-precision iterative refinement (related work [33]).

* TLR — for a Matérn covariance, sweep the compression tolerance and
  report memory compression, mean rank, factorization residual, and
  flop savings; the mixed-precision + TLR combination must stay within
  its precision budget.
* Iterative refinement — an FP16-heavy factorization plus FP64
  refinement recovers working accuracy at a fraction of the simulated
  FP64 factorization time (the energy argument of Haidar et al.).
"""

import numpy as np

from repro.bench import format_table, write_csv
from repro.core import (
    build_precision_map,
    mp_cholesky,
    refine_solve,
    two_precision_map,
    uniform_map,
)
from repro.geostats.covariance import Matern
from repro.geostats.generator import build_tiled_covariance
from repro.geostats.locations import generate_locations
from repro.precision import Precision
from repro.sweep import RunSpec, price_run
from repro.tiles.norms import tile_norms
from repro.tiles.tilematrix import TiledSymmetricMatrix
from repro.tlr import TLRSymmetricMatrix, tlr_cholesky


def _matern_matrix(n=400, nb=50):
    locs = generate_locations(n, 2, seed=3)
    cov = build_tiled_covariance(locs, Matern(dim=2), (1.0, 0.1, 0.5), nb)
    dense = cov.to_dense() + 0.01 * np.eye(n)
    return TiledSymmetricMatrix.from_dense(dense, nb), dense


def test_ext_tlr_sweep(once):
    def run():
        mat, dense = _matern_matrix()
        rows = []
        for tol in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
            tlr = TLRSymmetricMatrix.from_tiled(mat, tol)
            res = tlr_cholesky(tlr)
            L = np.tril(res.factor.to_dense())
            rel = np.linalg.norm(L @ L.T - dense) / np.linalg.norm(dense)
            rows.append([tol, tlr.compression_ratio(), tlr.mean_rank(), rel,
                         res.flop_savings])
        return rows

    rows = once(run)
    print()
    print(format_table(
        ["tol", "compression x", "mean rank", "residual", "flop savings x"],
        rows, title="Extension: TLR Cholesky sweep (Matérn, n=400, nb=50)",
    ))
    write_csv("ext_tlr_sweep", ["tol", "compression", "mean_rank", "residual",
                                "flop_savings"], rows)
    # looser tolerance → more compression, lower rank, bigger flop savings
    comp = [r[1] for r in rows]
    ranks = [r[2] for r in rows]
    resid = [r[3] for r in rows]
    savings = [r[4] for r in rows]
    assert all(a <= b * 1.001 for a, b in zip(comp, comp[1:]))
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))
    assert all(a <= b * 10 for a, b in zip(resid, resid[1:]))  # monotone-ish
    assert savings[-1] > savings[0]
    # residual tracks the tolerance within two orders of magnitude
    for (tol, _c, _r, rel, _s) in rows:
        assert rel < tol * 100


def test_ext_mixed_precision_tlr(once):
    def run():
        mat, dense = _matern_matrix()
        kmap = build_precision_map(tile_norms(mat), 1e-4)
        tlr = TLRSymmetricMatrix.from_tiled(mat, 1e-8)
        plain = tlr_cholesky(tlr)
        mixed = tlr_cholesky(tlr, kernel_map=kmap)
        out = []
        for name, res in (("TLR", plain), ("MP+TLR", mixed)):
            L = np.tril(res.factor.to_dense())
            out.append([name, np.linalg.norm(L @ L.T - dense) / np.linalg.norm(dense),
                        res.max_rank])
        return out

    rows = once(run)
    print()
    print(format_table(["variant", "residual", "max rank"], rows,
                       title="Extension: mixed-precision + TLR"))
    tlr_only = rows[0][1]
    mp_tlr = rows[1][1]
    assert tlr_only < mp_tlr < 1e-2  # precision budget dominates, still accurate


def test_ext_iterative_refinement(once):
    def run():
        mat, dense = _matern_matrix()
        rng = np.random.default_rng(0)
        b = rng.standard_normal(mat.n)
        nt = mat.nt
        rows = []
        # FP64 direct
        res64 = mp_cholesky(mat, uniform_map(nt, Precision.FP64))
        ref = refine_solve(mat, res64, b)
        rows.append(["FP64 direct", ref.iterations, ref.final_residual])
        # FP16-heavy factor + refinement
        res16 = mp_cholesky(mat, two_precision_map(nt, Precision.FP16))
        ref16 = refine_solve(mat, res16, b, tol=1e-12, max_iterations=60)
        rows.append(["FP64/FP16 + IR", ref16.iterations, ref16.final_residual])
        # simulated factorization times at paper scale for the energy claim
        t64, t16 = (price_run(RunSpec(n=49152, nb=2048, config=config))[0].makespan
                    for config in ("FP64", "FP64/FP16"))
        return rows, t64, t16, ref16.converged

    (rows, t64, t16, converged) = once(run)
    print()
    print(format_table(["solver", "iterations", "final residual"], rows,
                       title="Extension: iterative refinement"))
    print(f"simulated factor time @49k on V100: FP64 {t64:.2f}s vs FP64/FP16 {t16:.2f}s")
    assert converged
    assert rows[1][2] < 1e-11  # FP64 accuracy recovered from the cheap factor
    assert t16 < t64 / 2  # the factorization that feeds IR is much cheaper
