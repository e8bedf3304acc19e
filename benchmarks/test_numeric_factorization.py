"""Numeric-factorization benchmark: tiles at rest against the float64 round trip.

A ratio on one host, so it holds anywhere: on the ``mle_adaptive``
perfbench matrix (n = 1024, nb = 64, weak 2D-sqexp, ``u_req`` = 1e-4:
all four adaptive formats, most tiles FP16) ``mp_cholesky`` must factor
at least 1.3× faster than the loop it replaced
(``tests/cholesky_numeric_oracle.py``: every tile through float64
``get``/``set`` around every kernel, ``C`` re-rounded at every FP16
update) — and return the same factor, bit for bit.
"""

from __future__ import annotations

import time

from repro.core.cholesky import mp_cholesky
from repro.core.config import MPConfig
from repro.core.conversion import build_comm_precision_map
from repro.core.precision_map import build_precision_map
from repro.geostats.generator import SyntheticField, build_tiled_covariance
from repro.tiles.norms import tile_norms

from tests.cholesky_numeric_oracle import mp_cholesky_oracle

N, NB = 1024, 64
SPEEDUP_FLOOR = 1.3
PAIRS = 5


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_rest_dtype_loop_beats_the_float64_round_trip(benchmark):
    """Acceptance: ``mp_cholesky`` ≥ 1.3× the oracle loop, equal factor."""
    ds = SyntheticField.sqexp_2d(N, 1.0, 0.03, seed=0, nugget=0.01).sample()
    mat = build_tiled_covariance(ds.locations, ds.model, ds.theta_true, NB, nugget=ds.nugget)
    kmap = build_precision_map(tile_norms(mat), 1e-4, MPConfig().formats)
    cmap = build_comm_precision_map(kmap)

    def new():
        return mp_cholesky(mat, kmap, comm_map=cmap)

    def old():
        return mp_cholesky_oracle(mat, kmap, comm_map=cmap)

    new(), old()  # warm-up: imports, BLAS threads, the allocator
    # alternating pairs share the host's speed; the best of each side is its undisturbed time
    t_new = t_old = float("inf")
    for pair in range(PAIRS):
        for side in (new, old) if pair % 2 else (old, new):
            seconds, res = _timed(side)
            if side is new:
                t_new, got = min(t_new, seconds), res
            else:
                t_old, want = min(t_old, seconds), res
    benchmark(new)

    assert got.kernel_counts == want.kernel_counts
    for t in want.factor.lower_indices():
        assert got.factor.tiles[t].dtype == want.factor.tiles[t].dtype
        assert got.factor.tiles[t].tobytes() == want.factor.tiles[t].tobytes(), t
    speedup = t_old / t_new
    print(f"\nn={N} nb={NB} ({sum(want.kernel_counts.values())} kernels): float64 round trip "
          f"{1e3 * t_old:.1f} ms  tiles at rest {1e3 * t_new:.1f} ms  speedup {speedup:.2f}x")
    assert speedup >= SPEEDUP_FLOOR, (
        f"mp_cholesky only {speedup:.2f}x faster than the float64-round-trip loop (need ≥ {SPEEDUP_FLOOR}x)"
    )
