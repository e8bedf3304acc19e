"""Covariance-build benchmarks: one Bessel table per θ, geometry once.

Self-relative floors, so they hold on any host: the Matérn build at a
generic ν (0.9: ``log K_ν`` read from a table on a log-distance grid) must
be at least 3× faster than the test tree's oracle, which calls
``scipy.special.kv`` on every entry of every tile, on the same locations;
the smooth ν = 1, read from the same table, at least 1.3× faster than the
same build through ``scipy.special.k1`` (the oracle's ``MaternK1``); and a
build that finds its distances on the ``Dataset`` must beat the one that
had to compute them.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import write_csv
from repro.geostats.covariance import Matern
from repro.geostats.generator import Dataset, build_tiled_covariance
from repro.geostats.locations import generate_locations
from tests.covariance_oracle import MaternK1, build_tiled_covariance_oracle

N, NB = 1024, 128
TABLE_SPEEDUP_FLOOR = 3.0
SMOOTH_SPEEDUP_FLOOR = 1.3


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_general_nu_table_beats_kv(benchmark):
    """Acceptance: ν = 0.9 builds ≥ 3× faster than the ``kv`` oracle at n = 1,024."""
    locs, model = generate_locations(N, 2, seed=0), Matern(dim=2)
    seconds = {
        nu: _best_of(lambda nu=nu: build_tiled_covariance(locs, model, (1.0, 0.03, nu), NB))
        for nu in (0.5, 0.9, 1.0)
    }
    oracle = _best_of(lambda: build_tiled_covariance_oracle(locs, model, (1.0, 0.03, 0.9), NB))
    benchmark(build_tiled_covariance, locs, model, (1.0, 0.03, 0.9), NB)

    entries = N * (N - 1) // 2
    write_csv(
        "covariance_build", ["nu", "n", "seconds", "ns_per_entry"],
        [[nu, N, s, 1e9 * s / entries] for nu, s in seconds.items()],
    )
    speedup = oracle / seconds[0.9]
    print(f"\nn={N}: " + "  ".join(f"ν={nu} {s * 1e3:.1f} ms" for nu, s in seconds.items())
          + f"  kv oracle at ν=0.9 {oracle * 1e3:.1f} ms ({speedup:.1f}x)")
    assert speedup >= TABLE_SPEEDUP_FLOOR, (
        f"ν=0.9 build only {speedup:.1f}x faster than the kv oracle (need ≥ {TABLE_SPEEDUP_FLOOR}x)"
    )


def test_smooth_nu_table_beats_k1():
    """Acceptance: ν = 1 builds ≥ 1.3× faster through the table than through ``k1``."""
    locs, theta = generate_locations(N, 2, seed=0), (1.0, 0.03, 1.0)
    table = _best_of(lambda: build_tiled_covariance(locs, Matern(dim=2), theta, NB))
    k1 = _best_of(lambda: build_tiled_covariance(locs, MaternK1(dim=2), theta, NB))
    speedup = k1 / table
    print(f"\nn={N}: ν=1 table {table * 1e3:.1f} ms, k1 {k1 * 1e3:.1f} ms ({speedup:.2f}x)")
    assert speedup >= SMOOTH_SPEEDUP_FLOOR, (
        f"ν=1 build only {speedup:.2f}x faster than k1 (need ≥ {SMOOTH_SPEEDUP_FLOOR}x)"
    )


def test_second_build_on_a_dataset_reuses_the_distances():
    """The first build on a Dataset pays for the geometry; later ones do not."""
    locs, model, theta = generate_locations(N, 2, seed=0), Matern(dim=2), (1.0, 0.03, 0.5)

    def build(ds: Dataset) -> None:
        build_tiled_covariance(ds.locations, model, theta, NB, distances=ds.tile_distances(NB))

    def first() -> None:
        build(Dataset(locs, np.zeros(N), model))

    warm = Dataset(locs, np.zeros(N), model)
    build(warm)
    t_first, t_again = _best_of(first), _best_of(lambda: build(warm))
    print(f"\nn={N}: first build {t_first * 1e3:.1f} ms, with kept distances {t_again * 1e3:.1f} ms")
    assert t_again < t_first
