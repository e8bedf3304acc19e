"""Spatial ordering as an experiment axis: the 16×16 reference ordering
experiment and the sweep ``ordering`` axis (docs/DATAPLANE.md)."""

import numpy as np
import pytest

from repro.geostats import Dataset, build_tiled_covariance, dataplane as dp
from repro.geostats.covariance import Matern, get_model
from repro.geostats.locations import generate_locations


@pytest.mark.slow
def test_reference_config_hilbert_beats_random():
    """On the 16×16 reference config (n=1024, nb=64, 2d-matern adaptive),
    Hilbert ordering must yield ≥ as many low-precision tiles as random
    and move ≤ as many bytes (the repro-analyze ledger total)."""
    from repro.bench.apps import app_kernel_map
    from repro.core import simulate_cholesky
    from repro.obs.analysis import build_ledger
    from repro.perfmodel import GPU_BY_NAME, NodeSpec
    from repro.precision import Precision
    from repro.runtime import Platform

    n, nb = 1024, 64
    locs = generate_locations(n, 2, seed=0, sort=False)
    node = NodeSpec("test", GPU_BY_NAME["V100"], 1, 256e9, 25e9, 1.5e-6)
    platform = Platform(node=node, n_nodes=1)

    results = {}
    for ordering in ("random", "hilbert"):
        ordered = dp.order_locations(locs, ordering, seed=0)
        kmap = app_kernel_map("2d-matern", n, nb, samples_per_tile=32,
                              seed=0, locations=ordered, ordering=None)
        report = simulate_cholesky(n, nb, kmap, platform, record_events=True)
        ledger = build_ledger(report.trace.events, stats=report.stats)
        results[ordering] = {
            "low": kmap.count_below(Precision.FP32),
            "band": kmap.fp64_band_width(),
            "bytes": ledger.total_bytes,
        }

    assert results["hilbert"]["low"] >= results["random"]["low"]
    assert results["hilbert"]["band"] <= results["random"]["band"]
    assert results["hilbert"]["bytes"] <= results["random"]["bytes"]
    # and the effect is real, not a tie
    assert results["hilbert"]["low"] > results["random"]["low"]
    assert results["hilbert"]["bytes"] < results["random"]["bytes"]


def test_sweep_ordering_axis_round_trip():
    """The ordering axis flows grid → spec → cache key → result dict."""
    from repro.sweep import SweepGrid
    from repro.sweep.engine import execute_spec

    grid = SweepGrid.from_axes(n=256, nb=64, config="adaptive",
                               app="2d-matern", ordering=["random", "hilbert"])
    specs = grid.expand()
    assert [s.ordering for s in specs] == ["random", "hilbert"]
    assert specs[0].cache_key() != specs[1].cache_key()
    assert "ord=hilbert" in specs[1].label
    res = execute_spec(specs[1].to_dict())
    assert res["ordering"] == "hilbert"
    assert 0.0 < res["ordering_score"] < 0.5
    assert res["n_low_precision_tiles"] >= 0
    assert res["fp64_band_width"] >= 1


# -- reorder consistency (the bit-identical covariance fix) ---------------


def test_permuted_then_reordered_covariance_bit_identical():
    """A shuffled dataset, spatially reordered, must build the same
    covariance bit-for-bit as one generated already in that order — the
    permutation has to travel with the observations."""
    n, nb = 192, 32
    model = get_model("2d-matern")
    theta = (1.0, 0.1, 0.5)
    locs = generate_locations(n, 2, seed=11, sort=False)
    rng = np.random.default_rng(2)
    z = rng.standard_normal(n)
    direct = Dataset(locations=locs, z=z, model=model)
    direct_ordered = dp.reorder_dataset(direct, "hilbert")

    perm = rng.permutation(n)
    shuffled = dp.permute_dataset(direct, perm)
    recovered = dp.reorder_dataset(shuffled, "hilbert")

    assert recovered.locations.tobytes() == direct_ordered.locations.tobytes()
    assert recovered.z.tobytes() == direct_ordered.z.tobytes()

    a = build_tiled_covariance(direct_ordered.locations, model, theta, nb)
    b = build_tiled_covariance(recovered.locations, model, theta, nb)
    for i in range(a.nt):
        for j in range(i + 1):
            assert a.get(i, j).tobytes() == b.get(i, j).tobytes()


def test_reorder_dataset_keeps_pairs_together():
    n = 128
    locs = generate_locations(n, 2, seed=5, sort=False)
    z = np.arange(n, dtype=np.float64)
    ds = Dataset(locations=locs, z=z, model=Matern(dim=2))
    out = dp.reorder_dataset(ds, "hilbert")
    # every (location, z) pair survives: z values are unique indices
    lookup = {int(v): i for i, v in enumerate(z)}
    for loc, val in zip(out.locations, out.z):
        assert np.array_equal(loc, locs[lookup[int(val)]])


def test_morton_default_unchanged():
    """order_locations(..., 'morton') reproduces generate_locations(sort=True)
    bit-for-bit — the sweep default is backwards-compatible."""
    pts_sorted = generate_locations(256, 2, seed=9, sort=True)
    pts_raw = generate_locations(256, 2, seed=9, sort=False)
    assert dp.order_locations(pts_raw, "morton").tobytes() == pts_sorted.tobytes()


@pytest.mark.parametrize("ordering", ["hilbert", "morton", "random"])
def test_csv_ingest_then_reorder_likelihood_bit_identical(tmp_path, ordering):
    """The one ingest-and-order path: a shuffled dataset saved to CSV,
    loaded and reordered evaluates ℓ(θ_true) to the bits of the same
    dataset reordered without the trip through the file."""
    from repro.core import MPConfig
    from repro.geostats import SyntheticField, log_likelihood
    from repro.geostats.io import load_dataset_csv, save_dataset_csv

    ds = SyntheticField.matern_2d(n=256, range_=0.1, smoothness=0.5, seed=3).sample()
    shuffled = dp.permute_dataset(ds, np.random.default_rng(7).permutation(ds.n))
    path = save_dataset_csv(shuffled, str(tmp_path / "field.csv"))
    loaded = dp.reorder_dataset(load_dataset_csv(path, "2d-matern"), ordering, seed=1)
    direct = dp.reorder_dataset(shuffled, ordering, seed=1)

    assert loaded.locations.tobytes() == direct.locations.tobytes()
    assert loaded.z.tobytes() == direct.z.tobytes()
    config = MPConfig(accuracy=1e-6, tile_size=32)
    via_file = log_likelihood(loaded, ds.theta_true, config)
    assert via_file.feasible
    assert via_file.value == log_likelihood(direct, ds.theta_true, config).value
