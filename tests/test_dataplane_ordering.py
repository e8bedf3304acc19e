"""Spatial ordering as an experiment axis: the 16×16 reference ordering
experiment and the sweep ``ordering`` axis (docs/DATAPLANE.md)."""

import pytest

from repro.geostats import dataplane as dp
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
