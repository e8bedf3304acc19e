"""The ``RunStats`` document, pinned whole.

``tests/data/runstats_golden.json`` holds ``RunStats.to_dict()`` of two
runs, written before the per-link fields became one (link, precision)
map.  The sweep cache, perfbench's pins and the ``results/*.csv``
drivers all read this document, so its key-sorted JSON must not move by
a byte: a layout change that alters it is a cache-schema change, not a
refactor.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.precision_map import two_precision_map, uniform_map
from repro.core.solver import simulate_cholesky
from repro.perfmodel.gpus import NodeSpec, V100
from repro.precision import Precision
from repro.runtime import Platform

GOLDEN = Path(__file__).parent / "data" / "runstats_golden.json"


def golden_runs():
    """``{name: RunStats}`` of the two pinned runs."""
    nb = 512
    # in memory, 2 nodes × 2 GPUs: h2d, d2h and NIC traffic in two precisions
    in_memory = simulate_cholesky(
        8 * nb, nb, two_precision_map(8, Precision.FP16_32),
        Platform.of_gpus(V100, gpus_per_node=2, n_nodes=2), record_events=False,
    )
    # out of core: a GPU of 6 tiles and a host of 10 spill through the disk tier
    tile = nb * nb * 8
    gpu = dataclasses.replace(V100, memory_bytes=6 * tile)
    tight = Platform(NodeSpec("tight", gpu, 1, 10 * tile, 25e9, 1.5e-6), n_nodes=1)
    out_of_core = simulate_cholesky(
        12 * nb, nb, uniform_map(12, Precision.FP64), tight,
        policy="ooc-static", record_events=False,
    )
    return {"in_memory_2x2": in_memory.stats, "out_of_core": out_of_core.stats}


@pytest.mark.parametrize("name", ["in_memory_2x2", "out_of_core"])
def test_runstats_document_is_byte_identical(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    stats = golden_runs()[name]
    assert json.dumps(stats.to_dict(), sort_keys=True) == json.dumps(golden, sort_keys=True)


def test_golden_covers_every_link():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["in_memory_2x2"]["nic_bytes"] > 0
    assert golden["out_of_core"]["n_spills"] == 354
    assert golden["out_of_core"]["disk_write_bytes"] > 0
