"""Out-of-core runs pinned whole: stats, makespan, commit order, trace.

``tests/data/ooc_golden.json`` holds, for three capacity-starved
platforms, every policy's run through :func:`simulate` and
:func:`simulate_replay` (and the frontier-local policies' run through
:func:`simulate_stream`): ``RunStats.to_dict()``, the makespan, a
SHA-256 of ``commit_order`` and ``Trace.content_hash()``.  The pinned
``PINNED_*`` constants and ``runstats_golden.json`` cover an in-memory
run and one out-of-core ``RunStats``; this file covers what the memory
tiers decide under pressure — the GPU and host LRUs skipping protected
payloads, write-back, spill and disk fetch — down to the event stream.

Regenerate (only for a deliberate model change) with
``PYTHONPATH=src python tests/test_ooc_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core import build_cholesky_dag, default_stream_lookahead, stream_cholesky_tasks
from repro.core.precision_map import two_precision_map, uniform_map
from repro.perfmodel.gpus import NodeSpec, V100
from repro.precision import Precision
from repro.runtime import POLICY_NAMES, Platform, simulate
from repro.runtime.simulator import simulate_replay, simulate_stream

GOLDEN = Path(__file__).parent / "data" / "ooc_golden.json"

STREAM_POLICIES = ("panel-first", "fifo", "ooc-static")


def _platform(nb, gpu_tiles, host_tiles, gpus_per_node=1, n_nodes=1):
    tile = nb * nb * 8
    gpu = dataclasses.replace(V100, memory_bytes=gpu_tiles * tile)
    node = NodeSpec("ooc", gpu, gpus_per_node, host_tiles * tile, 25e9, 1.5e-6)
    return Platform(node=node, n_nodes=n_nodes)


#: name -> (n, nb, kernel map, platform)
CASES = {
    # the out-of-core platform of runstats_golden.json: 6-tile GPU, 10-tile host
    "nt12": (12 * 512, 512, uniform_map(12, Precision.FP64), _platform(512, 6, 10)),
    # the tight platform of the scheduler property battery: two 3-tile GPUs
    # over a 4-tile host, where the LRUs skip protected payloads constantly
    "tight_2x3": (
        16 * 64, 64, two_precision_map(16, Precision.FP16_32), _platform(64, 3, 4, gpus_per_node=2),
    ),
    # ragged last tile, two nodes: NIC staging and replica drops on the host
    "ragged_2node": (
        10 * 256 - 77, 256, two_precision_map(10, Precision.FP32), _platform(256, 5, 12, n_nodes=2),
    ),
}


def _digest(rep) -> dict:
    doc = {
        "stats": rep.stats.to_dict(),
        "makespan": rep.makespan,
        "commit_order_sha256": hashlib.sha256(repr(rep.commit_order).encode()).hexdigest(),
        "trace_hash": rep.trace.content_hash(),
    }
    return json.loads(json.dumps(doc, sort_keys=True))


def case_runs(name: str) -> dict:
    """``{"<policy>/<entry point>": digest}`` for one case."""
    n, nb, kmap, platform = CASES[name]
    graph = build_cholesky_dag(n, nb, kmap, grid=platform.process_grid()).graph
    runs = {}
    for policy in POLICY_NAMES:
        live = simulate(graph, platform, nb, policy=policy)
        runs[f"{policy}/simulate"] = _digest(live)
        replay = simulate_replay(graph, platform, nb, live.commit_order, source_policy=policy)
        runs[f"{policy}/replay"] = _digest(replay)
        if policy in STREAM_POLICIES:
            source = stream_cholesky_tasks(n, nb, kmap, grid=platform.process_grid())
            streamed = simulate_stream(
                source, platform, nb, lookahead=default_stream_lookahead(kmap.nt), policy=policy
            )
            runs[f"{policy}/stream"] = _digest(streamed)
    return runs


@pytest.mark.parametrize("name", sorted(CASES))
def test_ooc_runs_match_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    runs = case_runs(name)
    assert sorted(runs) == sorted(golden)
    for run, digest in runs.items():
        assert digest == golden[run], run


def test_golden_is_out_of_core():
    """Every case evicts on both tiers and spills; the tight one stages
    nothing through a NIC, the two-node one does."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name, runs in golden.items():
        for run, digest in runs.items():
            stats = digest["stats"]
            assert stats["n_evictions"] > 0 and stats["n_host_evictions"] > 0, (name, run)
            assert stats["n_spills"] > 0 and stats["disk_read_bytes"] > 0, (name, run)
    assert golden["ragged_2node"]["panel-first/simulate"]["stats"]["nic_bytes"] > 0


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    GOLDEN.write_text(
        json.dumps({name: case_runs(name) for name in sorted(CASES)}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
