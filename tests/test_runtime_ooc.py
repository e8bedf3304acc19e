"""Out-of-core scheduling: bounded host memory, the disk spill tier, the
``ooc-static`` policy, and replays of a run's commit order.

The capacity-constrained platform used throughout shrinks the V100 to a
dozen tiles of device memory and the host to a few dozen, so evictions
cascade through the host LRU into the disk tier — the regime the
out-of-core policy exists for.  The paper-scale test prices the 798 720²
Fig. 11 matrix (5.1 TB at FP64) against 352 GB of device+host memory.
"""

import dataclasses
import json

import pytest

from repro.core.precision_map import two_precision_map
from repro.core.dag_cholesky import build_cholesky_dag
from repro.core.solver import simulate_cholesky
from repro.obs import write_perfetto_trace
from repro.obs.analysis import build_ledger
from repro.perfmodel.gpus import NodeSpec, V100
from repro.precision import Precision
from repro.runtime import POLICY_NAMES, Platform
from repro.runtime.simulator import simulate_replay

NB = 128
TILE_BYTES = NB * NB * 8


def _tight_platform(gpu_tiles=12, host_tiles=32, n_gpus=1, n_nodes=1):
    gpu = dataclasses.replace(V100, memory_bytes=gpu_tiles * TILE_BYTES)
    node = NodeSpec(
        name="tight",
        gpu=gpu,
        gpus_per_node=n_gpus,
        host_memory_bytes=host_tiles * TILE_BYTES,
        nic_bandwidth=25e9,
        nic_latency=1.5e-6,
    )
    return Platform(node=node, n_nodes=n_nodes)


def _run(policy, platform=None, n=2048, nb=NB, **kw):
    kmap = two_precision_map(-(-n // nb), Precision.FP16_32)
    return simulate_cholesky(n, nb, kmap, platform or _tight_platform(),
                             policy=policy, record_events=True, **kw)


def _traffic(stats) -> float:
    """Total data motion caused by capacity pressure and staging."""
    d = stats.to_dict()
    return (d["h2d_bytes"] + d["d2h_bytes"]
            + d["disk_read_bytes"] + d["disk_write_bytes"])


class TestDiskTier:
    def test_tight_host_spills_to_disk(self):
        rep = _run("panel-first")
        d = rep.stats.to_dict()
        assert d["n_host_evictions"] > 0
        assert d["n_spills"] > 0
        assert d["disk_write_bytes"] > 0
        assert d["disk_read_bytes"] > 0

    def test_ample_memory_never_touches_disk(self):
        node = NodeSpec("roomy", V100, 1, 256e9, 25e9, 1.5e-6)
        rep = _run("panel-first", platform=Platform(node=node, n_nodes=1))
        d = rep.stats.to_dict()
        assert d["n_host_evictions"] == 0
        assert d["n_spills"] == 0
        assert d["disk_read_bytes"] == 0.0
        assert d["disk_write_bytes"] == 0.0

    def test_disk_events_reconcile_with_ledger(self):
        rep = _run("panel-first")
        ledger = build_ledger(rep.trace.events, stats=rep.stats)
        assert ledger.reconcile(rep.stats) == []

    def test_disk_traffic_in_trace(self):
        rep = _run("panel-first")
        engines = {e.engine for e in rep.trace.events}
        assert "disk_write" in engines
        assert "disk_read" in engines

    def test_perfetto_gives_every_engine_its_own_row(self, tmp_path):
        """Both disk engines used to share tid 4: one row, two names."""
        rep = _run("panel-first")
        doc = json.loads(write_perfetto_trace(rep.trace.events, tmp_path / "t.json").read_text())
        names: dict[tuple[int, int], set[str]] = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "M" and ev["name"] == "thread_name":
                names.setdefault((ev["pid"], ev["tid"]), set()).add(ev["args"]["name"])
        assert all(len(engines) == 1 for engines in names.values())
        tid = {engine: t for (_pid, t), (engine,) in names.items()}
        assert tid["disk_read"] != tid["disk_write"]


    def test_host_smaller_than_a_working_set_is_rejected_with_a_message(self):
        """A GEMM's working set is four tiles: on a three-tile host a GPU
        write-back is shed from every tier (this used to surface as a
        ``KeyError`` about a vanished payload); four tiles still run."""
        from repro.core.precision_map import uniform_map

        nb, tile = 512, 512 * 512 * 8
        kmap = uniform_map(8, Precision.FP64)

        def tiny(host_tiles):
            gpu = dataclasses.replace(V100, memory_bytes=4 * tile)
            return Platform(NodeSpec("tiny", gpu, 1, host_tiles * tile, 25e9, 1.5e-6), n_nodes=1)

        with pytest.raises(ValueError, match=rf"host memory \({3 * tile} bytes\) cannot hold "
                                             r"a task's working set \(here \d payloads"):
            simulate_cholesky(8 * nb, nb, kmap, tiny(3))
        rep = simulate_cholesky(8 * nb, nb, kmap, tiny(4))
        assert rep.makespan == 0.34248074908278964  # the parent commit's, to the bit

    def test_a_payload_in_no_tier_is_named(self):
        """The same three-tile host: the payload its GPU wrote back and the
        host shed is named as ``(i, j, version, PRECISION)``, with its
        origin node."""
        from repro.core.precision_map import uniform_map

        nb, tile = 512, 512 * 512 * 8
        gpu = dataclasses.replace(V100, memory_bytes=4 * tile)
        tiny = Platform(NodeSpec("tiny", gpu, 1, 3 * tile, 25e9, 1.5e-6), n_nodes=1)
        with pytest.raises(ValueError, match=r"^payload \(3, 1, 1, FP64\) is in no tier of its "
                                             r"origin node 0: "):
            simulate_cholesky(8 * nb, nb, uniform_map(8, Precision.FP64), tiny)

    def test_negative_gpu_memory_is_rejected(self):
        """A 0-byte tier holds only a working set (tests/test_runtime_lru.py,
        the CLI tests); a negative one is a ValueError naming it."""
        gpu = dataclasses.replace(V100, memory_bytes=-1)
        platform = Platform(NodeSpec("negative", gpu, 1, 256e9, 25e9, 1.5e-6), n_nodes=1)
        with pytest.raises(ValueError, match=r"GPU memory capacity must be non-negative, got -1 "):
            _run("panel-first", platform=platform)


class TestOocStaticPolicy:
    def test_beats_baselines_under_capacity_pressure(self):
        """The acceptance bar: strictly less eviction+spill traffic than
        panel-first AND critical-path on the same starved platform."""
        reps = {pol: _run(pol) for pol in ("panel-first", "critical-path",
                                           "ooc-static")}
        traffic = {pol: _traffic(rep.stats) for pol, rep in reps.items()}
        assert traffic["ooc-static"] < traffic["panel-first"]
        assert traffic["ooc-static"] < traffic["critical-path"]
        # same work was done either way
        flops = {pol: rep.stats.total_flops for pol, rep in reps.items()}
        assert flops["ooc-static"] == pytest.approx(flops["panel-first"])

    def test_registered_and_in_memory_neutral(self):
        """With ample memory ooc-static degrades gracefully to a valid
        (and competitive) schedule."""
        assert "ooc-static" in POLICY_NAMES
        node = NodeSpec("roomy", V100, 1, 256e9, 25e9, 1.5e-6)
        platform = Platform(node=node, n_nodes=1)
        base = _run("panel-first", platform=platform)
        ooc = _run("ooc-static", platform=platform)
        assert ooc.stats.n_tasks == base.stats.n_tasks
        assert ooc.makespan <= 2.0 * base.makespan

    def test_paper_scale_symbolic(self):
        """798 720² (Fig. 11 scale): the 5.1 TB FP64 matrix factors
        through 352 GB of device+host memory; every spilled byte lands
        in the ledger exactly."""
        n, nb = 798_720, 20_480
        node = NodeSpec("summit-like", V100, 6, 256e9, 25e9, 1.5e-6)
        platform = Platform(node=node, n_nodes=1)
        kmap = two_precision_map(-(-n // nb), Precision.FP16_32)
        matrix_bytes = n * n * 8 / 2  # lower-triangular at FP64
        capacity = node.host_memory_bytes + 6 * V100.memory_bytes
        assert matrix_bytes > 5 * capacity  # genuinely out of core

        rep = simulate_cholesky(n, nb, kmap, platform, policy="ooc-static",
                                record_events=True)
        d = rep.stats.to_dict()
        assert d["n_tasks"] == 10_660
        assert d["n_spills"] > 0
        assert d["disk_read_bytes"] > 0
        assert build_ledger(rep.trace.events, stats=rep.stats).reconcile(rep.stats) == []


class TestReplayBitIdentity:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_replay_matches_live_run(self, policy):
        """Replaying a run's commit order on the held graph reproduces the
        live run bit for bit — makespan, full stats, and trace hash —
        without any ready-heap or policy-key work."""
        platform = _tight_platform()
        live = _run(policy, platform=platform)
        graph = build_cholesky_dag(2048, NB, two_precision_map(16, Precision.FP16_32),
                                   grid=platform.process_grid()).graph
        replay = simulate_replay(graph, platform, NB, live.commit_order, source_policy=policy)
        assert replay.makespan == live.makespan
        assert replay.stats.to_dict() == live.stats.to_dict()
        assert replay.trace.content_hash() == live.trace.content_hash()
        assert replay.policy == f"replay:{policy}"

    def test_replay_rejects_invalid_orders(self):
        platform = _tight_platform()
        kmap = two_precision_map(4, Precision.FP16_32)
        dag = build_cholesky_dag(4 * NB, NB, kmap, grid=platform.process_grid())
        n_tasks = len(dag.graph)
        good = list(range(n_tasks))
        with pytest.raises(ValueError):  # dependency-violating order
            simulate_replay(dag.graph, platform, NB, list(reversed(good)))
        with pytest.raises(ValueError):  # duplicate tid
            simulate_replay(dag.graph, platform, NB, [good[0]] + good)
        with pytest.raises(ValueError):  # truncated order
            simulate_replay(dag.graph, platform, NB, good[:-1])
