"""Unit and behavioural tests for the discrete-event simulator."""

import pytest

from repro.core.config import ConversionStrategy
from repro.core.precision_map import two_precision_map, uniform_map
from repro.core.solver import simulate_cholesky
from repro.perfmodel.gpus import GPUSpec, NodeSpec, V100
from repro.perfmodel.kernels import KernelKind, kernel_time
from repro.precision import Precision
from repro.runtime.platform import Platform

NB = 512


def _platform(n_gpus=1, n_nodes=1, gpu=V100, host_memory=256e9):
    node = NodeSpec(
        name="test",
        gpu=gpu,
        gpus_per_node=n_gpus,
        host_memory_bytes=host_memory,
        nic_bandwidth=25e9,
        nic_latency=1.5e-6,
    )
    return Platform(node=node, n_nodes=n_nodes)


def _kmap(nt, prec):
    return uniform_map(nt, prec) if prec == Precision.FP64 else two_precision_map(nt, prec)


def _run(nt=6, prec=Precision.FP64, platform=None, strategy=ConversionStrategy.AUTO,
         nb=NB, **kw):
    platform = platform or _platform()
    return simulate_cholesky(nt * nb, nb, _kmap(nt, prec), platform, strategy=strategy, **kw)


def _stream(nt, lookahead, prec=Precision.FP64, **kw):
    """A streamed run on one GPU under an emission window of ``lookahead``."""
    from repro.core import stream_cholesky_tasks
    from repro.runtime.simulator import simulate_stream

    source = stream_cholesky_tasks(nt * NB, NB, _kmap(nt, prec))
    return simulate_stream(source, _platform(), NB, lookahead=lookahead, **kw)


class TestBasics:
    def test_all_tasks_execute(self):
        rep = _run(nt=5)
        nt = 5
        expected = nt + 2 * (nt * (nt - 1) // 2) + nt * (nt - 1) * (nt - 2) // 6
        assert rep.stats.n_tasks == expected
        assert len(rep.task_end) == expected

    def test_makespan_bounds(self):
        """Makespan ≥ serial compute on 1 GPU ≥ critical path."""
        rep = _run(nt=6)
        total_kernel = sum(
            kernel_time(V100, t, NB, Precision.FP64) * c
            for t, c in {
                KernelKind.POTRF: 6,
                KernelKind.TRSM: 15,
                KernelKind.SYRK: 15,
                KernelKind.GEMM: 20,
            }.items()
        )
        assert rep.makespan >= total_kernel * 0.999
        assert rep.makespan < total_kernel * 2.0  # transfers mostly overlap

    def test_flops_accounted(self):
        rep = _run(nt=4)
        nb3 = float(NB) ** 3
        expected = 4 * nb3 / 3 + 6 * (2 * nb3 + NB * NB) + 4 * 2 * nb3
        assert rep.stats.total_flops == pytest.approx(expected, rel=1e-6)

    def test_initial_h2d_volume_fp64(self):
        """Every matrix tile crosses the link once at FP64 (in-memory case)."""
        rep = _run(nt=5)
        tiles = 5 * 6 // 2
        assert rep.stats.link_bytes("h2d") == tiles * NB * NB * 8
        assert rep.stats.n_evictions == 0

    def test_deterministic(self):
        a = _run(nt=6)
        b = _run(nt=6)
        assert a.makespan == b.makespan
        assert a.task_end == b.task_end

    def test_trace_events_recorded(self):
        rep = _run(nt=4, record_events=True)
        engines = {e.engine for e in rep.trace.events}
        assert "compute" in engines and "h2d" in engines
        assert sum(e.duration for e in rep.trace.events_of_rank(0) if e.engine == "compute") > 0

    def test_record_events_off(self):
        rep = _run(nt=4, record_events=False)
        assert rep.trace.events == []
        assert rep.stats.n_tasks > 0


class TestPrecisionEffects:
    def test_fp16_config_faster(self):
        # at nb=512 the FP64-bound panel kernels cap the gain well below
        # the Fig. 8 (nb=2048) speedups; the ordering must still hold
        t64 = _run(nt=8, prec=Precision.FP64).makespan
        t16 = _run(nt=8, prec=Precision.FP16).makespan
        assert t16 < t64 / 1.3

    def test_fp16_moves_fewer_bytes(self):
        b64 = _run(nt=8, prec=Precision.FP64).stats.link_bytes("h2d")
        b16 = _run(nt=8, prec=Precision.FP16).stats.link_bytes("h2d")
        assert b16 < b64

    def test_stc_fewer_conversions_than_ttc(self):
        stc = _run(nt=8, prec=Precision.FP16, strategy=ConversionStrategy.AUTO)
        ttc = _run(nt=8, prec=Precision.FP16, strategy=ConversionStrategy.TTC)
        assert stc.stats.n_conversions < ttc.stats.n_conversions
        assert stc.makespan <= ttc.makespan

    def test_ttc_moves_more_bytes_multi_gpu(self):
        # on a single GPU producer == consumer, so payloads never cross the
        # link; the byte saving materialises once consumers are remote
        p = _platform(4)
        stc = _run(nt=8, prec=Precision.FP16, strategy=ConversionStrategy.AUTO, platform=p)
        ttc = _run(nt=8, prec=Precision.FP16, strategy=ConversionStrategy.TTC, platform=p)
        assert stc.stats.link_bytes("h2d") < ttc.stats.link_bytes("h2d")

    def test_h2d_split_by_precision(self):
        rep = _run(nt=8, prec=Precision.FP16, strategy=ConversionStrategy.AUTO)
        moved = rep.stats.bytes_moved
        assert ("h2d", Precision.FP16) in moved or ("h2d", Precision.FP32) in moved


class TestMemoryPressure:
    def test_eviction_when_matrix_exceeds_gpu(self):
        tiny_gpu = GPUSpec(
            name="tiny",
            peak_flops=V100.peak_flops,
            sustained_fraction=V100.sustained_fraction,
            half_perf_size=V100.half_perf_size,
            memory_bytes=8 * NB * NB,  # a handful of FP64 tiles
            memory_bandwidth=V100.memory_bandwidth,
            host_link_bandwidth=V100.host_link_bandwidth,
            host_link_latency=V100.host_link_latency,
            tdp_watts=V100.tdp_watts,
            compute_power_fraction=V100.compute_power_fraction,
        )
        rep = _run(nt=8, platform=_platform(gpu=tiny_gpu))
        assert rep.stats.n_evictions > 0
        assert rep.stats.link_bytes("d2h") > 0
        # reloads inflate h2d beyond the matrix size
        assert rep.stats.link_bytes("h2d") > 36 * NB * NB * 8

    def test_enforce_memory_off(self, unbounded):
        """Memory is not enforced on a platform whose tiers are unbounded."""
        rep = _run(nt=8, platform=unbounded(_platform()))
        assert rep.stats.n_evictions == 0

    def test_every_eviction_counted_free_drops_not_charged(self):
        """Regression: ``n_evictions`` counts *all* evictions, while the
        d2h engine (EVICT trace events) is only charged for entries whose
        host copy is missing or stale.  Clean host-seeded tiles dropped
        under pressure must therefore appear in the counter but not the
        trace."""
        tiny_gpu = GPUSpec(
            name="tiny",
            peak_flops=V100.peak_flops,
            sustained_fraction=V100.sustained_fraction,
            half_perf_size=V100.half_perf_size,
            memory_bytes=8 * NB * NB,
            memory_bandwidth=V100.memory_bandwidth,
            host_link_bandwidth=V100.host_link_bandwidth,
            host_link_latency=V100.host_link_latency,
            tdp_watts=V100.tdp_watts,
            compute_power_fraction=V100.compute_power_fraction,
        )
        rep = _run(nt=8, platform=_platform(gpu=tiny_gpu))
        charged = [e for e in rep.trace.events if e.kind == "EVICT"]
        assert rep.stats.n_evictions >= len(charged)
        # the seeds loaded from host and evicted before any write are free
        assert rep.stats.n_evictions > len(charged)
        # and the charged ones are the only d2h-EVICT traffic
        assert sum(e.bytes for e in charged) <= rep.stats.link_bytes("d2h")


class TestMultiGPU:
    def test_speedup_with_gpus(self):
        t1 = _run(nt=12, platform=_platform(1)).makespan
        t4 = _run(nt=12, platform=_platform(4)).makespan
        assert t4 < t1 / 1.8

    def test_multi_gpu_traffic_includes_staging(self):
        rep1 = _run(nt=10, platform=_platform(1))
        rep4 = _run(nt=10, platform=_platform(4))
        # remote consumers force d2h staging that a single GPU never pays
        assert rep4.stats.link_bytes("d2h") > rep1.stats.link_bytes("d2h")

    def test_multi_node_uses_nic(self):
        rep = _run(nt=10, platform=_platform(n_gpus=2, n_nodes=2))
        assert rep.stats.link_bytes("nic") > 0

    def test_single_node_no_nic(self):
        rep = _run(nt=10, platform=_platform(n_gpus=4, n_nodes=1))
        assert rep.stats.link_bytes("nic") == 0

    def test_gflops_property(self):
        rep = _run(nt=8)
        assert rep.gflops == pytest.approx(rep.stats.total_flops / rep.makespan / 1e9)


class TestStreamingSimulation:
    """simulate_stream: lazy k-major emission ≡ the materialising path."""

    @pytest.mark.parametrize("prec", [Precision.FP64, Precision.FP16])
    @pytest.mark.parametrize("n_gpus,n_nodes", [(1, 1), (2, 2)])
    def test_stream_matches_materialize(self, prec, n_gpus, n_nodes):
        import hashlib

        def _hash(trace):
            tuples = sorted(
                (e.rank, e.engine, e.kind, e.t_start, e.t_end,
                 e.precision, e.bytes, e.flops, e.site)
                for e in trace.events
            )
            return hashlib.sha256(repr(tuples).encode()).hexdigest()

        plat = _platform(n_gpus=n_gpus, n_nodes=n_nodes)
        base = _run(nt=10, prec=prec, platform=plat)
        stream = _run(nt=10, prec=prec, platform=plat, stream=True)
        assert stream.makespan == base.makespan
        assert stream.stats.to_dict() == base.stats.to_dict()
        assert _hash(stream.trace) == _hash(base.trace)

    def test_stream_matches_materialize_fifo(self):
        base = _run(nt=8, policy="fifo")
        stream = _run(nt=8, policy="fifo", stream=True)
        assert stream.makespan == base.makespan

    def test_small_lookahead_completes_validly(self):
        """A tight emission window must still drain the whole DAG; the
        schedule may differ (fewer ready choices) but stays feasible."""
        nt = 12
        expected = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) // 6
        rep = _stream(nt, 32, prec=Precision.FP16)
        assert rep.stats.n_tasks == expected
        assert rep.makespan > 0.0
        assert rep.peak_live_tasks < expected

    def test_peak_live_tasks_bounded_by_window(self):
        rep = _stream(16, 256)
        n = rep.stats.n_tasks
        assert 0 < rep.peak_live_tasks < n
        # the window is a soft target (it widens when the heap drains),
        # but it must stay far below the full task list
        assert rep.peak_live_tasks <= n // 2
        # a window refills in sweeps of up to an eighth of itself (per task
        # under 8) yet tops up to exactly ``lookahead``: a topological
        # stream never blocks, so the first fill reaches the window
        from repro.core import cholesky_task_count

        n_tasks = cholesky_task_count(30)  # 4,960: larger than every window below
        for lookahead in (1, 7, 8, 9, 4096):
            rep = _stream(30, lookahead, record_events=False)
            assert rep.stats.n_tasks == n_tasks
            assert rep.peak_live_tasks == min(lookahead, n_tasks)

    def test_materialized_report_counts_all_tasks_live(self):
        rep = _run(nt=6)
        assert rep.peak_live_tasks == rep.stats.n_tasks

    @pytest.mark.parametrize("policy", ["critical-path", "comm-aware-eft"])
    def test_full_graph_policies_rejected(self, policy):
        with pytest.raises(ValueError, match="full graph"):
            _run(nt=6, stream=True, policy=policy)

    def test_rank_outside_platform_rejected(self):
        """Held and streamed runs check each arriving task's rank against
        the platform before the engine's per-rank tables are indexed."""
        from repro.core import build_cholesky_dag
        from repro.runtime.simulator import simulate, simulate_stream

        graph = build_cholesky_dag(4 * NB, NB, uniform_map(4, Precision.FP64)).graph
        graph.tasks[3].rank = 5
        plat = _platform()
        with pytest.raises(ValueError, match="rank 5 outside platform of 1 ranks"):
            simulate(graph, plat, NB)
        with pytest.raises(ValueError, match="rank 5 outside platform of 1 ranks"):
            simulate_stream(iter(graph.tasks), plat, NB)

    def test_stream_never_materializes_task_list(self):
        """The streaming path must retire tasks as they finish: every
        task runs, yet the peak number of live tasks stays under half
        the graph."""
        from repro.core import stream_cholesky_tasks
        from repro.core.precision_map import two_precision_map
        from repro.runtime.simulator import simulate_stream

        nt, nb = 12, 256
        kmap = two_precision_map(nt, Precision.FP16)
        plat = _platform()
        source = stream_cholesky_tasks(
            nt * nb, nb, kmap, grid=plat.process_grid())
        rep = simulate_stream(source, plat, nb, lookahead=64,
                              record_events=False)
        expected = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) // 6
        assert rep.stats.n_tasks == expected
        assert rep.peak_live_tasks < expected // 2


class TestRecordOnlyForAReader:
    """``record_events=False`` constructs no ``TraceEvent`` — and is
    otherwise the recording run, number for number."""

    @pytest.mark.parametrize("tight", [False, True], ids=["in-memory", "ooc-static-tight"])
    def test_no_event_built_same_result(self, tight, monkeypatch):
        import dataclasses

        from repro.core import build_cholesky_dag, stream_cholesky_tasks
        from repro.runtime import simulator

        nt, nb = 16, 128
        kmap = two_precision_map(nt, Precision.FP16_32)
        if tight:  # a dozen tiles of device memory over a host of 32: every tier spills
            gpu = dataclasses.replace(V100, memory_bytes=12 * nb * nb * 8)
            plat, policy = _platform(gpu=gpu, host_memory=32 * nb * nb * 8), "ooc-static"
        else:
            plat, policy = _platform(n_gpus=2, n_nodes=2), "panel-first"
        grid = plat.process_grid()
        graph = build_cholesky_dag(nt * nb, nb, kmap, grid=grid).graph

        built = []
        trace_event = simulator.TraceEvent

        def counting_event(*args, **kwargs):
            built.append(None)
            return trace_event(*args, **kwargs)

        monkeypatch.setattr(simulator, "TraceEvent", counting_event)

        on = simulator.simulate(graph, plat, nb, policy=policy, record_events=True)
        assert len(built) == len(on.trace.events) > len(graph)
        if tight:
            assert on.stats.n_evictions and on.stats.n_host_evictions and on.stats.n_spills
        del built[:]

        off = simulator.simulate(graph, plat, nb, policy=policy, record_events=False)
        streamed = simulator.simulate_stream(
            stream_cholesky_tasks(nt * nb, nb, kmap, grid=grid), plat, nb,
            policy=policy, record_events=False,
        )
        replayed = simulator.simulate_replay(
            graph, plat, nb, on.commit_order, record_events=False, source_policy=policy
        )
        assert built == []
        for rep in (off, streamed, replayed):
            assert rep.trace.events == []
            assert rep.makespan == on.makespan
            assert rep.stats.to_dict() == on.stats.to_dict()
            assert rep.commit_order == on.commit_order
            assert rep.task_start == on.task_start and rep.task_end == on.task_end


class TestRaggedPricingBound:
    """Kernels of ragged edge tiles are priced as full ``nb``² tiles
    while transfers and TTC passes use the real element count: the
    ragged run is never slower than the full-tile run, and the flops it
    accounts fall by at most ``1 − ((NT−1)/NT)³`` (the bound
    ``simulate``'s docstring states)."""

    @pytest.mark.parametrize("strategy", [ConversionStrategy.TTC, ConversionStrategy.AUTO])
    @pytest.mark.parametrize("nt", [4, 8, 16])
    def test_ragged_never_slower_flops_within_bound(self, nt, strategy):
        nb = 256
        plat = _platform(n_gpus=2, n_nodes=2)
        kmap = two_precision_map(nt, Precision.FP16)
        full = simulate_cholesky(nt * nb, nb, kmap, plat, strategy=strategy, record_events=False)
        ragged = simulate_cholesky(
            nt * nb - nb + 7, nb, kmap, plat, strategy=strategy, record_events=False
        )
        assert ragged.stats.n_tasks == full.stats.n_tasks
        assert ragged.makespan <= full.makespan
        ratio = ragged.stats.total_flops / full.stats.total_flops
        assert ((nt - 1) / nt) ** 3 <= ratio < 1.0
