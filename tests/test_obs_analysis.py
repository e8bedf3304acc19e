"""The trace-analysis layer: data-motion ledger, critical path, analyze CLI."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import fixed_config_map, two_precision_map, uniform_map
from repro.core.solver import simulate_cholesky
from repro.obs.analysis import (
    analyze_path,
    analyze_trace,
    build_ledger,
    critical_path,
    engine_slack,
    render_analysis,
    utilization_timeline,
)
from repro.perfmodel import NodeSpec
from repro.perfmodel.gpus import V100
from repro.precision import Precision
from repro.runtime import Platform
from repro.runtime.tracing import LINKS, RunStats, TraceEvent


@pytest.fixture(scope="module")
def sim_report():
    kmap = two_precision_map(6, Precision.FP16)
    platform = Platform.single_gpu(V100)
    return simulate_cholesky(6 * 512, 512, kmap, platform, record_events=True)


@pytest.fixture(scope="module")
def multinode_report():
    kmap = two_precision_map(8, Precision.FP16_32)
    node = NodeSpec("test", V100, 1, 256e9, 25e9, 1.5e-6)
    platform = Platform(node=node, n_nodes=2)
    return simulate_cholesky(8 * 256, 256, kmap, platform, record_events=True)


class TestLedger:
    def test_reconciles_exactly_with_runstats(self, sim_report):
        ledger = build_ledger(sim_report.trace.events)
        assert ledger.reconcile(sim_report.stats) == []
        # the dict form reconciles identically
        assert ledger.reconcile(sim_report.stats.to_dict()) == []

    def test_reconciles_multinode_with_nic_traffic(self, multinode_report):
        ledger = build_ledger(multinode_report.trace.events)
        assert multinode_report.stats.link_bytes("nic") > 0
        assert ledger.bytes_by_link()["nic"] == multinode_report.stats.link_bytes("nic")
        assert ledger.reconcile(multinode_report.stats) == []

    def test_totals_match_stats_counters(self, sim_report):
        ledger = build_ledger(sim_report.trace.events)
        by_link = ledger.bytes_by_link()
        assert by_link["h2d"] == sim_report.stats.link_bytes("h2d")
        assert by_link.get("d2h", 0) == sim_report.stats.link_bytes("d2h")
        assert ledger.total_bytes == (
            sim_report.stats.link_bytes("h2d")
            + sim_report.stats.link_bytes("d2h")
            + sim_report.stats.link_bytes("nic")
        )

    def test_mixed_precision_saves_bytes_vs_fp64(self, sim_report):
        ledger = build_ledger(sim_report.trace.events)
        assert ledger.total_saved_bytes > 0
        # every row's FP64 equivalent is at least its actual bytes
        assert all(r.saved_bytes >= 0 for r in ledger.rows)

    def test_all_fp64_run_saves_nothing(self):
        kmap = uniform_map(4, Precision.FP64)
        rep = simulate_cholesky(4 * 256, 256, kmap, Platform.single_gpu(V100),
                                record_events=True)
        ledger = build_ledger(rep.trace.events)
        assert ledger.total_saved_bytes == 0
        assert ledger.reconcile(rep.stats) == []

    def test_reconcile_reports_discrepancy(self, sim_report):
        ledger = build_ledger(sim_report.trace.events)
        tampered = sim_report.stats.to_dict()
        name, value = next(iter(tampered["h2d_bytes_by_precision"].items()))
        tampered["h2d_bytes_by_precision"][name] = value + 1
        problems = ledger.reconcile(tampered)
        assert problems and any("h2d" in p for p in problems)

    def test_stats_only_ledger(self, sim_report):
        ledger = build_ledger(stats=sim_report.stats)
        assert ledger.source == "stats"
        assert ledger.bytes_by_link()["h2d"] == sim_report.stats.link_bytes("h2d")
        assert ledger.reconcile(sim_report.stats) == []

    def test_table_renders(self, sim_report):
        text = build_ledger(sim_report.trace.events).table()
        assert "data-motion ledger" in text
        assert "stc" in text and "ttc" in text

    def test_to_dict_round_trips_totals(self, sim_report):
        doc = build_ledger(sim_report.trace.events).to_dict()
        assert "schema" not in doc  # a section of the run summary's analysis
        assert doc["total_bytes"] == sum(r["bytes"] for r in doc["rows"])
        assert doc["total_saved_bytes_vs_fp64"] == sum(
            r["saved_bytes"] for r in doc["rows"]
        )


class TestConvertSiteTags:
    def test_every_convert_event_is_tagged(self, sim_report):
        converts = [e for e in sim_report.trace.events if e.kind == "CONVERT"]
        assert converts
        for ev in converts:
            assert ev.site in ("stc", "ttc")
            assert ev.src_precision is not None
            assert ev.dst_precision is not None
            assert ev.src_precision != ev.dst_precision

    def test_site_counts_match_stats(self, sim_report):
        converts = [e for e in sim_report.trace.events if e.kind == "CONVERT"]
        by_site = {}
        for ev in converts:
            by_site[ev.site] = by_site.get(ev.site, 0) + 1
        assert by_site == sim_report.stats.conversions_by_site
        assert sum(by_site.values()) == sim_report.stats.n_conversions

    def test_non_convert_events_untagged(self, sim_report):
        for ev in sim_report.trace.events:
            if ev.kind != "CONVERT":
                assert ev.site is None

    def test_ttc_strategy_converts_only_at_receivers(self):
        from repro.core import ConversionStrategy

        kmap = two_precision_map(5, Precision.FP16)
        rep = simulate_cholesky(5 * 256, 256, kmap, Platform.single_gpu(V100),
                                strategy=ConversionStrategy.TTC, record_events=True)
        sites = {e.site for e in rep.trace.events if e.kind == "CONVERT"}
        assert sites == {"ttc"}
        assert rep.stats.conversions_by_site.keys() == {"ttc"}


_precisions = st.sampled_from(list(Precision))
_link_event = st.builds(
    TraceEvent,
    rank=st.integers(0, 3),
    engine=st.sampled_from(LINKS),
    kind=st.just("XFER"),
    t_start=st.just(0.0),
    t_end=st.floats(0.0, 1.0, allow_nan=False),
    precision=_precisions,
    bytes=st.integers(0, 10**9),
)
_convert_event = st.builds(
    TraceEvent,
    rank=st.integers(0, 3),
    engine=st.just("compute"),
    kind=st.just("CONVERT"),
    t_start=st.just(0.0),
    t_end=st.floats(0.0, 1.0, allow_nan=False),
    precision=_precisions,
    site=st.sampled_from(["stc", "ttc"]),
    src_precision=_precisions,
    dst_precision=_precisions,
)


class TestLedgerProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(_link_event, _convert_event), max_size=40))
    def test_ledger_reconciles_with_replayed_stats(self, events):
        # replay the same events into RunStats' counters, as the engine
        # writes them: the ledger must agree byte-for-byte, always
        stats = RunStats()
        for ev in events:
            if ev.engine != "compute":
                key = (ev.engine, ev.precision)
                stats.bytes_moved[key] = stats.bytes_moved.get(key, 0) + ev.bytes
            elif ev.kind == "CONVERT":
                stats.n_conversions += 1
                stats.conversion_seconds += ev.duration
                by_site, seconds_by_site = stats.conversions_by_site, stats.conversion_seconds_by_site
                by_site[ev.site] = by_site.get(ev.site, 0) + 1
                seconds_by_site[ev.site] = seconds_by_site.get(ev.site, 0.0) + ev.duration
        ledger = build_ledger(events)
        assert ledger.reconcile(stats) == []
        assert ledger.reconcile(stats.to_dict()) == []


class TestCriticalPath:
    def test_length_equals_makespan(self, sim_report):
        cp = critical_path(sim_report.trace.events)
        assert cp.makespan == pytest.approx(sim_report.stats.makespan)
        assert cp.length == pytest.approx(cp.makespan, rel=1e-9)
        assert cp.gap_seconds <= 1e-9 * max(cp.makespan, 1.0) * cp.n_events

    def test_length_equals_makespan_multinode(self, multinode_report):
        cp = critical_path(multinode_report.trace.events)
        assert cp.length == pytest.approx(cp.makespan, rel=1e-9)

    def test_chain_is_chronological_and_contiguous(self, sim_report):
        cp = critical_path(sim_report.trace.events)
        tol = 1e-9 * max(cp.makespan, 1.0)
        assert cp.events[0].t_start <= tol
        assert cp.events[-1].t_end == pytest.approx(cp.makespan)
        for prev, nxt in zip(cp.events, cp.events[1:]):
            assert prev.t_end <= nxt.t_start + tol

    def test_time_decomposition_sums_to_length(self, sim_report):
        # a gap-free chain's busy time tiles its whole span
        cp = critical_path(sim_report.trace.events)
        total = sum(cp.time_by_engine.values())
        assert total == pytest.approx(cp.length, rel=1e-6)
        assert sum(cp.time_by_kind.values()) == pytest.approx(total)

    def test_empty_trace(self):
        cp = critical_path([])
        assert cp.n_events == 0 and cp.makespan == 0.0 and cp.length == 0.0

    def test_zero_duration_events_terminate(self):
        events = [
            TraceEvent(0, "compute", "A", 0.0, 0.0),
            TraceEvent(0, "compute", "B", 0.0, 0.0),
            TraceEvent(0, "compute", "C", 0.0, 1.0),
            TraceEvent(0, "compute", "D", 1.0, 1.0),
        ]
        cp = critical_path(events)
        assert cp.makespan == 1.0
        assert cp.length == pytest.approx(1.0)

    def test_gap_is_reported_for_idle_schedules(self):
        events = [
            TraceEvent(0, "compute", "A", 0.0, 1.0),
            TraceEvent(0, "compute", "B", 3.0, 4.0),
        ]
        cp = critical_path(events)
        assert cp.gap_seconds == pytest.approx(2.0)


class TestSlackAndUtilization:
    def test_slack_nonnegative_and_bounded(self, sim_report):
        cp = critical_path(sim_report.trace.events)
        slack = engine_slack(sim_report.trace.events, cp.makespan)
        assert slack
        for value in slack.values():
            assert 0.0 <= value <= cp.makespan + 1e-12

    def test_utilization_fractions_in_range(self, sim_report):
        util = utilization_timeline(sim_report.trace.events, n_buckets=16)
        assert util
        for fractions in util.values():
            assert len(fractions) == 16
            assert all(0.0 <= f <= 1.0 for f in fractions)

    def test_fully_busy_engine_reads_one(self):
        events = [TraceEvent(0, "compute", "A", 0.0, 2.0)]
        util = utilization_timeline(events, n_buckets=4)
        assert util["compute"] == pytest.approx([1.0] * 4)

    def test_empty_inputs(self):
        assert engine_slack([]) == {}
        assert utilization_timeline([]) == {}

    def test_overlapping_events_count_once_per_rank(self):
        events = [
            TraceEvent(0, "compute", "A", 0.0, 3.0),
            TraceEvent(0, "compute", "B", 1.0, 2.0),  # inside A
            TraceEvent(1, "compute", "C", 0.0, 1.0),
        ]
        util = utilization_timeline(events, makespan=4.0, n_buckets=2)
        # rank 0 reads [1, 0.5], rank 1 [0.5, 0]: the mean of the two ranks
        assert util["compute"] == [0.75, 0.25]


class TestAnalyzeAndCLI:
    def test_perfetto_round_trip_reconciles(self, sim_report, tmp_path):
        path = tmp_path / "trace.json"
        obs.write_perfetto_trace(sim_report.trace.events, path)
        events = obs.load_trace_events(path)
        assert len(events) == len(sim_report.trace.events)
        assert build_ledger(events).reconcile(sim_report.stats) == []
        sites = {e.site for e in events if e.kind == "CONVERT"}
        assert sites == {"stc", "ttc"}

    def test_analyze_trace_section(self, sim_report):
        doc = analyze_trace(sim_report.trace.events, sim_report.stats.to_dict())
        assert "schema" not in doc and "stats" not in doc
        assert doc["reconciliation"] == {"checked": True, "mismatches": []}
        cp = doc["critical_path"]
        assert cp["length_seconds"] == pytest.approx(cp["makespan_seconds"], rel=1e-9)
        assert doc["utilization"] and doc["slack_seconds"]
        text = render_analysis(obs.run_summary(stats=sim_report.stats, analysis=doc))
        assert "reconciles exactly" in text
        assert "critical path" in text

    def test_analyze_path_on_run_dir(self, sim_report, tmp_path):
        obs.write_perfetto_trace(sim_report.trace.events, tmp_path / "trace.json")
        obs.write_run_summary(tmp_path / "summary.json", stats=sim_report.stats)
        doc = analyze_path(tmp_path)
        assert doc["stats"] == sim_report.stats.to_dict()
        analysis = doc["analysis"]
        assert analysis["reconciliation"]["checked"]
        assert analysis["reconciliation"]["mismatches"] == []
        assert analysis["source"]["trace"].endswith("trace.json")
        assert analysis["source"]["summary"].endswith("summary.json")

    def test_run_dir_analyzes_like_the_run_itself(self, tmp_path):
        """Written by the Perfetto writer and the run summary, then read
        back from disk, an out-of-core run (two V100s cut to 64 MB over
        a 64 MB host: evictions, host evictions and disk spills) gives
        the analysis of its in-memory events and stats."""
        import dataclasses

        gpu = dataclasses.replace(V100, memory_bytes=64e6)
        platform = Platform(NodeSpec("tight", gpu, 2, 64e6, 25e9, 1.5e-6), n_nodes=1)
        rep = simulate_cholesky(8192, 1024, fixed_config_map(8, "FP64/FP16_32"),
                                platform, record_events=True)
        assert (rep.stats.n_evictions, rep.stats.n_spills) == (269, 122)
        obs.write_perfetto_trace(rep.trace.events, tmp_path / "trace.json",
                                 metadata={"policy": rep.policy})
        obs.write_run_summary(tmp_path / "summary.json", stats=rep.stats)
        from_disk = analyze_path(tmp_path)["analysis"]
        in_memory = analyze_trace(rep.trace.events, rep.stats.to_dict())
        assert from_disk["reconciliation"] == {"checked": True, "mismatches": []}
        assert from_disk["ledger"] == in_memory["ledger"]
        assert from_disk["slack_seconds"] == in_memory["slack_seconds"]
        # the same chain; its event times crossed a microsecond round trip
        disk_cp, mem_cp = dict(from_disk["critical_path"]), dict(in_memory["critical_path"])
        disk_chain, mem_chain = disk_cp.pop("events"), mem_cp.pop("events")
        assert disk_cp == mem_cp
        assert len(disk_chain) == len(mem_chain)
        for got, want in zip(disk_chain, mem_chain):
            assert {k: got[k] for k in ("rank", "engine", "kind")} == \
                {k: want[k] for k in ("rank", "engine", "kind")}
            assert got["t_start"] == pytest.approx(want["t_start"], abs=1e-12)
            assert got["t_end"] == pytest.approx(want["t_end"], abs=1e-12)
        assert from_disk["utilization"].keys() == in_memory["utilization"].keys()
        for engine, fractions in in_memory["utilization"].items():
            assert from_disk["utilization"][engine] == pytest.approx(fractions, abs=1e-12)

    def test_analyze_path_rejects_empty_dir(self, tmp_path):
        with pytest.raises(ValueError, match="nothing analyzable"):
            analyze_path(tmp_path)

    def test_cli_analyze(self, sim_report, tmp_path, capsys):
        from repro.cli import main

        obs.write_perfetto_trace(sim_report.trace.events, tmp_path / "trace.json")
        obs.write_run_summary(tmp_path / "summary.json", stats=sim_report.stats)
        out_json = tmp_path / "analysis.json"
        rc = main(["analyze", str(tmp_path), "--json-out", str(out_json)])
        assert rc == 0
        assert "reconciles exactly" in capsys.readouterr().out
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == "repro.obs.run_summary/1"
        assert doc["stats"] == json.loads((tmp_path / "summary.json").read_text())["stats"]
        assert doc["analysis"]["reconciliation"] == {"checked": True, "mismatches": []}

    def test_cli_analyze_missing_path(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["analyze", str(tmp_path / "nope")])
        assert rc == 2
        assert "analyze:" in capsys.readouterr().err
