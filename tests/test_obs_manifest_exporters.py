"""Run manifests and the Perfetto/CSV/JSON exporters."""

import json

import pytest

from repro import obs
from repro.core import two_precision_map
from repro.core.solver import simulate_cholesky
from repro.perfmodel.gpus import V100
from repro.precision import Precision
from repro.runtime import Platform
from repro.runtime.gantt import to_chrome_trace
from repro.runtime.tracing import TraceEvent


@pytest.fixture(scope="module")
def sim_report():
    kmap = two_precision_map(6, Precision.FP16)
    platform = Platform.single_gpu(V100)
    return simulate_cholesky(6 * 512, 512, kmap, platform, record_events=True)


class TestManifest:
    def test_deterministic_under_fixed_inputs(self):
        a = obs.build_manifest(run_id="r", command="simulate",
                               config={"n": 1024, "seed": 7}, seed=7)
        b = obs.build_manifest(run_id="r", command="simulate",
                               config={"n": 1024, "seed": 7}, seed=7)
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_contents(self):
        m = obs.build_manifest(command="mle", seed=3, config={"model": "2d-matern"})
        assert m["command"] == "mle"
        assert m["seed"] == 3
        assert m["config"] == {"model": "2d-matern"}
        assert m["versions"]["python"]
        assert m["versions"]["numpy"]
        assert m["versions"]["repro"]
        assert m["platform"]["system"]
        # this repo is a git checkout, so the revision must resolve
        assert isinstance(m["git_revision"], str) and len(m["git_revision"]) == 40

    def test_config_normalisation(self):
        from repro.core.config import MPConfig

        m = obs.build_manifest(config=MPConfig())
        cfg = m["config"]
        assert cfg["accuracy"] == MPConfig().accuracy
        # enums become their names
        assert all(isinstance(f, str) for f in cfg["formats"])

    def test_write_manifest_round_trip(self, tmp_path):
        m = obs.build_manifest(run_id="x", seed=0)
        path = obs.write_manifest(tmp_path / "manifest.json", m)
        assert json.loads(path.read_text()) == m


class TestPerfettoExport:
    def test_counter_tracks_present_and_valid(self, sim_report, tmp_path):
        path = obs.write_perfetto_trace(sim_report.trace.events, tmp_path / "t.json")
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert "gpu pool bytes" in names
        assert "h2d inflight bytes" in names
        assert "conversions (cum)" in names
        assert all("value" in e["args"] for e in counters)
        # counter samples are time-sorted
        ts = [e["ts"] for e in counters]
        assert ts == sorted(ts)

    def test_cumulative_conversions_track_convert_slices(self, sim_report):
        payload = json.loads(to_chrome_trace(sim_report.trace.events, counters=True))
        conv = [e for e in payload["traceEvents"]
                if e.get("ph") == "C" and e["name"] == "conversions (cum)"]
        n_convert_events = sum(1 for e in sim_report.trace.events if e.kind == "CONVERT")
        assert conv[-1]["args"]["value"] == n_convert_events
        # one CONVERT slice per conversion pass (site-tagged), so the
        # track ends exactly at the stats counter
        assert 0 < n_convert_events == sim_report.stats.n_conversions
        values = [e["args"]["value"] for e in conv]
        assert values == sorted(values)  # cumulative ⇒ non-decreasing

    def test_inflight_bytes_return_to_zero(self, sim_report):
        payload = json.loads(to_chrome_trace(sim_report.trace.events, counters=True))
        h2d = [e for e in payload["traceEvents"]
               if e.get("ph") == "C" and e["name"] == "h2d inflight bytes"]
        assert h2d[-1]["args"]["value"] == 0

    def test_nic_counter_accumulates_per_rank(self):
        events = [
            TraceEvent(0, "nic", "SEND", 0.0, 0.1, None, 100),
            TraceEvent(0, "nic", "SEND", 0.1, 0.3, None, 50),
            TraceEvent(1, "nic", "SEND", 0.0, 0.2, None, 7),
        ]
        payload = json.loads(to_chrome_trace(events, counters=True))
        nic = [e for e in payload["traceEvents"]
               if e.get("ph") == "C" and e["name"] == "nic bytes (cum)"]
        final = {e["pid"]: e["args"]["value"] for e in nic}
        assert final == {0: 150, 1: 7}  # cumulative, last sample wins per rank

    def test_obs_events_become_instant_markers(self, sim_report):
        obs_events = [
            {"type": "fault", "ts": 0.5, "attrs": {"kind": "transient", "rank": 1}},
            {"type": "sweep.point_failed", "ts": 0.6, "attrs": {"label": "p"}},
            {"type": "sweep.run", "ts": 0.7, "attrs": {}},  # not a fault marker
        ]
        payload = json.loads(to_chrome_trace(sim_report.trace.events,
                                             obs_events=obs_events))
        instants = [e for e in payload["traceEvents"] if e.get("ph") == "i"]
        assert {e["name"] for e in instants} == {"fault", "sweep.point_failed"}
        fault = next(e for e in instants if e["name"] == "fault")
        assert fault["pid"] == 1 and fault["s"] == "p"  # rank-scoped
        failed = next(e for e in instants if e["name"] == "sweep.point_failed")
        assert failed["s"] == "g"  # no rank → global scope
        assert fault["ts"] == pytest.approx(0.5e6)

    def test_metadata_names_processes_and_threads(self, sim_report):
        payload = json.loads(to_chrome_trace(sim_report.trace.events))
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        proc = [e for e in meta if e["name"] == "process_name"]
        thread = [e for e in meta if e["name"] == "thread_name"]
        assert proc and proc[0]["args"]["name"].startswith("rank ")
        assert {e["args"]["name"] for e in thread} >= {"compute", "h2d"}


class TestCsvAndSummary:
    def test_run_summary_sections(self, sim_report, tmp_path):
        manifest = obs.build_manifest(run_id="s", command="simulate")
        path = obs.write_run_summary(
            tmp_path / "metrics.json",
            stats=sim_report.stats,
            trace=sim_report.trace,
            manifest=manifest,
        )
        doc = json.loads(path.read_text())
        assert doc["manifest"]["run_id"] == "s"
        assert doc["stats"]["n_tasks"] == sim_report.stats.n_tasks
        assert doc["trace"]["n_events"] == len(sim_report.trace.events)
        assert "metrics" in doc

    def test_stats_to_dict_is_json_ready(self, sim_report):
        d = sim_report.stats.to_dict()
        json.dumps(d)
        assert d["n_tasks"] == sim_report.stats.n_tasks
        assert d["h2d_bytes"] == sim_report.stats.link_bytes("h2d")
        assert all(isinstance(k, str) for k in d["flops_by_precision"])

    def test_trace_summary(self, sim_report):
        s = sim_report.trace.summary()
        json.dumps(s)
        assert s["n_events"] == len(sim_report.trace.events)
        assert s["makespan_seconds"] == pytest.approx(sim_report.makespan)
        assert "compute" in s["busy_seconds_by_engine"]
        assert s["events_by_kind"]["POTRF"] == 6
