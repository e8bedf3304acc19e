"""Run manifests and the Perfetto/CSV/JSON exporters."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro import obs
from repro.core import fixed_config_map, two_precision_map
from repro.core.solver import simulate_cholesky
from repro.perfmodel.gpus import V100
from repro.precision import Precision
from repro.runtime import Platform
from repro.runtime.tracing import TraceEvent


@pytest.fixture(scope="module")
def sim_report():
    kmap = two_precision_map(6, Precision.FP16)
    platform = Platform.single_gpu(V100)
    return simulate_cholesky(6 * 512, 512, kmap, platform, record_events=True)


def _trace_events(events, tmp_path):
    """The records :func:`obs.write_perfetto_trace` writes for ``events``."""
    path = obs.write_perfetto_trace(events, tmp_path / "trace.json")
    return json.loads(path.read_text())["traceEvents"]


def _in_git_checkout() -> bool:
    """Whether the installed package sits in a git work tree, judged by a
    ``.git`` entry above it rather than by asking git."""
    return any((d / ".git").exists() for d in Path(obs.__file__).resolve().parents)


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
        # a checkout's revision resolves; an export of the tree has none
        if _in_git_checkout():
            assert re.fullmatch(r"[0-9a-f]{40}", m["git_revision"])
        else:
            assert m["git_revision"] is None

    @pytest.mark.parametrize("failure", ["no git", "not a repository"])
    def test_revision_is_none_outside_a_checkout(self, monkeypatch, failure):
        import subprocess

        from repro.obs import manifest

        def fake_run(args, **kwargs):
            if failure == "no git":
                raise FileNotFoundError("git")
            return subprocess.CompletedProcess(args, 128, stdout="", stderr="fatal")

        manifest._git_revision.cache_clear()
        monkeypatch.setattr(manifest.subprocess, "run", fake_run)
        try:
            m = obs.build_manifest(command="mle", seed=3)
        finally:
            manifest._git_revision.cache_clear()  # later tests ask the real git
        assert m["git_revision"] is None

    def test_git_is_asked_once_per_process(self, monkeypatch):
        """A campaign stores one manifest per point; ``git rev-parse`` runs
        once per resolved root, not once per manifest."""
        import subprocess

        from repro.obs import manifest

        calls = []

        def fake_run(*args, **kwargs):
            calls.append(kwargs["cwd"])
            return subprocess.CompletedProcess(args, 0, stdout="a" * 40 + "\n")

        manifest._git_revision.cache_clear()
        monkeypatch.setattr(manifest.subprocess, "run", fake_run)
        try:
            first = obs.build_manifest(command="sweep.run", seed=0)
            second = obs.build_manifest(command="sweep.run", seed=1)
        finally:
            manifest._git_revision.cache_clear()  # later tests ask the real git
        assert first["git_revision"] == second["git_revision"] == "a" * 40
        assert len(calls) == 1

    def test_config_normalisation(self):
        from repro.core.config import MPConfig

        m = obs.build_manifest(config=MPConfig())
        cfg = m["config"]
        assert cfg["accuracy"] == MPConfig().accuracy
        # enums become their names
        assert all(isinstance(f, str) for f in cfg["formats"])

    def test_write_manifest_round_trip(self, tmp_path):
        m = obs.build_manifest(run_id="x", seed=0)
        path = obs.write_json(tmp_path / "manifest.json", m)
        assert json.loads(path.read_text()) == m


class TestPerfettoExport:
    def test_counter_tracks_present_and_valid(self, sim_report, tmp_path):
        counters = [e for e in _trace_events(sim_report.trace.events, tmp_path)
                    if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert {"h2d inflight bytes", "conversions (cum)"} <= names
        assert names <= {"h2d inflight bytes", "d2h inflight bytes",
                         "nic bytes (cum)", "conversions (cum)"}
        assert all("value" in e["args"] for e in counters)
        # counter samples are time-sorted
        ts = [e["ts"] for e in counters]
        assert ts == sorted(ts)

    def test_cumulative_conversions_track_convert_slices(self, sim_report, tmp_path):
        conv = [e for e in _trace_events(sim_report.trace.events, tmp_path)
                if e.get("ph") == "C" and e["name"] == "conversions (cum)"]
        n_convert_events = sum(1 for e in sim_report.trace.events if e.kind == "CONVERT")
        assert conv[-1]["args"]["value"] == n_convert_events
        # one CONVERT slice per conversion pass (site-tagged), so the
        # track ends exactly at the stats counter
        assert 0 < n_convert_events == sim_report.stats.n_conversions
        values = [e["args"]["value"] for e in conv]
        assert values == sorted(values)  # cumulative ⇒ non-decreasing

    def test_inflight_bytes_return_to_zero(self, sim_report, tmp_path):
        h2d = [e for e in _trace_events(sim_report.trace.events, tmp_path)
               if e.get("ph") == "C" and e["name"] == "h2d inflight bytes"]
        assert h2d[-1]["args"]["value"] == 0

    def test_counters_stay_non_negative_out_of_core(self, tmp_path):
        """On a V100 cut to 64 MB, GPU-produced tiles are written back
        without ever being loaded: a memory-pool track summed from
        LOADs and EVICTs ended at −12.6 MB.  No track may go negative,
        and both in-flight tracks end at 0 once the copies drain."""
        gpu = dataclasses.replace(V100, memory_bytes=64e6)
        rep = simulate_cholesky(8192, 1024, fixed_config_map(8, "FP64/FP16_32"),
                                Platform.single_gpu(gpu), record_events=True)
        assert rep.stats.n_evictions > 0
        counters = [e for e in _trace_events(rep.trace.events, tmp_path) if e["ph"] == "C"]
        assert all(e["args"]["value"] >= 0 for e in counters)
        for track in ("h2d inflight bytes", "d2h inflight bytes"):
            samples = [e["args"]["value"] for e in counters if e["name"] == track]
            assert samples and samples[-1] == 0, track

    def test_nic_counter_accumulates_per_rank(self, tmp_path):
        events = [
            TraceEvent(0, "nic", "SEND", 0.0, 0.1, None, 100),
            TraceEvent(0, "nic", "SEND", 0.1, 0.3, None, 50),
            TraceEvent(1, "nic", "SEND", 0.0, 0.2, None, 7),
        ]
        nic = [e for e in _trace_events(events, tmp_path)
               if e.get("ph") == "C" and e["name"] == "nic bytes (cum)"]
        final = {e["pid"]: e["args"]["value"] for e in nic}
        assert final == {0: 150, 1: 7}  # cumulative, last sample wins per rank

    def test_metadata_names_processes_and_threads(self, sim_report, tmp_path):
        meta = [e for e in _trace_events(sim_report.trace.events, tmp_path)
                if e["ph"] == "M"]
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
            manifest=manifest,
        )
        doc = json.loads(path.read_text())
        assert doc["manifest"]["run_id"] == "s"
        assert doc["stats"]["n_tasks"] == sim_report.stats.n_tasks
        assert "metrics" in doc

    def test_run_summary_takes_at_most_one_verb_section(self):
        doc = obs.run_summary(metrics={}, regress={"verdict": "ok"})
        assert doc == {"schema": "repro.obs.run_summary/1", "metrics": {},
                       "regress": {"verdict": "ok"}}
        with pytest.raises(TypeError, match="one of"):
            obs.run_summary(analysis={}, profile={})
        with pytest.raises(TypeError, match="one of"):
            obs.run_summary(bench={})

    def test_stats_to_dict_is_json_ready(self, sim_report):
        d = sim_report.stats.to_dict()
        json.dumps(d)
        assert d["n_tasks"] == sim_report.stats.n_tasks
        assert d["h2d_bytes"] == sim_report.stats.link_bytes("h2d")
        assert all(isinstance(k, str) for k in d["flops_by_precision"])
