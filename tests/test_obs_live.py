"""The live telemetry plane: progress, snapshots, the scrape server.

Covers the Prometheus exposition conformance lint, the in-flight
progress state with fake clocks, on-demand counter rates, the scrape
server's endpoints over real HTTP, immediate flushing of alert-severity
events, ``repro watch``, and — the acceptance test — a real
``repro simulate --stream`` subprocess whose ``/healthz``, ``/progress``
and ``/metrics`` stay conformant and monotone until it exits cleanly.
"""

from __future__ import annotations

import http.client
import io
import json
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, lint_prometheus_text, to_prometheus_text
from repro.obs.events import EventLog
from repro.obs.live import (
    LivePlane,
    LiveProgress,
    live_plane,
    render_progress_line,
    run_started,
)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- Prometheus exposition conformance ---------------------------------------

class TestPrometheusConformance:
    def test_label_escaping_round_trip(self):
        reg = MetricsRegistry()
        nasty = 'quo"te back\\slash new\nline'
        reg.gauge("g", "help").set(1.0, label=nasty)
        text = to_prometheus_text(reg)
        assert lint_prometheus_text(text) == []
        # exact escaped body: \" for quote, \\ for backslash, \n for newline
        assert 'label="quo\\"te back\\\\slash new\\nline"' in text

    def test_summary_family_shape(self):
        """The lint holds a summary to its ``X``/``X_sum``/``X_count``
        family (the registry itself exports counters and gauges only)."""
        family = ("# TYPE lat summary\n"
                  'lat{quantile="0.5"} 0.2\nlat{quantile="0.99"} 0.9\n'
                  "lat_sum 1.2\nlat_count 3\n")
        assert lint_prometheus_text(family) == []
        assert lint_prometheus_text(family + "lat_max 0.9\n")

    def test_counter_total_suffix_and_type_ordering(self):
        reg = MetricsRegistry()
        reg.counter("sim.tasks", "t").inc(5)
        reg.gauge("alpha", "a").set(1)
        reg.counter("beta", "b").inc(1)
        text = to_prometheus_text(reg)
        assert lint_prometheus_text(text) == []
        assert "# TYPE sim_tasks_total counter" in text
        # every TYPE line precedes its samples; family names sorted
        families = [ln.split()[2] for ln in text.splitlines()
                    if ln.startswith("# TYPE ")]
        assert families == sorted(families)

    def test_lint_catches_violations(self):
        assert lint_prometheus_text("no_type_metric 1\n")
        assert lint_prometheus_text("# TYPE x bogus\nx 1\n")
        assert lint_prometheus_text("# TYPE x gauge\n# TYPE x gauge\nx 1\n")
        assert lint_prometheus_text('# TYPE x gauge\nx{l="bad\nbreak"} 1\n')
        bad_family = "# TYPE s summary\ns_bucket 1\n"
        assert lint_prometheus_text(bad_family)
        assert lint_prometheus_text("x 1\n# TYPE x gauge\nx 2\n")

    def test_lint_accepts_quantile_and_concatenated_blocks(self):
        block = ("# TYPE s summary\n"
                 's{quantile="0.5"} 1\n'
                 "s_sum 2\ns_count 3\n")
        assert lint_prometheus_text(block) == []
        other = "# TYPE g gauge\ng 1\n"
        assert lint_prometheus_text(block + other) == []
        assert lint_prometheus_text(
            '# TYPE s summary\ns{quantile="1.5"} 1\n'
        )


# -- LiveProgress ------------------------------------------------------------

class TestLiveProgress:
    def test_begin_beat_snapshot_rate_eta(self):
        clock = FakeClock()
        p = LiveProgress(run_id="r", clock=clock)
        beat = p.begin(1000, "sim.test")
        clock.advance(1.0)
        beat(500, 7)
        snap = p.snapshot()
        assert snap["done"] == 500 and snap["total"] == 1000
        assert snap["fraction"] == pytest.approx(0.5)
        assert snap["tasks_per_second"] == pytest.approx(500.0)
        assert snap["eta_seconds"] == pytest.approx(1.0)
        assert snap["live_tasks"] == 7
        assert snap["heartbeat_age_seconds"] == 0.0
        assert not snap["complete"]

    def test_heartbeat_age_grows_without_beats(self):
        clock = FakeClock()
        p = LiveProgress(clock=clock)
        beat = p.begin(10, "x")
        beat(1, 0)
        clock.advance(4.5)
        assert p.snapshot()["heartbeat_age_seconds"] == pytest.approx(4.5)

    def test_announce_total_feeds_unknown_total_begin(self):
        clock = FakeClock()
        p = LiveProgress(clock=clock)
        p.announce_total(4321)
        p.begin(None, "sim.stream")
        assert p.snapshot()["total"] == 4321

    def test_finish_marks_complete_and_pins_done(self):
        p = LiveProgress(clock=FakeClock())
        p.begin(10, "x")
        p.finish(10)
        snap = p.snapshot()
        assert snap["complete"] and snap["done"] == 10
        assert snap["eta_seconds"] is None

    def test_campaign_hold_shields_nested_runs(self):
        clock = FakeClock()
        p = LiveProgress(clock=clock)
        p.hold("sweep:test", 20)
        nested_beat = p.begin(99999, "sim.materialized")  # a sweep point
        clock.advance(1.0)
        nested_beat(5000, 3)  # refreshes the heartbeat only
        p.finish(99999)  # nested finish is a no-op while held
        snap = p.snapshot()
        assert snap["phase"] == "sweep:test"
        assert snap["total"] == 20 and snap["done"] == 0
        assert snap["heartbeat_age_seconds"] == 0.0
        assert not snap["complete"]
        p.set_points(12, sweep_cache_hits=4)
        p.release()
        snap = p.snapshot()
        assert snap["done"] == 12 and snap["complete"]
        assert snap["gauges"]["sweep_cache_hits"] == 4


# -- on-demand counter rates -------------------------------------------------

class TestLivePlaneSnapshot:
    def test_counter_rates_are_monotonic_deltas(self):
        clock = FakeClock()
        reg = MetricsRegistry()
        c = reg.counter("sim.evictions", "e")
        plane = LivePlane(registry=reg, clock=clock)
        assert plane.snapshot()["counter_rates"] == {}  # the baseline totals
        c.inc(30)
        clock.advance(2.0)
        snap = plane.snapshot()
        assert snap["counter_rates"]["sim.evictions"] == pytest.approx(15.0)
        assert snap["counter_totals"]["sim.evictions"] == 30.0
        c.inc(10)
        clock.advance(1.0)
        assert plane.snapshot()["counter_rates"]["sim.evictions"] == pytest.approx(10.0)

    def test_too_soon_poll_carries_the_last_rates(self):
        clock = FakeClock()
        reg = MetricsRegistry()
        c = reg.counter("sim.spills", "s")
        plane = LivePlane(registry=reg, clock=clock)
        plane.snapshot()
        c.inc(20)
        clock.advance(1.0)
        assert plane.snapshot()["counter_rates"]["sim.spills"] == pytest.approx(20.0)
        c.inc(500)
        clock.advance(0.01)  # no fresh delta over a tiny dt
        snap = plane.snapshot()
        assert snap["counter_rates"]["sim.spills"] == pytest.approx(20.0)
        assert snap["counter_totals"]["sim.spills"] == 520.0
        clock.advance(0.99)  # measured from the last rate, not the carry
        assert plane.snapshot()["counter_rates"]["sim.spills"] == pytest.approx(500.0)


# -- EventLog alert flush ----------------------------------------------------

class TestAlertSeverityFlush:
    def test_alert_events_flush_immediately(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, run_id="r")
        log.emit("sim.progress", attrs={"done": 1})
        log.emit("live.stall", attrs={"rule": "stall"}, severity="alert")
        # without closing: the alert (and everything before it) is on disk
        on_disk = path.read_text(encoding="utf-8")
        assert "live.stall" in on_disk and '"severity":"alert"' in on_disk
        log.close()

    def test_plain_events_may_buffer(self, tmp_path):
        buf = io.StringIO()
        log = EventLog(buf, run_id="r")
        log.emit("a", attrs={})
        log.emit("b", attrs={}, severity="alert")
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [r["type"] for r in records] == ["a", "b"]
        assert records[1]["severity"] == "alert"
        assert "severity" not in records[0]


# -- the plane + server over real HTTP ---------------------------------------

def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.headers.get("Content-Type", ""), resp.read().decode("utf-8")


class TestLivePlaneServer:
    def test_endpoints_round_trip(self):
        with live_plane(port=0, run_id="srv") as plane:
            beat = run_started(1000, "sim.test")
            beat(400, 3)
            ctype, body = _get(plane.url + "/progress")
            assert ctype.startswith("application/json")
            snap = json.loads(body)
            assert snap["schema"] == "repro.obs.live/1"
            assert snap["done"] == 400 and snap["run_id"] == "srv"
            ctype, body = _get(plane.url + "/metrics")
            assert "version=0.0.4" in ctype
            assert lint_prometheus_text(body) == []
            assert "live_tasks_done 400" in body
            _, body = _get(plane.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "ok" and health["run_id"] == "srv"
            assert health["uptime_seconds"] >= 0.0

    def test_unknown_route_404(self):
        with live_plane(port=0) as plane:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(plane.url + "/nope")
            assert err.value.code == 404

    def test_metrics_includes_registry_and_live_blocks(self):
        reg = MetricsRegistry()
        reg.counter("sim.tasks", "t").inc(7)
        plane = LivePlane(registry=reg, run_id="x")
        beat = plane.progress.begin(10, "p")
        beat(5, 1)
        text = plane.metrics_text()
        assert lint_prometheus_text(text) == []
        assert "sim_tasks_total 7" in text
        assert "live_tasks_done 5" in text


# -- rendering ---------------------------------------------------------------

class TestRenderProgressLine:
    def test_full_line(self):
        line = render_progress_line({
            "phase": "sim.stream", "done": 5000, "total": 147000,
            "fraction": 5000 / 147000, "tasks_per_second": 90000.0,
            "eta_seconds": 1.6, "heartbeat_age_seconds": 0.01,
            "complete": False,
        })
        assert "[sim.stream]" in line and "5,000/147,000" in line
        assert "90,000 tasks/s" in line and "eta 2s" in line

    def test_completion(self):
        line = render_progress_line({"phase": "p", "done": 1, "total": 1,
                                     "complete": True})
        assert "1/1" in line and "done ✓" in line


# -- CLI: repro watch --------------------------------------------------------

class TestWatchCommand:
    def test_watch_once_against_live_plane(self, capsys):
        from repro.cli import main

        with live_plane(port=0, run_id="w") as plane:
            beat = run_started(100, "sim.test")
            beat(42, 1)
            assert main(["watch", plane.url, "--once"]) == 0
            out = capsys.readouterr().out
            assert "42/100" in out
            assert main(["watch", str(plane.port), "--once", "--json"]) == 0
            snap = json.loads(capsys.readouterr().out)
            assert snap["done"] == 42

    def test_watch_port_file_and_unreachable(self, tmp_path, capsys):
        from repro.cli import main

        with live_plane(port=0) as plane:
            port_file = tmp_path / "port"
            port_file.write_text(f"{plane.port}\n")
            assert main(["watch", str(port_file), "--once"]) == 0
        capsys.readouterr()
        assert main(["watch", "127.0.0.1:1", "--once"]) == 1


# -- the acceptance test: endpoints of a real streamed run ------------------

@pytest.mark.slow
class TestLiveSubprocess:
    def test_conformant_endpoints_and_clean_exit(self, tmp_path):
        """A ``repro simulate --stream`` run of ~88k tasks (a few seconds)
        is polled while it runs: ``/healthz`` names the run, ``/progress``
        never goes backwards, ``/metrics`` is lint-clean, and the run
        exits 0."""
        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "simulate", "--stream",
             "--n", str(80 * 256), "--nb", "256",
             "--live-port", "0", "--live-port-file", str(port_file),
             "--run-id", "livetest"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        try:
            deadline = time.monotonic() + 120.0
            while not port_file.exists() and time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert port_file.exists(), (
                f"no port file; stderr: {proc.stderr.read() if proc.poll() is not None else '?'}"
            )
            base = f"http://127.0.0.1:{port_file.read_text().strip()}"

            _, body = _get(base + "/healthz")
            health = json.loads(body)
            assert health["status"] == "ok" and health["run_id"] == "livetest"

            polls = []
            metrics_ok = False
            while time.monotonic() < deadline and proc.poll() is None:
                try:
                    _, body = _get(base + "/progress")
                    snap = json.loads(body)
                    if not metrics_ok and snap["done"] > 0:
                        _, mtext = _get(base + "/metrics")
                        assert lint_prometheus_text(mtext) == []
                        assert "live_tasks_done" in mtext
                        metrics_ok = True
                except (OSError, http.client.HTTPException):
                    # the run finished between polls (or mid-response:
                    # the process exits under a daemon handler thread)
                    break
                assert not polls or snap["done"] >= polls[-1], "progress went backwards"
                polls.append(snap["done"])
                time.sleep(0.05)
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "makespan" in out
            assert metrics_ok, f"no mid-run /metrics poll (polls: {polls})"
            assert len(set(polls)) >= 2, f"progress never moved (polls: {polls})"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
