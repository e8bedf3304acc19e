"""The live scrape server: ``/metrics`` and ``/healthz``.

Covers the Prometheus exposition conformance lint, the scrape server's
endpoints over real HTTP, the process-global plane's install and
restore, immediate flushing of alert-severity events,
and — the acceptance test — a real ``repro simulate --stream``
subprocess whose ``/healthz`` names the run and whose ``/metrics`` stays
conformant, with a registry counter rising between polls, until it
exits cleanly.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, lint_prometheus_text, to_prometheus_text
from repro.obs._runtime import get_registry
from repro.obs.events import EventLog
from repro.obs.live import LivePlane, get_plane, install_plane, live_plane


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
        reg = MetricsRegistry()
        reg.counter("sim.conversions", "c").inc(400)
        with live_plane(port=0, run_id="srv", registry=reg) as plane:
            ctype, body = _get(plane.url + "/metrics")
            assert "version=0.0.4" in ctype
            assert lint_prometheus_text(body) == []
            assert "sim_conversions_total 400" in body
            _, body = _get(plane.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "ok" and health["run_id"] == "srv"
            assert health["uptime_seconds"] >= 0.0

    def test_unknown_route_404(self):
        with live_plane(port=0) as plane:
            for route in ("/nope", "/progress"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(plane.url + route)
                assert err.value.code == 404

    def test_metrics_is_the_registry_exposition(self):
        reg = MetricsRegistry()
        reg.counter("sim.tasks", "t").inc(7)
        text = LivePlane(registry=reg, run_id="x").metrics_text()
        assert text == to_prometheus_text(reg)
        assert lint_prometheus_text(text) == []
        assert "sim_tasks_total 7" in text

    def test_scrape_reads_the_registry_at_request_time(self):
        reg = MetricsRegistry()
        tasks = reg.counter("sim.tasks", "t")
        tasks.inc(3)
        with live_plane(port=0, registry=reg) as plane:
            _, first = _get(plane.url + "/metrics")
            tasks.inc(4)
            _, second = _get(plane.url + "/metrics")
        assert "sim_tasks_total 3" in first
        assert "sim_tasks_total 7" in second

    def test_route_matching_ignores_query_and_trailing_slash(self):
        reg = MetricsRegistry()
        reg.gauge("g", "help").set(2.0)
        with live_plane(port=0, run_id="routes", registry=reg) as plane:
            for route in ("/metrics/", "/metrics?debug=1"):
                ctype, body = _get(plane.url + route)
                assert "version=0.0.4" in ctype and body == to_prometheus_text(reg)
            for route in ("/", "/healthz/", "/healthz?x=y"):
                ctype, body = _get(plane.url + route)
                assert ctype == "application/json"
                assert json.loads(body)["run_id"] == "routes"

    def test_unknown_route_body_names_the_route(self):
        with live_plane(port=0) as plane:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(plane.url + "/nope?q=1")
            assert json.loads(err.value.read().decode("utf-8")) == {
                "error": "no route /nope"}

    def test_uptime_grows_between_polls(self):
        with live_plane(port=0) as plane:
            first = json.loads(_get(plane.url + "/healthz")[1])["uptime_seconds"]
            time.sleep(0.02)
            second = json.loads(_get(plane.url + "/healthz")[1])["uptime_seconds"]
        assert 0.0 <= first < second

    def test_start_is_idempotent_and_stop_closes_the_port(self):
        def servers():
            return [t for t in threading.enumerate() if t.name == "repro-live-http"]

        before = len(servers())
        plane = LivePlane(port=0, registry=MetricsRegistry())
        plane.start()
        plane.start()
        assert len(servers()) == before + 1
        url = plane.url
        assert json.loads(_get(url + "/healthz")[1])["status"] == "ok"
        plane.stop()
        plane.stop()
        assert len(servers()) == before
        with pytest.raises(OSError):
            _get(url + "/healthz")


# -- the process-global plane ------------------------------------------------

class TestProcessPlane:
    def test_portless_plane_serves_nothing(self):
        plane = LivePlane(run_id="quiet")
        assert plane.port is None and plane.url is None
        assert plane.registry is get_registry()
        plane.start()
        plane.stop()
        assert plane.health()["run_id"] == "quiet"

    def test_install_plane_returns_the_previous(self):
        first, second = LivePlane(), LivePlane()
        outer = install_plane(first)
        try:
            assert get_plane() is first
            assert install_plane(second) is first
            assert get_plane() is second
        finally:
            assert install_plane(outer) is second
        assert get_plane() is outer

    def test_nested_live_planes_restore_in_order(self):
        outer = get_plane()
        with live_plane(run_id="a") as a:
            assert get_plane() is a
            with live_plane(run_id="b") as b:
                assert get_plane() is b
            assert get_plane() is a
        assert get_plane() is outer

    def test_an_error_in_the_block_stops_the_server_and_restores(self):
        outer = get_plane()
        with pytest.raises(RuntimeError, match="boom"):
            with live_plane(port=0) as plane:
                url = plane.url
                assert json.loads(_get(url + "/healthz")[1])["status"] == "ok"
                raise RuntimeError("boom")
        assert get_plane() is outer
        with pytest.raises(OSError):
            _get(url + "/healthz")


# -- the acceptance test: endpoints of a real streamed run ------------------

_CONVERSIONS = re.compile(r"^sim_conversions_total (\S+)$", re.MULTILINE)


@pytest.mark.slow
class TestLiveSubprocess:
    def test_conformant_endpoints_and_clean_exit(self, tmp_path):
        """A ``repro simulate --stream`` run of ~88k tasks (a few seconds)
        is scraped while it runs: ``/healthz`` names the run, every
        mid-run ``/metrics`` is lint-clean, ``sim.conversions`` never goes
        backwards and rises between polls, and the run exits 0."""
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
            while time.monotonic() < deadline and proc.poll() is None:
                try:
                    _, mtext = _get(base + "/metrics")
                except (OSError, http.client.HTTPException):
                    # the run finished between polls (or mid-response:
                    # the process exits under a daemon handler thread)
                    break
                assert lint_prometheus_text(mtext) == []
                found = _CONVERSIONS.findall(mtext)
                value = float(found[0]) if found else 0.0
                assert not polls or value >= polls[-1], "a counter went backwards"
                polls.append(value)
                time.sleep(0.05)
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "makespan" in out
            assert len(polls) >= 2, f"fewer than two mid-run polls: {polls}"
            assert len(set(polls)) >= 2, f"sim.conversions never rose (polls: {polls})"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
