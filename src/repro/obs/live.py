"""The live telemetry plane: in-flight progress, scrape endpoints, watchdogs.

Every other :mod:`repro.obs` layer is post-hoc — you learn a run stalled
only after it ends.  This module makes a running process observable
*while it runs*, with near-zero cost when disabled:

* :class:`LiveProgress` — thread-safe in-flight state (tasks done /
  total, live tasks, heartbeat timestamps, free-form gauges) fed by
  heartbeat hooks in the simulator hot loop, the sweep engine, and the
  distributed executor.  When no plane is installed the hooks resolve to
  ``None`` and the hot loops pay a single ``is not None`` test per task.
* :class:`SnapshotBus` — a daemon thread that every ``interval`` seconds
  captures a snapshot: the progress state (tasks/sec EWMA, ETA,
  heartbeat age) plus **monotonic deltas** of every registry counter as
  per-second rates (eviction/spill/host-pressure rates come free from
  the counters the engine already ticks).
* :class:`LiveServer` — a stdlib :mod:`http.server` on a daemon thread
  exposing ``/metrics`` (Prometheus text, reusing
  :func:`~repro.obs.exporters.to_prometheus_text`), ``/progress``
  (the JSON snapshot, schema ``repro.obs.live/1``), and ``/healthz``.
* the :class:`~repro.obs.alerts.Watchdog` rides the bus: every snapshot
  is judged against the declarative alert rules, and a fired ``abort``
  rule raises :class:`~repro.obs.alerts.WatchdogAbort` out of the run's
  next heartbeat.

One plane per process, installed with :func:`live_plane` (the CLI's
``--live-port``/``--alert`` flags) — instrumentation sites call
:func:`run_started` / :func:`run_finished` / :func:`set_live_gauge`
unconditionally, exactly like :func:`~repro.obs._runtime.emit_event`.
``repro watch <url>`` polls ``/progress`` and renders
:func:`render_progress_line`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Iterable, Iterator, Mapping

from ._runtime import get_registry
from .alerts import AlertRule, Watchdog, WatchdogAbort
from .exporters import to_prometheus_text
from .metrics import MetricsRegistry

__all__ = [
    "BEAT_STRIDE",
    "LIVE_SCHEMA",
    "LivePlane",
    "LiveProgress",
    "LiveServer",
    "SnapshotBus",
    "announce_total",
    "campaign",
    "campaign_progress",
    "get_plane",
    "install_plane",
    "live_plane",
    "render_progress_line",
    "run_started",
    "run_finished",
    "set_live_gauge",
]

LIVE_SCHEMA = "repro.obs.live/1"

#: hot loops call their beat hook once per this many tasks — at the
#: ~1e5 tasks/s the simulator sustains that is a few hundred calls per
#: second, far below measurable overhead, yet stall detection still
#: resolves well under one bus interval
BEAT_STRIDE = 256

#: EWMA smoothing factor for the tasks/sec rate (per bus interval)
_RATE_ALPHA = 0.3

#: ignore rate samples shorter than this (an on-demand /progress poll
#: right after a bus tick would otherwise divide by a tiny dt)
_MIN_RATE_DT = 0.1


class LiveProgress:
    """Thread-safe in-flight progress state of the current run.

    Hot loops hold the bound ``beat`` callable returned by
    :meth:`begin` — one heartbeat per :data:`BEAT_STRIDE` tasks updates
    ``done``/``live_tasks`` and the heartbeat timestamp, and raises
    :class:`WatchdogAbort` once an abort rule has fired.  A *held*
    campaign (``repro sweep``) owns the done/total fields at
    point granularity; nested simulator runs then only refresh the
    heartbeat, so stall detection still sees intra-point liveness.
    """

    def __init__(self, *, run_id: str | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.run_id = run_id
        self._clock = clock
        self._lock = threading.Lock()
        self._phase = "idle"
        self._done = 0
        self._total: int | None = None
        self._total_hint: int | None = None
        self._live_tasks = 0
        self._gauges: dict[str, float] = {}
        self._t_begin: float | None = None
        self._last_beat: float | None = None
        self._complete = False
        self._held = False
        self._rate_ewma: float | None = None
        self._rate_mark: tuple[float, int] | None = None
        self._abort_reason: str | None = None
        # synthetic-stall injection (testing / the CI smoke job)
        self._stall_after: int | None = None
        self._stall_seconds = 0.0
        self._stall_fired = False

    # -- lifecycle hooks (called by instrumented run loops) ---------------
    def announce_total(self, total: int) -> None:
        """Pre-announce the task total (callers that know it before the
        loop does — e.g. ``cholesky_task_count`` ahead of a stream run)."""
        with self._lock:
            self._total_hint = int(total)
            if not self._held:
                self._total = int(total)

    def begin(self, total: int | None, phase: str) -> Callable[[int, int], None]:
        """Start (or, under a held campaign, join) a run; returns the beat."""
        with self._lock:
            if self._held:
                return self._touch
            now = self._clock()
            self._phase = phase
            self._done = 0
            self._total = int(total) if total is not None else self._total_hint
            self._live_tasks = 0
            self._t_begin = now
            self._last_beat = now
            self._complete = False
            self._rate_ewma = None
            self._rate_mark = (now, 0)
        return self._beat

    def finish(self, done: int | None = None) -> None:
        with self._lock:
            if self._held:
                return
            if done is not None:
                self._done = int(done)
            if self._total is None:
                self._total = self._done
            self._last_beat = self._clock()
            self._complete = True

    def hold(self, phase: str, total: int) -> None:
        """Enter campaign mode: this layer owns done/total per point."""
        with self._lock:
            now = self._clock()
            self._held = True
            self._phase = phase
            self._done = 0
            self._total = int(total)
            self._live_tasks = 0
            self._t_begin = now
            self._last_beat = now
            self._complete = False
            self._rate_ewma = None
            self._rate_mark = (now, 0)

    def release(self, *, complete: bool = True) -> None:
        with self._lock:
            self._held = False
            self._last_beat = self._clock()
            self._complete = complete

    def set_points(self, done: int, **gauges: float) -> None:
        """Campaign-mode progress: completed points plus counters."""
        with self._lock:
            self._done = int(done)
            self._last_beat = self._clock()
            for name, value in gauges.items():
                self._gauges[name] = float(value)
        self._check_abort()

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def request_abort(self, reason: str) -> None:
        """Arm the abort: the run's next heartbeat raises WatchdogAbort."""
        with self._lock:
            if self._abort_reason is None:
                self._abort_reason = reason

    @property
    def abort_reason(self) -> str | None:
        return self._abort_reason

    # -- the hot-path hooks ------------------------------------------------
    def _beat(self, done: int, live_tasks: int = 0) -> None:
        with self._lock:
            self._done = done
            self._live_tasks = live_tasks
            self._last_beat = self._clock()
            stall = (
                self._stall_after is not None
                and not self._stall_fired
                and done >= self._stall_after
            )
            if stall:
                self._stall_fired = True
        if stall:
            # sleep on the caller's (hot-loop) thread: the loop genuinely
            # stalls while the bus/watchdog threads keep observing it
            time.sleep(self._stall_seconds)
        self._check_abort()

    def _touch(self, done: int, live_tasks: int = 0) -> None:
        """Heartbeat-only beat used under a held campaign."""
        with self._lock:
            self._live_tasks = live_tasks
            self._last_beat = self._clock()
        self._check_abort()

    def _check_abort(self) -> None:
        reason = self._abort_reason
        if reason is not None:
            raise WatchdogAbort(reason)

    def configure_stall(self, after_tasks: int, seconds: float) -> None:
        """(testing) sleep ``seconds`` once ``after_tasks`` tasks complete."""
        with self._lock:
            self._stall_after = int(after_tasks)
            self._stall_seconds = float(seconds)
            self._stall_fired = False

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """The progress document (schema ``repro.obs.live/1``), updating
        the tasks/sec EWMA from the delta since the previous snapshot."""
        with self._lock:
            now = self._clock()
            done = self._done
            total = self._total
            if self._rate_mark is not None:
                t_mark, done_mark = self._rate_mark
                dt = now - t_mark
                if dt >= _MIN_RATE_DT:
                    inst = max(0.0, (done - done_mark) / dt)
                    if self._rate_ewma is None:
                        self._rate_ewma = inst
                    else:
                        self._rate_ewma += _RATE_ALPHA * (inst - self._rate_ewma)
                    self._rate_mark = (now, done)
            rate = self._rate_ewma
            eta = None
            if rate and total is not None and total > done and not self._complete:
                eta = (total - done) / rate
            fraction = None
            if total:
                fraction = min(1.0, done / total)
            elapsed = (now - self._t_begin) if self._t_begin is not None else None
            age = (now - self._last_beat) if self._last_beat is not None else None
            return {
                "schema": LIVE_SCHEMA,
                "run_id": self.run_id,
                "phase": self._phase,
                "done": done,
                "total": total,
                "fraction": fraction,
                "tasks_per_second": rate,
                "eta_seconds": eta,
                "live_tasks": self._live_tasks,
                "elapsed_seconds": elapsed,
                "heartbeat_age_seconds": age,
                "complete": self._complete,
                "aborting": self._abort_reason,
                "gauges": dict(self._gauges),
            }


class SnapshotBus:
    """Periodic snapshot capture: progress + monotonic counter deltas.

    Every capture diffs the registry's counter totals against the
    previous capture and reports per-second rates, so any counter the
    run already ticks (``sim.evictions``, ``sim.host_evictions``,
    ``sim.spills``, ``sweep.cache_hits``…) becomes a live rate with no
    extra hot-path instrumentation.  Subscribers (the watchdog) run on
    every capture — the periodic daemon-thread tick *and* on-demand
    ``/progress`` polls — so alerts fire at poll granularity, never
    slower than the interval.
    """

    def __init__(
        self,
        progress: LiveProgress,
        *,
        registry: MetricsRegistry | None = None,
        interval: float = 1.0,
        history: int = 120,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        self.progress = progress
        self.registry = registry if registry is not None else get_registry()
        self.interval = float(interval)
        self._clock = clock
        self._lock = threading.Lock()
        self._subscribers: list[Callable[[dict], None]] = []
        self._history: deque[dict] = deque(maxlen=max(1, history))
        self._prev_totals: dict[str, float] | None = None
        self._prev_t: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def subscribe(self, fn: Callable[[dict], None]) -> None:
        self._subscribers.append(fn)

    @property
    def history(self) -> list[dict]:
        with self._lock:
            return list(self._history)

    def _counter_totals(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for metric in self.registry:
            if metric.kind != "counter":
                continue
            total = 0.0
            for series in metric.to_dict().get("series", []):
                value = series.get("value")
                if isinstance(value, (int, float)):
                    total += value
            totals[metric.name] = total
        return totals

    def capture(self) -> dict:
        """Take one snapshot, append it to history, notify subscribers."""
        with self._lock:
            now = self._clock()
            snap = self.progress.snapshot()
            totals = self._counter_totals()
            rates: dict[str, float] = {}
            if self._prev_t is not None:
                dt = now - self._prev_t
                if dt >= _MIN_RATE_DT:
                    for name, total in totals.items():
                        delta = total - (self._prev_totals or {}).get(name, 0.0)
                        rates[name] = max(0.0, delta / dt)
                    self._prev_totals, self._prev_t = totals, now
                elif self._history:
                    # too soon for a fresh delta: carry the last rates
                    rates = dict(self._history[-1].get("counter_rates") or {})
            else:
                self._prev_totals, self._prev_t = totals, now
            snap["counter_rates"] = rates
            snap["counter_totals"] = totals
            self._history.append(snap)
        for fn in list(self._subscribers):
            try:
                fn(snap)
            except WatchdogAbort:
                raise
            except Exception:
                pass  # a broken subscriber must never kill the bus
        return snap

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-live-bus", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(2.0, 2 * self.interval))
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.capture()
            except Exception:
                pass  # the bus outlives any single bad capture


# -- scrape server -----------------------------------------------------------

def _make_handler(plane: "LivePlane") -> type:
    class _LiveHandler(BaseHTTPRequestHandler):
        server_version = "repro-live/1"

        def log_message(self, *args) -> None:  # silence per-request stderr
            pass

        def _send(self, status: int, body: str, content_type: str) -> None:
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            try:
                if path == "/metrics":
                    self._send(200, plane.metrics_text(),
                               "text/plain; version=0.0.4; charset=utf-8")
                elif path == "/progress":
                    doc = json.dumps(plane.snapshot(), sort_keys=True) + "\n"
                    self._send(200, doc, "application/json")
                elif path in ("/", "/healthz"):
                    doc = json.dumps(plane.health(), sort_keys=True) + "\n"
                    self._send(200, doc, "application/json")
                else:
                    self._send(404, json.dumps({"error": f"no route {path}"}) + "\n",
                               "application/json")
            except BrokenPipeError:
                pass

    return _LiveHandler


class LiveServer:
    """``/metrics`` + ``/progress`` + ``/healthz`` on a daemon thread.

    Binds ``127.0.0.1`` only — this is a run-local scrape endpoint, not a
    public service.  ``port=0`` asks the OS for an ephemeral port; the
    bound port is ``self.port`` (the CLI prints it and can write it to
    ``--live-port-file`` for pollers).
    """

    def __init__(self, plane: "LivePlane", *, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(plane))
        self._httpd.daemon_threads = True
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-live-http",
            kwargs={"poll_interval": 0.1}, daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._httpd.shutdown()
        thread.join(timeout=5.0)
        self._httpd.server_close()
        self._thread = None


# -- the plane facade --------------------------------------------------------

class LivePlane:
    """One process's live telemetry: progress + bus + watchdog + server."""

    def __init__(
        self,
        *,
        port: int | None = None,
        interval: float = 1.0,
        rules: Iterable[AlertRule] = (),
        registry: MetricsRegistry | None = None,
        run_id: str | None = None,
        history: int = 120,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.progress = LiveProgress(run_id=run_id, clock=clock)
        self.bus = SnapshotBus(
            self.progress, registry=self.registry, interval=interval,
            history=history, clock=clock,
        )
        rules = list(rules)
        self.watchdog = (
            Watchdog(rules, abort_hook=self.progress.request_abort, clock=clock)
            if rules else None
        )
        if self.watchdog is not None:
            self.bus.subscribe(self._judge)
        self.server = LiveServer(self, port=port) if port is not None else None
        self._t0 = clock()
        self._clock = clock

    def _judge(self, snap: dict) -> None:
        assert self.watchdog is not None
        snap["alerts"] = self.watchdog.observe(snap)

    @property
    def port(self) -> int | None:
        return self.server.port if self.server is not None else None

    @property
    def url(self) -> str | None:
        return self.server.url if self.server is not None else None

    def start(self) -> None:
        self.bus.start()
        if self.server is not None:
            self.server.start()

    def stop(self) -> None:
        try:
            self.bus.capture()  # final snapshot: the completed state
        except Exception:
            pass
        if self.server is not None:
            self.server.stop()
        self.bus.stop()

    def configure_stall(self, after_tasks: int, seconds: float) -> None:
        self.progress.configure_stall(after_tasks, seconds)

    # -- endpoint payloads -------------------------------------------------
    def snapshot(self) -> dict:
        snap = self.bus.capture()
        snap.setdefault("alerts", [])
        return snap

    def health(self) -> dict:
        active = self.watchdog.active if self.watchdog is not None else []
        return {
            "status": "alerting" if active else "ok",
            "run_id": self.progress.run_id,
            "alerts": active,
            "uptime_seconds": self._clock() - self._t0,
            "n_rules": len(self.watchdog.rules) if self.watchdog is not None else 0,
        }

    def metrics_text(self) -> str:
        """Prometheus exposition: the process registry plus a ``live.*``
        block rendered from the freshest snapshot (separate namespace, so
        the two concatenated expositions never collide)."""
        snap = self.snapshot()
        live = MetricsRegistry()

        def g(name: str, help_: str, value, **labels) -> None:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                live.gauge(name, help_).set(float(value), **labels)

        g("live.tasks_done", "tasks completed by the current run", snap["done"])
        g("live.tasks_total", "task total of the current run", snap["total"])
        g("live.tasks_per_second", "EWMA scheduling rate", snap["tasks_per_second"])
        g("live.eta_seconds", "estimated seconds to completion", snap["eta_seconds"])
        g("live.tasks_in_flight", "tasks live in the scheduling window",
          snap["live_tasks"])
        g("live.heartbeat_age_seconds", "seconds since the last heartbeat",
          snap["heartbeat_age_seconds"])
        g("live.elapsed_seconds", "seconds since the run began",
          snap["elapsed_seconds"])
        g("live.complete", "1 once the run finished", 1 if snap["complete"] else 0)
        g("live.alerts_active", "watchdog rules currently breached",
          len(snap.get("alerts") or []))
        for name, value in (snap.get("gauges") or {}).items():
            g("live.gauge", "free-form live gauges", value, name=name)
        for name, rate in (snap.get("counter_rates") or {}).items():
            g("live.counter_rate", "per-second registry counter rates",
              rate, metric=name)
        return to_prometheus_text(self.registry) + to_prometheus_text(live)


# -- the process-global plane ------------------------------------------------

_plane: LivePlane | None = None
_plane_lock = threading.Lock()


def get_plane() -> LivePlane | None:
    return _plane


def install_plane(plane: LivePlane | None) -> LivePlane | None:
    """Install ``plane`` as the process live plane; returns the previous."""
    global _plane
    with _plane_lock:
        previous = _plane
        _plane = plane
    return previous


@contextmanager
def live_plane(
    *,
    port: int | None = None,
    interval: float = 1.0,
    rules: Iterable[AlertRule] = (),
    run_id: str | None = None,
    registry: MetricsRegistry | None = None,
) -> Iterator[LivePlane]:
    """Run a live plane for the duration of the ``with`` block."""
    plane = LivePlane(port=port, interval=interval, rules=rules,
                      run_id=run_id, registry=registry)
    plane.start()
    previous = install_plane(plane)
    try:
        yield plane
    finally:
        install_plane(previous)
        plane.stop()


def run_started(total: int | None, phase: str) -> Callable[[int, int], None] | None:
    """Hot-loop hook: ``None`` when no plane is installed, else the beat.

    The loop holds the returned callable in a local and calls it every
    :data:`BEAT_STRIDE` tasks — ``beat(done, live_tasks)``.
    """
    plane = _plane
    if plane is None:
        return None
    return plane.progress.begin(total, phase)


def run_finished(done: int | None = None) -> None:
    plane = _plane
    if plane is not None:
        plane.progress.finish(done)


def announce_total(total: int) -> None:
    plane = _plane
    if plane is not None:
        plane.progress.announce_total(total)


def set_live_gauge(name: str, value: float) -> None:
    """Publish one free-form gauge to the live plane (no-op when none)."""
    plane = _plane
    if plane is not None:
        plane.progress.set_gauge(name, value)


@contextmanager
def campaign(phase: str, total: int) -> Iterator[None]:
    """Campaign scope (``run_sweep``): own done/total at point granularity;
    nested simulator runs only refresh the heartbeat."""
    plane = _plane
    if plane is None:
        yield
        return
    plane.progress.hold(phase, total)
    try:
        yield
    finally:
        plane.progress.release()


def campaign_progress(done: int, **gauges: float) -> None:
    """Campaign-mode heartbeat: completed points plus counters (no-op
    without a plane).  Raises WatchdogAbort once an abort rule fired."""
    plane = _plane
    if plane is not None:
        plane.progress.set_points(done, **gauges)


# -- rendering (repro watch) -------------------------------------------------

def render_progress_line(snap: Mapping) -> str:
    """One compact human line for a ``/progress`` snapshot."""
    phase = snap.get("phase") or "?"
    done = snap.get("done") or 0
    total = snap.get("total")
    parts = [f"[{phase}]"]
    if total:
        fraction = snap.get("fraction")
        pct = f" ({fraction * 100.0:.1f}%)" if isinstance(fraction, (int, float)) else ""
        parts.append(f"{done:,}/{total:,}{pct}")
    else:
        parts.append(f"{done:,} done")
    rate = snap.get("tasks_per_second")
    if isinstance(rate, (int, float)):
        parts.append(f"{rate:,.0f} tasks/s")
    eta = snap.get("eta_seconds")
    if isinstance(eta, (int, float)):
        parts.append(f"eta {eta:.0f}s")
    age = snap.get("heartbeat_age_seconds")
    if isinstance(age, (int, float)):
        parts.append(f"hb {age:.1f}s")
    alerts = snap.get("alerts") or []
    if alerts:
        parts.append("ALERTS: " + ",".join(str(a) for a in alerts))
    if snap.get("complete"):
        parts.append("done ✓")
    return "  ".join(parts)
