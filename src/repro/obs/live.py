"""The live scrape server: a running process's registry over HTTP.

Every other :mod:`repro.obs` layer is post-hoc — you learn how a run
went only after it ends.  :class:`LivePlane` serves the process registry
*while it runs*, from a stdlib :mod:`http.server` on a daemon thread:
``/metrics`` (Prometheus text, reusing
:func:`~repro.obs.exporters.to_prometheus_text`; a scraper computes
rates from the counters itself) and ``/healthz`` (run id and uptime).

The plane only reports: nothing in it judges a run or stops one, and no
layer below the CLI knows it exists — the counters it serves are the
ones the engine ticks anyway.  One plane per process, installed with
:func:`live_plane` (the CLI's ``--live-port`` flag).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from ._runtime import get_registry
from .exporters import to_prometheus_text
from .metrics import MetricsRegistry

__all__ = ["LivePlane", "get_plane", "install_plane", "live_plane"]


def _make_handler(plane: "LivePlane") -> type:
    from http.server import BaseHTTPRequestHandler

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
                elif path in ("/", "/healthz"):
                    doc = json.dumps(plane.health(), sort_keys=True) + "\n"
                    self._send(200, doc, "application/json")
                else:
                    self._send(404, json.dumps({"error": f"no route {path}"}) + "\n",
                               "application/json")
            except BrokenPipeError:
                pass

    return _LiveHandler


class LivePlane:
    """One process's live telemetry: its registry and, given a port, the
    ``/metrics`` + ``/healthz`` server on a daemon thread.

    Binds ``127.0.0.1`` only — this is a run-local scrape endpoint, not a
    public service.  ``port=0`` asks the OS for an ephemeral port; the
    bound port is ``self.port`` (the CLI prints it and can write it to
    ``--live-port-file`` for pollers).
    """

    def __init__(
        self,
        *,
        port: int | None = None,
        registry: MetricsRegistry | None = None,
        run_id: str | None = None,
    ) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.run_id = run_id
        self._t0 = time.monotonic()
        self._httpd = None
        self._thread: threading.Thread | None = None
        if port is not None:
            from http.server import ThreadingHTTPServer

            self._httpd = ThreadingHTTPServer(("127.0.0.1", port), _make_handler(self))
            self._httpd.daemon_threads = True

    @property
    def port(self) -> int | None:
        return int(self._httpd.server_address[1]) if self._httpd is not None else None

    @property
    def url(self) -> str | None:
        return f"http://127.0.0.1:{self.port}" if self._httpd is not None else None

    def start(self) -> None:
        if self._httpd is None or self._thread is not None:
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

    def health(self) -> dict:
        return {
            "status": "ok",
            "run_id": self.run_id,
            "uptime_seconds": time.monotonic() - self._t0,
        }

    def metrics_text(self) -> str:
        """Prometheus exposition of the process registry."""
        return to_prometheus_text(self.registry)


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
    run_id: str | None = None,
    registry: MetricsRegistry | None = None,
) -> Iterator[LivePlane]:
    """Run a live plane for the duration of the ``with`` block."""
    plane = LivePlane(port=port, run_id=run_id, registry=registry)
    plane.start()
    previous = install_plane(plane)
    try:
        yield plane
    finally:
        install_plane(previous)
        plane.stop()
