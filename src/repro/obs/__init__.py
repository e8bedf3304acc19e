"""repro.obs — unified telemetry for the whole stack.

The paper's claims are measurements; this package is where the
reproduction measures itself.  Four pieces, shared by every layer:

* **metrics** (:mod:`repro.obs.metrics`) — a process-global registry of
  labeled counters and gauges (``get_registry()``);
* **spans** (:mod:`repro.obs.spans`) — the one clock: nested timing
  contexts (``span("mle.fit", n=400)`` / ``@traced``) whose durations
  land in the event log, one check when no log is attached;
* **structured run logs** (:mod:`repro.obs.events`) — JSONL, one event
  per line with run id + monotonic timestamp + span path; attach a sink
  with ``event_log(path)`` and instrumented code lights up,
  detach and the same call sites cost nothing;
* **exporters + manifest** (:mod:`repro.obs.exporters`,
  :mod:`repro.obs.manifest`) — Perfetto traces with counter tracks,
  JSON run summaries, and a deterministic per-run manifest (config,
  seed, versions, git revision, platform);
* **analysis** (:mod:`repro.obs.analysis`) — the data-motion ledger
  (bytes per link/precision, STC-vs-TTC conversion attribution, savings
  vs all-FP64), critical-path and occupancy analysis (``repro
  analyze``);
* **regression sentinel** (:mod:`repro.obs.regress`) — thresholded
  BENCH/run-summary diffing with a machine-readable verdict (``repro
  compare``), wired into CI as a perf-trajectory gate;
* **profiler** (:mod:`repro.obs.profile`) — sampling wall-clock
  profiler + named hot regions (``--profile-out``);
* **live plane** (:mod:`repro.obs.live`, :mod:`repro.obs.alerts`) —
  in-flight progress snapshots, ``/metrics`` + ``/progress`` +
  ``/healthz`` scrape endpoints, and declarative stall/rate/pressure
  watchdogs (``--live-port``/``--alert``, ``repro watch``).

See ``docs/OBSERVABILITY.md`` for the capture-analyze-compare workflow.
"""

from . import alerts, analysis, live, profile, regress
from .alerts import AlertRule, Watchdog, WatchdogAbort, parse_alert_arg
from .analysis import analyze_path, analyze_trace, build_ledger, critical_path
from .live import (
    LivePlane,
    announce_total,
    campaign,
    campaign_progress,
    get_plane,
    live_plane,
    run_finished,
    run_started,
    set_live_gauge,
)
from .profile import SamplingProfiler, active_profiler, hot_region, write_profile
from .regress import compare_docs, compare_files

from ._runtime import (
    current_span_path,
    emit_event,
    event_log,
    get_event_log,
    get_registry,
    reset_metrics,
    set_event_log,
)
from .events import EventLog, iter_events, read_events
from .exporters import (
    lint_prometheus_text,
    run_summary,
    to_prometheus_text,
    write_json,
    write_perfetto_trace,
    write_run_summary,
)
from .manifest import build_manifest, git_revision, write_manifest
from .metrics import Counter, Gauge, Metric, MetricsRegistry
from .spans import Span, span, traced

__all__ = [
    "AlertRule",
    "Counter",
    "EventLog",
    "LivePlane",
    "SamplingProfiler",
    "Watchdog",
    "WatchdogAbort",
    "active_profiler",
    "alerts",
    "analysis",
    "analyze_path",
    "analyze_trace",
    "announce_total",
    "build_ledger",
    "campaign",
    "campaign_progress",
    "compare_docs",
    "compare_files",
    "critical_path",
    "get_plane",
    "hot_region",
    "lint_prometheus_text",
    "live",
    "live_plane",
    "parse_alert_arg",
    "profile",
    "regress",
    "run_finished",
    "run_started",
    "set_live_gauge",
    "write_profile",
    "Gauge",
    "Metric",
    "MetricsRegistry",
    "Span",
    "build_manifest",
    "current_span_path",
    "emit_event",
    "event_log",
    "get_event_log",
    "get_registry",
    "git_revision",
    "iter_events",
    "read_events",
    "reset_metrics",
    "run_summary",
    "set_event_log",
    "span",
    "to_prometheus_text",
    "traced",
    "write_json",
    "write_manifest",
    "write_perfetto_trace",
    "write_run_summary",
]
