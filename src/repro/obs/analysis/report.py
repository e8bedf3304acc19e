"""Loaders and rendering behind ``repro analyze``, the one run reader.

``repro analyze <path>`` accepts:

* a Perfetto/Chrome trace JSON written by ``--trace-out`` (the slices
  are parsed back into :class:`~repro.runtime.tracing.TraceEvent`-shaped
  records, CONVERT site tags included);
* a run-summary JSON written by ``--metrics-out`` (the run header from
  its manifest; stats counters only — the ledger loses per-rank detail
  but keeps per-link per-precision totals);
* a JSONL event log written by ``--events-out`` (event counts by type,
  the last ``mle.iteration`` and, from its ``span`` events, the time by
  layer);
* a directory holding any of them — with a trace and a summary, the
  event-derived ledger is *reconciled* against the stats counters and
  any discrepancy is reported.  A capture without simulator stats (an
  ``mle`` run) is a header, an event census and its time by layer.

The output is a text report (run header, event counts, time by layer,
data-motion ledger, conversion-site table, critical path, per-engine
slack, utilization timeline) plus a machine-readable document
(``--json-out``).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Sequence

from ..events import iter_events
from ..exporters import run_stats
from .critical_path import critical_path, engine_slack, utilization_timeline
from .ledger import build_ledger, ledger_table, parse_precision

__all__ = ["analyze_path", "analyze_trace", "load_trace_events", "render_analysis"]


def load_trace_events(path: str | Path) -> list:
    """Parse a Perfetto trace JSON back into :class:`TraceEvent` records.

    Inverse of :func:`repro.obs.write_perfetto_trace` for the slice
    events (counters/metadata/instants are derived, so they are simply
    skipped on read).
    """
    from ...runtime.tracing import TraceEvent

    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    slices = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    events = []
    for sl in slices:
        args = sl.get("args") or {}
        t_start = float(sl["ts"]) / 1e6
        events.append(
            TraceEvent(
                rank=int(sl.get("pid", 0)),
                engine=str(sl.get("cat", "")),
                kind=str(sl.get("name", "")),
                t_start=t_start,
                t_end=t_start + float(sl.get("dur", 0.0)) / 1e6,
                precision=parse_precision(args.get("precision")),
                bytes=int(args.get("bytes", 0)),
                flops=float(args.get("flops", 0.0)),
                site=args.get("site") or None,
                src_precision=parse_precision(args.get("src_precision")),
                dst_precision=parse_precision(args.get("dst_precision")),
            )
        )
    return events


def _read_event_log(path: Path) -> tuple[dict, dict]:
    """Event counts by type (plus the last ``mle.iteration``) of a JSONL
    log, and its time by layer.

    The layers are the ``span`` events grouped by span name: calls, total
    seconds and self seconds (total minus the direct child spans').  A
    span closes after its children, so the children's time is waiting
    under its path when it does.
    """
    by_type: Counter[str] = Counter()
    run_ids: set[str] = set()
    last_iteration = None
    layers: dict[str, dict] = {}
    in_children: Counter[str] = Counter()  # span path -> closed direct children's seconds
    for ev in iter_events(path):
        type_ = ev.get("type", "?")
        by_type[type_] += 1
        if ev.get("run_id"):
            run_ids.add(ev["run_id"])
        if type_ == "mle.iteration":
            last_iteration = ev.get("attrs")
        elif type_ == "span":
            span_path, seconds = ev["span"], ev["attrs"]["duration_seconds"]
            parent, _, name = span_path.rpartition("/")
            if parent:
                in_children[parent] += seconds
            row = layers.setdefault(name, {"calls": 0, "total_seconds": 0.0, "self_seconds": 0.0})
            row["calls"] += 1
            row["total_seconds"] += seconds
            row["self_seconds"] += seconds - in_children.pop(span_path, 0.0)
    summary = {
        "path": str(path),
        "n_events": sum(by_type.values()),
        "run_ids": sorted(run_ids),
        "by_type": dict(sorted(by_type.items())),
        "last_mle_iteration": last_iteration,
    }
    return summary, dict(sorted(layers.items(), key=lambda kv: -kv[1]["total_seconds"]))


def analyze_trace(
    events: Sequence | None = None,
    stats: dict | None = None,
    *,
    n_buckets: int = 20,
) -> dict:
    """Assemble the full analysis document from events and/or stats."""
    ledger = build_ledger(events=events, stats=stats)
    doc: dict = {
        "schema": "repro.obs.analysis/1",
        "ledger": ledger.to_dict(),
    }
    if events and stats is not None:
        mismatches = ledger.reconcile(stats)
        doc["reconciliation"] = {"checked": True, "mismatches": mismatches}
    else:
        doc["reconciliation"] = {"checked": False, "mismatches": []}
    if events:
        cp = critical_path(events)
        doc["critical_path"] = cp.to_dict()
        doc["slack_seconds"] = {
            f"rank{rank}/{engine}": slack
            for (rank, engine), slack in engine_slack(events, cp.makespan).items()
        }
        doc["utilization"] = utilization_timeline(
            events, makespan=cp.makespan, n_buckets=n_buckets
        )
    if stats is not None:
        doc["stats"] = dict(stats)
    return doc


def _sparkline(fractions: Sequence[float]) -> str:
    glyphs = " ▁▂▃▄▅▆▇█"
    return "".join(glyphs[min(8, int(f * 8.999))] for f in fractions)


def render_analysis(doc: dict) -> str:
    """Human-readable rendering of an :func:`analyze_trace` document."""
    lines: list[str] = []
    run = doc.get("run")
    if run:
        lines.append(
            f"run {run.get('run_id') or '<unnamed>'}: command {run.get('command')}, "
            f"seed {run.get('seed')}, git rev {run.get('git_revision')}"
        )
    log = doc.get("event_log")
    if log:
        lines.append(
            f"{log['n_events']} events in {log['path']}, run(s) {', '.join(log['run_ids'])}"
        )
        lines.extend(f"    {type_:<24} {count}" for type_, count in log["by_type"].items())
        last = log.get("last_mle_iteration")
        if last:
            lines.append(
                f"  last MLE iteration: k={last.get('k')} "
                f"loglik={last.get('loglik'):.4f} theta={last.get('theta')}"
            )
    layers = doc.get("layers")
    if layers:
        lines.append("time by layer (self = total minus direct child spans):")
        lines.append(f"    {'span':<28} {'calls':>7} {'total s':>11} {'self s':>11}")
        lines.extend(
            f"    {name:<28} {row['calls']:>7} {row['total_seconds']:>11.4f} "
            f"{row['self_seconds']:>11.4f}"
            for name, row in layers.items()
        )
    led = doc.get("ledger") or {}
    if led.get("rows") or led.get("conversions"):
        lines.append(ledger_table(led))
        saved = led.get("total_saved_bytes_vs_fp64", 0)
        total = led.get("total_bytes", 0)
        denom = total + saved
        pct = (saved / denom * 100.0) if denom else 0.0
        lines.append(
            f"total {total / 1e9:.3f} GB moved; "
            f"{saved / 1e9:.3f} GB ({pct:.1f}%) saved vs all-FP64"
        )
    else:
        lines.append("(no data-motion events)")

    rec = doc.get("reconciliation") or {}
    if rec.get("checked"):
        mism = rec.get("mismatches") or []
        if mism:
            lines.append("RECONCILIATION FAILED:")
            lines.extend(f"  {m}" for m in mism)
        else:
            lines.append("ledger reconciles exactly with RunStats counters ✓")

    cp = doc.get("critical_path")
    if cp:
        lines.append("")
        lines.append(
            f"critical path: {cp['n_events']} events, "
            f"{cp['length_seconds']:.6f} s of {cp['makespan_seconds']:.6f} s makespan "
            f"(gaps {cp['gap_seconds']:.2e} s)"
        )
        for title, key in (("by engine", "time_by_engine"), ("by kind", "time_by_kind")):
            parts = ", ".join(
                f"{name} {seconds:.4f}s"
                for name, seconds in sorted(
                    (cp.get(key) or {}).items(), key=lambda kv: -kv[1]
                )
            )
            if parts:
                lines.append(f"  {title}: {parts}")

    util = doc.get("utilization")
    if util:
        lines.append("")
        lines.append("utilization over the makespan (one cell per bucket):")
        for engine, fractions in util.items():
            mean = sum(fractions) / len(fractions) if fractions else 0.0
            lines.append(f"  {engine:<8}|{_sparkline(fractions)}| mean {mean * 100:5.1f}%")

    slack = doc.get("slack_seconds")
    if slack:
        worst = sorted(slack.items(), key=lambda kv: kv[1])[:4]
        lines.append(
            "least slack: "
            + ", ".join(f"{name} {seconds:.4f}s" for name, seconds in worst)
        )
    return "\n".join(lines)


def analyze_path(path: str | Path, *, n_buckets: int = 20) -> dict:
    """Analyze a trace file, summary file, event log, or run directory.

    Returns the analysis document; raises ``ValueError`` when the path
    holds nothing analyzable.
    """
    path = Path(path)
    trace_file: Path | None = None
    stats: dict | None = None
    manifest: dict | None = None
    event_log: Path | None = None

    def classify(file: Path) -> None:
        nonlocal trace_file, stats, manifest, event_log
        if file.suffix == ".jsonl":
            event_log = event_log or file
            return
        try:
            doc = json.loads(file.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return
        if not isinstance(doc, dict):
            return
        if "traceEvents" in doc:
            trace_file = trace_file or file
            return
        if stats is None:
            stats = run_stats(doc)
        if manifest is None and isinstance(doc.get("manifest"), dict):
            manifest = doc["manifest"]

    if path.is_dir():
        for file in sorted([*path.glob("*.json"), *path.glob("*.jsonl")]):
            classify(file)
    elif path.is_file():
        classify(path)
    else:
        raise ValueError(f"no such file or directory: {path}")

    if trace_file is None and stats is None and manifest is None and event_log is None:
        raise ValueError(
            f"nothing analyzable under {path}: expected a Perfetto trace JSON "
            "(--trace-out), a run-summary JSON (--metrics-out) and/or a JSONL "
            "event log (--events-out)"
        )
    events = load_trace_events(trace_file) if trace_file is not None else None
    doc = analyze_trace(events=events, stats=stats, n_buckets=n_buckets)
    if manifest is not None:
        doc["run"] = {key: manifest.get(key)
                      for key in ("run_id", "command", "seed", "git_revision")}
    if event_log is not None:
        doc["event_log"], layers = _read_event_log(event_log)
        if layers:
            doc["layers"] = layers
    doc["source"] = {
        "trace": str(trace_file) if trace_file else None,
        "stats": "embedded" if stats is not None else None,
        "path": str(path),
    }
    return doc
