"""Exporters: Perfetto traces, Prometheus text, JSON run summaries.

These sit on top of the simulator's :class:`~repro.runtime.tracing.TraceEvent`
stream and the metrics registry, and are what ``repro simulate
--trace-out/--metrics-out`` and the live ``/metrics`` endpoint call into.
The Perfetto trace format (the stand-in for PaRSEC's instrumentation
traces, the paper's ref [9]) is written and read back here, and nowhere
else.  Runtime imports happen inside the functions so ``repro.obs``
stays a leaf package every layer may import without cycles.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Mapping, Sequence

__all__ = [
    "RUN_SUMMARY_SCHEMA",
    "VERB_SECTIONS",
    "lint_prometheus_text",
    "load_trace_events",
    "read_run_summary",
    "to_prometheus_text",
    "run_summary",
    "write_perfetto_trace",
    "write_run_summary",
]

# -- Perfetto trace: the one writer and its reader ---------------------------

def _engine_tids() -> dict[str, int]:
    """One Perfetto thread row per engine: compute, then every link."""
    from ..runtime.tracing import LINKS

    return {engine: tid for tid, engine in enumerate(("compute", *LINKS))}


def _counter_events(events: Sequence) -> list[dict]:
    """Perfetto counter tracks per rank, sampled at every change point:

    * ``h2d inflight bytes`` / ``d2h inflight bytes`` — bytes currently
      on the wire of each copy engine;
    * ``nic bytes (cum)`` — cumulative bytes injected by each node's NIC;
    * ``conversions (cum)`` — running count of CONVERT compute events.

    There is no memory-pool track: the event stream does not carry
    residency (a GPU-produced tile is written back without ever being
    loaded, and a clean drop leaves no event).
    """
    deltas: list[tuple[float, int, str, float]] = []  # (ts_us, rank, track, delta)
    for ev in events:
        if ev.engine == "nic":
            deltas.append((ev.t_end * 1e6, ev.rank, "nic bytes (cum)", ev.bytes))
        elif ev.engine in ("h2d", "d2h"):
            track = f"{ev.engine} inflight bytes"
            deltas.append((ev.t_start * 1e6, ev.rank, track, ev.bytes))
            deltas.append((ev.t_end * 1e6, ev.rank, track, -ev.bytes))
        elif ev.engine == "compute" and ev.kind == "CONVERT":
            deltas.append((ev.t_end * 1e6, ev.rank, "conversions (cum)", 1))
    running: dict[tuple[int, str], float] = {}
    out: list[dict] = []
    for ts, rank, track, delta in sorted(deltas, key=lambda d: (d[0], d[1], d[2])):
        value = running.get((rank, track), 0.0) + delta
        running[(rank, track)] = value
        out.append({"name": track, "ph": "C", "ts": ts, "pid": rank,
                    "args": {"value": value}})
    return out


def _metadata_events(events: Sequence, tids: Mapping[str, int]) -> list[dict]:
    """Process/thread naming so Perfetto shows "rank N" / engine rows."""
    out: list[dict] = []
    for rank in sorted({ev.rank for ev in events}):
        out.append({"name": "process_name", "ph": "M", "pid": rank,
                    "args": {"name": f"rank {rank}"}})
        out.append({"name": "process_sort_index", "ph": "M", "pid": rank,
                    "args": {"sort_index": rank}})
    for rank, engine in sorted({(ev.rank, ev.engine) for ev in events}):
        tid = tids[engine]
        out.append({"name": "thread_name", "ph": "M", "pid": rank, "tid": tid,
                    "args": {"name": engine}})
        out.append({"name": "thread_sort_index", "ph": "M", "pid": rank, "tid": tid,
                    "args": {"sort_index": tid}})
    return out


def write_perfetto_trace(
    events: Sequence,
    path: str | Path,
    *,
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write the trace as Chrome/Perfetto trace-event JSON.

    One slice (``ph == "X"``) per event, sorted by timestamp (stable
    output for diffing), one thread row per (rank, engine), then the
    counter tracks of :func:`_counter_events` and the process/thread
    metadata that labels every row.  ``metadata`` (e.g. the scheduling
    policy) lands as the top-level ``"metadata"`` object, which Perfetto
    surfaces under Info & stats.  :func:`load_trace_events` reads it back.
    """
    tids = _engine_tids()
    ordered = sorted(events, key=lambda e: (e.t_start, e.rank, tids[e.engine]))
    out = []
    for ev in ordered:
        args = {
            "precision": ev.precision.name if ev.precision is not None else "",
            "bytes": ev.bytes,
            "flops": ev.flops,
        }
        if ev.site is not None:
            args["site"] = ev.site
            args["src_precision"] = (
                ev.src_precision.name if ev.src_precision is not None else ""
            )
            args["dst_precision"] = (
                ev.dst_precision.name if ev.dst_precision is not None else ""
            )
        out.append(
            {
                "name": ev.kind,
                "cat": ev.engine,
                "ph": "X",
                "ts": ev.t_start * 1e6,  # microseconds
                "dur": max(ev.t_end - ev.t_start, 0.0) * 1e6,
                "pid": ev.rank,
                "tid": tids[ev.engine],
                "args": args,
            }
        )
    out.extend(_counter_events(ordered))
    out.extend(_metadata_events(ordered, tids))
    doc: dict[str, object] = {"traceEvents": out, "displayTimeUnit": "ms"}
    if metadata:
        doc["metadata"] = dict(metadata)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def load_trace_events(path: str | Path) -> list:
    """Parse a :func:`write_perfetto_trace` file back into
    :class:`~repro.runtime.tracing.TraceEvent` records.

    Only the slices are read: counters and metadata are derived from
    them, so they are skipped.
    """
    from ..runtime.tracing import TraceEvent
    from .analysis.ledger import parse_precision

    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    events = []
    for sl in doc.get("traceEvents", []):
        if sl.get("ph") != "X":
            continue
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


# -- run summaries: every JSON document a verb writes -----------------------

#: the tag of every JSON document a verb writes
RUN_SUMMARY_SCHEMA = "repro.obs.run_summary/1"

#: the section a verb adds to the run's own (``manifest``, ``stats``,
#: ``metrics``, ``runs``) for what it alone computes: ``analyze
#: --json-out``, ``compare --report-out``, ``--profile-out``
VERB_SECTIONS = ("analysis", "regress", "profile")


def run_summary(
    *,
    manifest: Mapping | None = None,
    stats=None,
    metrics=None,
    runs: Sequence[Mapping] | None = None,
    **section: Mapping,
) -> dict:
    """Assemble a run summary, the one document layout a verb writes.

    Any section may be omitted.  ``metrics`` is a registry or its
    ``to_dict()`` form and defaults to the process registry, so a bare
    ``run_summary()`` still captures live metrics.  ``runs`` holds one
    entry per point of a campaign or fit of an ``mle`` run, each with its
    ``spec`` and its ``metrics``.  ``section`` is at most one of
    :data:`VERB_SECTIONS`, keyed by its name.
    """
    if len(section) > 1 or not set(section) <= set(VERB_SECTIONS):
        raise TypeError(f"a run summary takes one of {VERB_SECTIONS}, got {sorted(section)}")
    if metrics is None:
        from ._runtime import get_registry

        metrics = get_registry()
    doc: dict[str, object] = {"schema": RUN_SUMMARY_SCHEMA}
    if manifest is not None:
        doc["manifest"] = dict(manifest)
    if stats is not None:
        doc["stats"] = stats.to_dict() if hasattr(stats, "to_dict") else dict(stats)
    if runs is not None:
        doc["runs"] = list(runs)
    doc["metrics"] = metrics.to_dict() if hasattr(metrics, "to_dict") else dict(metrics)
    doc.update(section)
    return doc


def read_run_summary(doc) -> Mapping:
    """A parsed JSON document, checked to be a run summary.

    The one reader of what :func:`run_summary` writes: ``repro analyze``
    and ``repro compare`` both go through it.  Any other document raises
    ``ValueError``.
    """
    schema = doc.get("schema") if isinstance(doc, Mapping) else None
    if schema != RUN_SUMMARY_SCHEMA:
        raise ValueError(
            f"unsupported document: expected {RUN_SUMMARY_SCHEMA}, got {schema!r}")
    return doc


def write_json(path: str | Path, doc: Mapping) -> Path:
    """Write ``doc`` as pretty, key-sorted JSON, creating parent directories.

    The one serialisation every document this package (and the sweep
    and fault layers) leaves on disk goes through.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_run_summary(path: str | Path, **kwargs) -> Path:
    """Build :func:`run_summary` and write it as pretty JSON."""
    return write_json(path, run_summary(**kwargs))


# -- Prometheus text exposition --------------------------------------------

def _prom_name(name: str) -> str:
    """A metric name Prometheus accepts: [a-zA-Z_:][a-zA-Z0-9_:]*."""
    out = "".join(c if c.isalnum() or c in "_:" else "_" for c in name)
    if not out or not (out[0].isalpha() or out[0] in "_:"):
        out = "_" + out
    return out


def _prom_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="{_prom_label_value(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _prom_number(value) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prometheus_text(registry=None) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Counters get the conventional ``_total`` suffix.  This is the
    payload the live plane's ``/metrics`` endpoint serves
    (:mod:`repro.obs.live`).
    """
    if registry is None:
        from ._runtime import get_registry

        registry = get_registry()
    lines: list[str] = []
    for name, metric in registry.to_dict().items():  # sorted by name
        base = _prom_name(name)
        if metric["type"] == "counter" and not base.endswith("_total"):
            base += "_total"
        if metric["help"]:
            lines.append(f"# HELP {base} {metric['help']}")
        lines.append(f"# TYPE {base} {metric['type']}")
        for series in metric["series"]:
            lines.append(f"{base}{_prom_labels(series['labels'])} {_prom_number(series['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- exposition-format lint --------------------------------------------------

_PROM_NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_SAMPLE_RE = re.compile(
    rf"^(?P<name>{_PROM_NAME_RE})"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>NaN|[+-]?Inf|[+-]?[0-9.eE+-]+)"
    r"(?: [0-9]+)?$"
)
_PROM_LABEL_RE = re.compile(
    rf'\s*(?P<key>{_PROM_NAME_RE})="(?P<value>(?:[^"\\]|\\["\\n])*)"\s*(?:,|$)'
)
_PROM_TYPES = frozenset(
    {"counter", "gauge", "summary", "histogram", "untyped"}
)


def _parse_prom_labels(body: str) -> dict[str, str] | None:
    """Parse a `k="v",...` label body; None when it doesn't scan."""
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(body):
        match = _PROM_LABEL_RE.match(body, pos)
        if match is None:
            return None
        labels[match.group("key")] = match.group("value")
        pos = match.end()
    return labels


def lint_prometheus_text(text: str) -> list[str]:
    """Check a text-exposition payload (version 0.0.4); returns problems.

    A pure-python conformance lint for what :func:`to_prometheus_text`
    (and the live plane's ``/metrics`` endpoint) emits: sample-line
    syntax, label-body escaping (only ``\\\\``, ``\\"``, ``\\n`` escapes),
    ``# TYPE`` declared before its samples and never redeclared, valid
    metric kinds, and summaries restricted to their ``X``/``X_sum``/
    ``X_count`` family.  An empty list means the payload is clean.
    """
    problems: list[str] = []
    declared: dict[str, str] = {}  # metric family -> declared type
    seen_samples: set[str] = set()

    def family_of(name: str) -> str:
        for base, kind in declared.items():
            if name == base:
                return base
            if kind in ("summary", "histogram") and name in (
                f"{base}_sum", f"{base}_count", f"{base}_bucket"
            ):
                return base
        return name

    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4:
                problems.append(f"line {n}: malformed TYPE line: {line!r}")
                continue
            _, _, name, kind = parts
            if not re.fullmatch(_PROM_NAME_RE, name):
                problems.append(f"line {n}: bad metric name in TYPE: {name!r}")
                continue
            if kind not in _PROM_TYPES:
                problems.append(f"line {n}: unknown metric type {kind!r} for {name}")
                continue
            if name in declared:
                problems.append(f"line {n}: duplicate TYPE declaration for {name}")
                continue
            if name in seen_samples:
                problems.append(f"line {n}: TYPE for {name} after its samples")
            declared[name] = kind
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not re.fullmatch(_PROM_NAME_RE, parts[2]):
                problems.append(f"line {n}: malformed HELP line: {line!r}")
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _PROM_SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {n}: unparsable sample line: {line!r}")
            continue
        name = match.group("name")
        label_body = match.group("labels")
        labels = _parse_prom_labels(label_body) if label_body else {}
        if labels is None:
            problems.append(f"line {n}: bad label escaping in {line!r}")
            continue
        base = family_of(name)
        seen_samples.add(base)
        kind = declared.get(base)
        if kind is None:
            problems.append(f"line {n}: sample {name} has no TYPE declaration")
            continue
        if kind == "summary":
            if name == base and "quantile" in labels:
                try:
                    q = float(labels["quantile"])
                except ValueError:
                    problems.append(f"line {n}: non-numeric quantile in {line!r}")
                    continue
                if not 0.0 <= q <= 1.0:
                    problems.append(f"line {n}: quantile {q} outside [0, 1]")
            elif name not in (base, f"{base}_sum", f"{base}_count"):
                problems.append(
                    f"line {n}: {name} not in summary family of {base}"
                )
        elif name != base:
            problems.append(f"line {n}: sample {name} has no TYPE declaration")
    return problems
