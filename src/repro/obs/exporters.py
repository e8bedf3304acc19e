"""Exporters: Perfetto traces, Prometheus text, JSON run summaries.

These sit on top of the simulator's :class:`~repro.runtime.tracing.TraceEvent`
stream and the metrics registry, and are what ``repro simulate
--trace-out/--metrics-out`` and the live ``/metrics`` endpoint call into.  Runtime
imports happen inside the functions so ``repro.obs`` stays a leaf
package every layer may import without cycles.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Mapping, Sequence

__all__ = [
    "lint_prometheus_text",
    "to_prometheus_text",
    "run_stats",
    "run_summary",
    "write_perfetto_trace",
    "write_run_summary",
]

def write_perfetto_trace(
    events: Sequence,
    path: str | Path,
    *,
    counters: bool = True,
    obs_events: Sequence[Mapping] | None = None,
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write a Perfetto/Chrome trace JSON with metadata + counter tracks.

    ``obs_events`` (records from :func:`repro.obs.read_events`) renders
    fault and failure telemetry as instant markers alongside the slices;
    ``metadata`` (e.g. the scheduling policy) lands in the trace's
    top-level ``"metadata"`` object.
    """
    from ..runtime.gantt import to_chrome_trace

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        to_chrome_trace(events, counters=counters, obs_events=obs_events,
                        metadata=metadata),
        encoding="utf-8",
    )
    return path


def run_summary(
    *,
    stats=None,
    trace=None,
    manifest: Mapping | None = None,
    registry=None,
) -> dict:
    """Assemble the JSON-summary document of one run.

    Any section may be omitted; ``registry`` defaults to the process
    registry so a bare ``run_summary()`` still captures live metrics.
    """
    if registry is None:
        from ._runtime import get_registry

        registry = get_registry()
    doc: dict[str, object] = {"schema": "repro.obs.run_summary/1"}
    if manifest is not None:
        doc["manifest"] = dict(manifest)
    if stats is not None:
        doc["stats"] = stats.to_dict() if hasattr(stats, "to_dict") else dict(stats)
    if trace is not None:
        doc["trace"] = trace.summary() if hasattr(trace, "summary") else dict(trace)
    doc["metrics"] = registry.to_dict()
    return doc


def run_stats(doc: Mapping) -> Mapping | None:
    """The RunStats dict a document holds, ``None`` when it holds none.

    The one reader of the layout :func:`run_summary` writes: its
    ``stats`` section, else the document itself when it is a bare
    ``RunStats.to_dict()``.
    """
    stats = doc.get("stats")
    if isinstance(stats, Mapping) and "makespan_seconds" in stats:
        return stats
    return doc if "makespan_seconds" in doc else None


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
