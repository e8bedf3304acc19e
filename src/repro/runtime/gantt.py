"""Trace visualisation and export (PaRSEC-instrumentation stand-in).

The paper's analyses lean on PaRSEC's instrumentation tooling (ref [9]).
This module gives the simulated traces the same affordances:

* :func:`ascii_gantt` — a quick terminal Gantt chart per rank/engine;
* :func:`to_chrome_trace` — Chrome ``about://tracing`` / Perfetto JSON,
  one row per (rank, engine), kernels coloured by precision.

Busy fractions are read by :func:`repro.obs.analysis.utilization_timeline`
and :func:`repro.perfmodel.occupancy.occupancy_trace`.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from .tracing import LINKS, TraceEvent

__all__ = ["ascii_gantt", "to_chrome_trace"]

#: obs-event types rendered as Perfetto instant events (degraded-run
#: markers: injected faults, dead/failed work)
INSTANT_EVENT_TYPES = frozenset({
    "fault",
    "sweep.point_failed",
    "distributed.failure",
    "distributed.degraded",
    "montecarlo.replica_failed",
})

_GLYPH = {
    "POTRF": "P",
    "TRSM": "T",
    "SYRK": "S",
    "GEMM": "G",
    "CONVERT": "c",
    "LOAD": "l",
    "STAGE": "s",
    "EVICT": "e",
    "SEND": "n",
}


def _rows(events: Sequence[TraceEvent]) -> list[tuple[tuple[int, str], list[TraceEvent]]]:
    rows: dict[tuple[int, str], list[TraceEvent]] = {}
    for ev in events:
        rows.setdefault((ev.rank, ev.engine), []).append(ev)
    return sorted(rows.items())


def ascii_gantt(
    events: Sequence[TraceEvent],
    makespan: float | None = None,
    *,
    width: int = 100,
) -> str:
    """Render the trace as a fixed-width ASCII Gantt chart.

    One character cell covers ``makespan / width`` seconds; the glyph of
    the event covering most of a cell wins (idle = '.').
    """
    events = list(events)
    if not events:
        return "(empty trace)"
    if makespan is None:
        makespan = max(e.t_end for e in events)
    if makespan <= 0:
        return "(zero-length trace)"
    dt = makespan / width
    lines = []
    for (rank, engine), evs in _rows(events):
        cells = ["."] * width
        cover = [0.0] * width
        for ev in evs:
            glyph = _GLYPH.get(ev.kind, "#")
            first = max(0, int(ev.t_start / dt))
            last = min(width - 1, int(max(ev.t_start, ev.t_end - 1e-18) / dt))
            for c in range(first, last + 1):
                cell_lo, cell_hi = c * dt, (c + 1) * dt
                overlap = min(ev.t_end, cell_hi) - max(ev.t_start, cell_lo)
                if overlap > cover[c]:
                    cover[c] = overlap
                    cells[c] = glyph
        lines.append(f"r{rank:<3}{engine:<8}|{''.join(cells)}|")
    legend = "P/T/S/G kernels  c convert  l load  s stage  e evict  n net  . idle"
    return "\n".join(lines) + f"\n[{legend}]"


#: one Perfetto thread row per engine: compute, then every link
_TID = {engine: tid for tid, engine in enumerate(("compute", *LINKS))}


def _counter_events(events: Sequence[TraceEvent]) -> list[dict]:
    """Derive Perfetto counter tracks from the event stream.

    Three derived counters per rank, sampled at every change point:

    * ``gpu pool bytes`` — resident bytes in the GPU memory pool
      (h2d LOADs add at completion, d2h EVICTs subtract at start);
    * ``h2d inflight bytes`` / ``d2h inflight bytes`` — bytes currently
      on the wire of each copy engine;
    * ``nic bytes (cum)`` — cumulative bytes injected by each node's NIC;
    * ``conversions (cum)`` — running count of CONVERT compute events.
    """
    # (ts_us, rank, track, delta, cumulative?)
    deltas: list[tuple[float, int, str, float]] = []
    for ev in events:
        if ev.engine == "nic":
            deltas.append((ev.t_end * 1e6, ev.rank, "nic bytes (cum)", ev.bytes))
        elif ev.engine == "h2d":
            deltas.append((ev.t_start * 1e6, ev.rank, "h2d inflight bytes", ev.bytes))
            deltas.append((ev.t_end * 1e6, ev.rank, "h2d inflight bytes", -ev.bytes))
            if ev.kind == "LOAD":
                deltas.append((ev.t_end * 1e6, ev.rank, "gpu pool bytes", ev.bytes))
        elif ev.engine == "d2h":
            deltas.append((ev.t_start * 1e6, ev.rank, "d2h inflight bytes", ev.bytes))
            deltas.append((ev.t_end * 1e6, ev.rank, "d2h inflight bytes", -ev.bytes))
            if ev.kind == "EVICT":
                deltas.append((ev.t_start * 1e6, ev.rank, "gpu pool bytes", -ev.bytes))
        elif ev.engine == "compute" and ev.kind == "CONVERT":
            deltas.append((ev.t_end * 1e6, ev.rank, "conversions (cum)", 1))
    running: dict[tuple[int, str], float] = {}
    out: list[dict] = []
    for ts, rank, track, delta in sorted(deltas, key=lambda d: (d[0], d[1], d[2])):
        value = running.get((rank, track), 0.0) + delta
        running[(rank, track)] = value
        out.append(
            {
                "name": track,
                "ph": "C",
                "ts": ts,
                "pid": rank,
                "args": {"value": value},
            }
        )
    return out


def _metadata_events(events: Sequence[TraceEvent]) -> list[dict]:
    """Process/thread naming so Perfetto shows "rank N" / engine rows."""
    ranks = sorted({ev.rank for ev in events})
    rows = sorted({(ev.rank, ev.engine) for ev in events})
    out: list[dict] = []
    for rank in ranks:
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": rank,
                "args": {"name": f"rank {rank}"},
            }
        )
        out.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": rank,
                "args": {"sort_index": rank},
            }
        )
    for rank, engine in rows:
        tid = _TID[engine]
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": rank,
                "tid": tid,
                "args": {"name": engine},
            }
        )
        out.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": rank,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    return out


def _instant_events(obs_events: Sequence[Mapping]) -> list[dict]:
    """Render fault and failure telemetry records as Perfetto instant events.

    ``obs_events`` are JSONL records from :func:`repro.obs.read_events`;
    every record whose ``type`` is in :data:`INSTANT_EVENT_TYPES` becomes
    a process-scoped instant marker, so degraded runs are visually
    distinguishable in the trace viewer.  Timestamps are the event log's
    monotonic seconds — the same clock only when the log was opened at
    t=0 of the trace, which is close enough for spotting *that* and
    roughly *where* faults fired.
    """
    out: list[dict] = []
    for rec in obs_events:
        type_ = rec.get("type")
        if type_ not in INSTANT_EVENT_TYPES:
            continue
        attrs = rec.get("attrs") or {}
        rank = attrs.get("rank")
        out.append(
            {
                "name": type_,
                "cat": "faults",
                "ph": "i",
                "ts": float(rec.get("ts", 0.0)) * 1e6,
                "pid": int(rank) if isinstance(rank, (int, float)) else 0,
                "tid": _TID["compute"],
                "s": "p" if isinstance(rank, (int, float)) else "g",
                "args": dict(attrs),
            }
        )
    return out


def to_chrome_trace(
    events: Sequence[TraceEvent],
    *,
    counters: bool = False,
    obs_events: Sequence[Mapping] | None = None,
    metadata: Mapping[str, object] | None = None,
) -> str:
    """Serialise the trace to Chrome/Perfetto trace-event JSON.

    Slice events come first, sorted by timestamp (stable output for
    diffing); ``counters=True`` appends the derived counter tracks
    (memory-pool occupancy, in-flight copy bytes, cumulative NIC bytes
    and conversions); ``obs_events`` (JSONL records from an event log)
    adds fault and failure instant markers; process/thread metadata events
    close the stream so Perfetto labels every row.  ``metadata`` lands
    as the top-level ``"metadata"`` object (Perfetto surfaces it under
    Info & stats) — e.g. the scheduling policy that produced the trace.
    """
    ordered = sorted(events, key=lambda e: (e.t_start, e.rank, _TID[e.engine]))
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
                "tid": _TID[ev.engine],
                "args": args,
            }
        )
    if counters:
        out.extend(_counter_events(ordered))
    if obs_events:
        out.extend(_instant_events(obs_events))
    out.extend(_metadata_events(ordered))
    doc: dict[str, object] = {"traceEvents": out, "displayTimeUnit": "ms"}
    if metadata:
        doc["metadata"] = dict(metadata)
    return json.dumps(doc)
