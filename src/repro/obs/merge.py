"""repro.obs.merge — clock-aligned aggregation of distributed trace shards.

A distributed run (:func:`repro.runtime.distributed.execute_numeric_distributed`
with ``shard_dir=...``) leaves one JSONL shard per rank
(``events-rank<k>.jsonl``) plus the parent's ``shard-manifest.json``.
Each shard's timestamps are *process-local* — ``time.monotonic()`` has
an arbitrary per-process origin — so the shards cannot simply be
concatenated.  What they do share is the machine wall clock: each shard
opens with a ``shard.open`` event carrying ``time.time()``, and the
parent manifest records its own reference wall timestamp taken just
before spawning.

:func:`merge_shards` therefore aligns every shard onto the parent's
time axis (``offset_k = shard_open_wall_k − parent_wall``), converts the
per-rank ``rank.task`` / ``rank.send`` / ``rank.convert`` records into
the standard :class:`~repro.runtime.tracing.TraceEvent` schema (one
Perfetto *process* track per rank, the same pid=rank convention the
simulator's traces use), and sums the per-rank ``RunStats`` into one
aggregate.  Because the trace events and the stats derive from the same
send/convert records, the merged ledger ``reconcile()``s *exactly* —
:func:`write_merged` drops ``trace.json`` + ``summary.json`` into a
directory that ``repro analyze`` accepts like any single-run capture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from ..precision.formats import Precision
from .events import read_events

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.tracing import RunStats, TraceEvent


def _new_run_stats() -> "RunStats":
    # lazy: repro.obs must stay importable without repro.runtime
    # (the runtime itself imports repro.obs at module level)
    from ..runtime.tracing import RunStats

    return RunStats()

__all__ = ["MergedTrace", "ShardInfo", "merge_shards", "render_merge", "write_merged"]

SHARDS_SCHEMA = "repro.obs.shards/1"


@dataclass(frozen=True)
class ShardInfo:
    """One rank's shard and how its clock maps onto the parent's axis."""

    rank: int
    path: Path
    wall_open: float  # shard's time.time() at open
    ts_open: float  # shard-log timestamp of the open event (~0)
    offset: float  # seconds added to shard times on the merged axis
    n_events: int


@dataclass
class MergedTrace:
    """Result of merging a shard directory."""

    events: "list[TraceEvent]" = field(default_factory=list)
    stats: "RunStats" = field(default_factory=_new_run_stats)
    shards: list[ShardInfo] = field(default_factory=list)
    per_rank_stats: dict[int, dict] = field(default_factory=dict)
    policy: str | None = None
    run_id: str | None = None

    @property
    def n_ranks(self) -> int:
        return len(self.shards)


def _parse_precision(name) -> Precision | None:
    if not name:
        return None
    try:
        return Precision[str(name)]
    except KeyError:
        return None


def _sum_stats(per_rank: Mapping[int, Mapping]) -> "RunStats":
    """One :class:`RunStats` summing the per-rank ``to_dict()`` records."""
    total = _new_run_stats()
    for stats in per_rank.values():
        for name, flops in (stats.get("flops_by_precision") or {}).items():
            precision = _parse_precision(name)
            if precision is not None:
                total.add_flops(precision, float(flops))
        for link, adder in (
            ("h2d", total.add_h2d),
            ("d2h", total.add_d2h),
            ("nic", total.add_nic),
        ):
            for name, nbytes in (stats.get(f"{link}_bytes_by_precision") or {}).items():
                precision = _parse_precision(name)
                if precision is not None:
                    adder(precision, int(nbytes))
        for site, count in (stats.get("conversions_by_site") or {}).items():
            seconds = (stats.get("conversion_seconds_by_site") or {}).get(site, 0.0)
            each = float(seconds) / count if count else 0.0
            for _ in range(int(count)):
                total.add_conversion(str(site), each)
        total.n_tasks += int(stats.get("n_tasks", 0))
        total.n_evictions += int(stats.get("n_evictions", 0))
    return total


def merge_shards(shard_dir: str | Path) -> MergedTrace:
    """Merge every ``events-rank<k>.jsonl`` under ``shard_dir``.

    Raises :class:`ValueError` when the directory holds no shards, a
    shard lacks its ``shard.open`` anchor, or the parent manifest is
    missing/incompatible.
    """
    shard_dir = Path(shard_dir)
    manifest_path = shard_dir / "shard-manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"no shard-manifest.json under {shard_dir}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("schema") != SHARDS_SCHEMA:
        raise ValueError(
            f"unexpected shard manifest schema {manifest.get('schema')!r}, "
            f"expected {SHARDS_SCHEMA!r}"
        )
    parent_wall = float(manifest["wall_time"])

    shard_files = sorted(shard_dir.glob("events-rank*.jsonl"))
    if not shard_files:
        raise ValueError(f"no events-rank*.jsonl shards under {shard_dir}")

    from ..runtime.tracing import TraceEvent

    merged = MergedTrace(
        policy=manifest.get("policy"), run_id=manifest.get("run_id")
    )
    for path in shard_files:
        records = read_events(path)
        opens = [r for r in records if r.get("type") == "shard.open"]
        if not opens:
            raise ValueError(f"shard {path.name} has no shard.open anchor event")
        open_rec = opens[0]
        attrs = open_rec.get("attrs") or {}
        rank = int(attrs["rank"])
        wall_open = float(attrs["wall_time"])
        ts_open = float(open_rec.get("ts", 0.0))
        # the shard's clock, re-anchored to the parent's reference
        # timestamp: local elapsed-since-open plus the wall-clock lag
        # between the parent's reference instant and the shard opening
        offset = wall_open - parent_wall
        merged.shards.append(
            ShardInfo(
                rank=rank,
                path=path,
                wall_open=wall_open,
                ts_open=ts_open,
                offset=offset,
                n_events=len(records),
            )
        )

        def align(t: float) -> float:
            return (float(t) - ts_open) + offset

        for rec in records:
            rtype = rec.get("type")
            attrs = rec.get("attrs") or {}
            if rtype == "rank.task":
                merged.events.append(
                    TraceEvent(
                        rank=rank,
                        engine="compute",
                        kind=str(attrs.get("kind", "TASK")),
                        t_start=align(attrs.get("t_start", 0.0)),
                        t_end=align(attrs.get("t_end", 0.0)),
                        precision=_parse_precision(attrs.get("precision")),
                        flops=float(attrs.get("flops", 0.0)),
                    )
                )
            elif rtype == "rank.send":
                merged.events.append(
                    TraceEvent(
                        rank=rank,
                        engine="nic",
                        kind="SEND",
                        t_start=align(attrs.get("t_start", 0.0)),
                        t_end=align(attrs.get("t_end", 0.0)),
                        precision=_parse_precision(attrs.get("precision")),
                        bytes=int(attrs.get("bytes", 0)),
                    )
                )
            elif rtype == "rank.convert":
                merged.events.append(
                    TraceEvent(
                        rank=rank,
                        engine="compute",
                        kind="CONVERT",
                        t_start=align(attrs.get("t_start", 0.0)),
                        t_end=align(attrs.get("t_end", 0.0)),
                        site=str(attrs.get("site", "stc")),
                        src_precision=_parse_precision(attrs.get("src")),
                        dst_precision=_parse_precision(attrs.get("dst")),
                    )
                )
            elif rtype == "rank.stats":
                merged.per_rank_stats[rank] = dict(attrs.get("stats") or {})

    merged.events.sort(key=lambda e: (e.t_start, e.rank, e.engine, e.kind))
    merged.stats = _sum_stats(merged.per_rank_stats)
    merged.stats.makespan = max((e.t_end for e in merged.events), default=0.0)
    return merged


def write_merged(
    merged: MergedTrace,
    out_dir: str | Path,
    *,
    manifest: Mapping | None = None,
) -> dict[str, Path]:
    """Write ``trace.json`` + ``summary.json`` for ``repro analyze``.

    The trace gets one Perfetto process track per rank (pid = rank, the
    simulator's convention); the summary embeds the summed stats so the
    analyzer can reconcile the event-derived ledger against them.
    """
    from .exporters import run_summary, write_json, write_perfetto_trace

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = write_perfetto_trace(
        merged.events,
        out_dir / "trace.json",
        counters=False,
        metadata={
            "merged_from": [s.path.name for s in merged.shards],
            "n_ranks": merged.n_ranks,
            "policy": merged.policy,
            "clock_offsets": {str(s.rank): s.offset for s in merged.shards},
        },
    )
    summary = run_summary(stats=merged.stats)
    summary["merge"] = {
        "schema": SHARDS_SCHEMA,
        "n_ranks": merged.n_ranks,
        "run_id": merged.run_id,
        "policy": merged.policy,
        "per_rank_stats": {str(r): s for r, s in sorted(merged.per_rank_stats.items())},
        "shards": [
            {
                "rank": s.rank,
                "path": s.path.name,
                "offset_seconds": s.offset,
                "n_events": s.n_events,
            }
            for s in merged.shards
        ],
    }
    if manifest is not None:
        summary["manifest"] = dict(manifest)
    summary_path = write_json(out_dir / "summary.json", summary)
    return {"trace": trace_path, "summary": summary_path}


def render_merge(merged: MergedTrace) -> str:
    """Human summary of a merge (``repro merge-shards`` output)."""
    from ..bench.reporting import format_table

    rows = [
        (
            s.rank,
            s.path.name,
            s.n_events,
            f"{s.offset * 1e3:+.2f} ms",
            f"{(merged.per_rank_stats.get(s.rank) or {}).get('n_tasks', 0)}",
        )
        for s in sorted(merged.shards, key=lambda s: s.rank)
    ]
    title = (
        f"merged {merged.n_ranks} shard(s): {len(merged.events)} trace events, "
        f"{merged.stats.n_tasks} tasks, {merged.stats.nic_bytes / 1e6:.2f} MB over nic, "
        f"makespan {merged.stats.makespan:.4f} s"
    )
    return format_table(
        ["rank", "shard", "events", "clock offset", "tasks"], rows, title=title
    )
