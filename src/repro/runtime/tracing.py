"""Execution traces and counters produced by the simulator.

A :class:`TraceEvent` is one busy interval of one engine of one rank —
compute (kernel or conversion) or a transfer over one of the
:data:`LINKS`.  The energy, occupancy, analysis, and reporting layers
all consume this single schema.  ``CONVERT`` events additionally carry
their conversion *site* (``"stc"`` for the one-off sender-side pass,
``"ttc"`` for receiver-side passes) and the source→destination
precisions, so conversion time can be attributed per strategy (Section VI).

:class:`RunStats` aggregates the counters the paper reports: bytes moved
per link per precision (the data-motion reduction of Section VII-D) in
one map, the same for every link, conversion counts/time split by site
(STC's "convert once" saving), and flops per precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..precision.formats import Precision

__all__ = ["LINKS", "TraceEvent", "RunStats", "Trace"]

#: the links of the simulated memory hierarchy, in report order; the
#: disk pair only carries bytes in out-of-core runs (host-tier spills)
LINKS = ("h2d", "d2h", "nic", "disk_read", "disk_write")


@dataclass(frozen=True)
class TraceEvent:
    """One busy interval of one engine."""

    rank: int
    engine: str  # "compute" or one of LINKS
    kind: str  # kernel name, "CONVERT", or transfer label
    t_start: float
    t_end: float
    precision: Precision | None = None
    bytes: int = 0
    flops: float = 0.0
    #: conversion site for CONVERT events: "stc" | "ttc" (None otherwise)
    site: str | None = None
    #: source/destination precision of a CONVERT pass (None otherwise)
    src_precision: Precision | None = None
    dst_precision: Precision | None = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class RunStats:
    """Aggregated counters of one simulated run."""

    makespan: float = 0.0
    total_flops: float = 0.0
    flops_by_precision: dict[Precision, float] = field(default_factory=dict)
    #: bytes moved per (link, payload precision), ``link`` one of :data:`LINKS`
    bytes_moved: dict[tuple[str, Precision], int] = field(default_factory=dict)
    n_conversions: int = 0
    conversion_seconds: float = 0.0
    conversions_by_site: dict[str, int] = field(default_factory=dict)
    conversion_seconds_by_site: dict[str, float] = field(default_factory=dict)
    n_tasks: int = 0
    n_evictions: int = 0
    #: host-tier LRU evictions (out-of-core mode; GPU evictions are
    #: ``n_evictions``)
    n_host_evictions: int = 0
    #: host entries whose only copy had to be written to the disk tier
    n_spills: int = 0

    def link_bytes(self, link: str) -> int:
        """Bytes moved over ``link`` in every precision."""
        return sum(v for (name, _p), v in self.bytes_moved.items() if name == link)

    @property
    def gflops(self) -> float:
        """Achieved Gflop/s over the makespan."""
        if self.makespan <= 0.0:
            return 0.0
        return self.total_flops / self.makespan / 1e9

    @property
    def tflops(self) -> float:
        return self.gflops / 1e3

    def add_flops(self, precision: Precision, flops: float) -> None:
        self.total_flops += flops
        self.flops_by_precision[precision] = self.flops_by_precision.get(precision, 0.0) + flops

    def add_bytes(self, link: str, precision: Precision, nbytes: int) -> None:
        key = (link, precision)
        self.bytes_moved[key] = self.bytes_moved.get(key, 0) + nbytes

    def add_conversion(self, site: str, seconds: float) -> None:
        """Count one conversion pass at ``site`` ("stc" | "ttc")."""
        self.n_conversions += 1
        self.conversion_seconds += seconds
        self.conversions_by_site[site] = self.conversions_by_site.get(site, 0) + 1
        self.conversion_seconds_by_site[site] = (
            self.conversion_seconds_by_site.get(site, 0.0) + seconds
        )

    def to_dict(self) -> dict:
        """Serialise every counter to plain JSON-ready types.

        Each link ``L`` gives ``L_bytes`` and ``L_bytes_by_precision``
        (precision names, widest first).
        """
        doc = {
            "makespan_seconds": self.makespan,
            "total_flops": self.total_flops,
            "gflops": self.gflops,
            "tflops": self.tflops,
            "flops_by_precision": {
                p.name: v for p, v in sorted(self.flops_by_precision.items(), reverse=True)
            },
            "n_conversions": self.n_conversions,
            "conversion_seconds": self.conversion_seconds,
            "conversions_by_site": dict(sorted(self.conversions_by_site.items())),
            "conversion_seconds_by_site": dict(sorted(self.conversion_seconds_by_site.items())),
            "n_tasks": self.n_tasks,
            "n_evictions": self.n_evictions,
            "n_host_evictions": self.n_host_evictions,
            "n_spills": self.n_spills,
        }
        for link in LINKS:
            by_precision = sorted(
                ((p, v) for (name, p), v in self.bytes_moved.items() if name == link), reverse=True
            )
            doc[f"{link}_bytes"] = sum(v for _p, v in by_precision)
            doc[f"{link}_bytes_by_precision"] = {p.name: v for p, v in by_precision}
        return doc


@dataclass
class Trace:
    """Full event trace of one simulated run."""

    events: list[TraceEvent] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def events_of_rank(self, rank: int) -> list[TraceEvent]:
        return [e for e in self.events if e.rank == rank]

    def content_hash(self) -> str:
        """Order-independent SHA-256 of the event stream.

        Two traces hash equal iff they contain the same busy intervals —
        the replay path's bit-identity contract (same events, possibly
        recorded in a different order) is checked against this digest.
        """
        import hashlib

        tuples = sorted(
            (e.rank, e.engine, e.kind, e.t_start, e.t_end,
             e.precision, e.bytes, e.flops, e.site)
            for e in self.events
        )
        return hashlib.sha256(repr(tuples).encode()).hexdigest()

    def busy_seconds(self, engine: str, rank: int | None = None) -> float:
        return sum(
            e.duration
            for e in self.events
            if e.engine == engine and (rank is None or e.rank == rank)
        )

    def summary(self) -> dict:
        """Serialisable digest of the trace (feeds JSON export/report)."""
        by_engine: dict[str, float] = {}
        by_kind: dict[str, int] = {}
        for ev in self.events:
            by_engine[ev.engine] = by_engine.get(ev.engine, 0.0) + max(0.0, ev.duration)
            by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
        makespan = self.stats.makespan
        if makespan <= 0.0 and self.events:
            makespan = max(e.t_end for e in self.events)
        return {
            "n_events": len(self.events),
            "n_ranks": len({e.rank for e in self.events}),
            "makespan_seconds": makespan,
            "busy_seconds_by_engine": dict(sorted(by_engine.items())),
            "events_by_kind": dict(sorted(by_kind.items())),
        }
