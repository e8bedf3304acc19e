"""The data-motion ledger: per-link, per-precision byte attribution.

Section VII-D argues the paper's data-motion reduction by counting the
bytes every link moves in every precision and crediting the delta
against an all-FP64 run; Section VI attributes conversion cost to the
strategy that placed it (STC converts once at the sender, TTC converts
at every consumer).  :func:`build_ledger` derives exactly those numbers
from a captured trace — and reconciles them against the simulator's own
:class:`~repro.runtime.tracing.RunStats` counters, so the ledger is an
independently-checkable account rather than a reprint.

The ledger is built either from trace *events* (full per-rank detail,
conversion src→dst splits) or, when a run was captured without events,
from the aggregated *stats* counters (per-link per-precision totals
only).  ``ledger.reconcile(stats)`` returns the list of discrepancies —
empty iff every per-link per-precision byte total matches exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ...precision.formats import Precision, bytes_per_element

__all__ = [
    "LedgerRow", "ConversionRow", "DataMotionLedger", "build_ledger", "ledger_table",
    "parse_precision",
]

# ``LINKS`` is imported inside the functions that read it: ``repro.obs``
# loads before ``repro.runtime`` exists (see ``repro.obs.exporters``)


def parse_precision(name) -> Precision | None:
    """The :class:`Precision` a serialised name denotes; ``None`` when blank or unknown."""
    try:
        return Precision[name] if name else None
    except KeyError:
        return None


def _fp64_bytes(precision: Precision | None, nbytes: int) -> int:
    """Bytes the same payloads would occupy travelling in FP64."""
    if precision is None:
        return nbytes
    width = bytes_per_element(precision)
    elements, rem = divmod(nbytes, width)
    fp64 = elements * bytes_per_element(Precision.FP64)
    if rem:  # partial element (shouldn't happen on simulator output)
        fp64 += rem * bytes_per_element(Precision.FP64) // width
    return fp64


@dataclass(frozen=True)
class LedgerRow:
    """Bytes moved over one link in one precision (by one rank)."""

    link: str
    precision: Precision | None
    rank: int | None  # None = aggregated over ranks (stats-derived)
    bytes: int
    n_events: int = 0

    @property
    def fp64_bytes(self) -> int:
        return _fp64_bytes(self.precision, self.bytes)

    @property
    def saved_bytes(self) -> int:
        """Bytes this row avoided moving versus an all-FP64 payload."""
        return self.fp64_bytes - self.bytes


@dataclass(frozen=True)
class ConversionRow:
    """Conversion passes attributed to one (site, src→dst) combination."""

    site: str  # "stc" | "ttc" | "?" when untagged
    src: Precision | None
    dst: Precision | None
    count: int
    seconds: float


@dataclass
class DataMotionLedger:
    """Per-link/precision/rank byte ledger + conversion-site attribution."""

    rows: list[LedgerRow] = field(default_factory=list)
    conversions: list[ConversionRow] = field(default_factory=list)
    source: str = "events"  # "events" | "stats"

    # -- aggregations -----------------------------------------------------
    def bytes_by_link_precision(self) -> dict[tuple[str, str], int]:
        """``{(link, precision_name): bytes}`` summed over ranks."""
        out: dict[tuple[str, str], int] = {}
        for row in self.rows:
            key = (row.link, row.precision.name if row.precision is not None else "?")
            out[key] = out.get(key, 0) + row.bytes
        return out

    def bytes_by_link(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for row in self.rows:
            out[row.link] = out.get(row.link, 0) + row.bytes
        return out

    def saved_bytes_by_link(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for row in self.rows:
            out[row.link] = out.get(row.link, 0) + row.saved_bytes
        return out

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes for r in self.rows)

    @property
    def total_saved_bytes(self) -> int:
        return sum(r.saved_bytes for r in self.rows)

    def conversion_totals_by_site(self) -> dict[str, tuple[int, float]]:
        """``{site: (count, seconds)}`` over all src→dst combinations."""
        out: dict[str, tuple[int, float]] = {}
        for conv in self.conversions:
            count, seconds = out.get(conv.site, (0, 0.0))
            out[conv.site] = (count + conv.count, seconds + conv.seconds)
        return out

    # -- reconciliation ---------------------------------------------------
    def reconcile(self, stats) -> list[str]:
        """Cross-check the ledger against :class:`RunStats` counters.

        ``stats`` is a :class:`RunStats` or its ``to_dict()`` form.
        Returns human-readable discrepancy descriptions; an empty list
        means every per-link per-precision byte total (and the
        conversion site counts, when the ledger carries them) matches
        the stats *exactly* — the acceptance bar for ``repro analyze``.
        """
        by_link, conv_counts, _ = _normalize_stats(stats)
        problems: list[str] = []
        have = {k: v for k, v in self.bytes_by_link_precision().items() if v}
        want: dict[tuple[str, str], int] = {}
        for link, by_precision in by_link.items():
            for precision, nbytes in by_precision.items():
                if nbytes:
                    want[(link, precision.name if precision is not None else "?")] = int(nbytes)
        for key in sorted(set(have) | set(want)):
            h, w = have.get(key, 0), want.get(key, 0)
            if h != w:
                problems.append(
                    f"{key[0]}/{key[1]}: ledger {h} bytes != stats {w} bytes"
                )
        if self.conversions:
            totals = self.conversion_totals_by_site()
            n_conv = sum(c for c, _ in totals.values())
            n_want = sum(conv_counts.values())
            if n_conv != n_want:
                problems.append(f"conversions: ledger {n_conv} != stats {n_want}")
            for site, count in sorted(conv_counts.items()):
                if totals.get(site, (0, 0.0))[0] != count:
                    problems.append(
                        f"conversions[{site}]: ledger {totals.get(site, (0, 0.0))[0]}"
                        f" != stats {count}"
                    )
        return problems

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "total_bytes": self.total_bytes,
            "total_saved_bytes_vs_fp64": self.total_saved_bytes,
            "bytes_by_link": dict(sorted(self.bytes_by_link().items())),
            "saved_bytes_by_link": dict(sorted(self.saved_bytes_by_link().items())),
            "rows": [
                {
                    "link": r.link,
                    "precision": r.precision.name if r.precision is not None else None,
                    "rank": r.rank,
                    "bytes": r.bytes,
                    "n_events": r.n_events,
                    "fp64_bytes": r.fp64_bytes,
                    "saved_bytes": r.saved_bytes,
                }
                for r in self.rows
            ],
            "conversions": [
                {
                    "site": c.site,
                    "src": c.src.name if c.src is not None else None,
                    "dst": c.dst.name if c.dst is not None else None,
                    "count": c.count,
                    "seconds": c.seconds,
                }
                for c in self.conversions
            ],
        }

    def table(self) -> str:
        """Human-readable ledger (per link/precision, ranks merged)."""
        return ledger_table(self.to_dict())


def ledger_table(doc: Mapping) -> str:
    """Render a :meth:`DataMotionLedger.to_dict` document as text tables."""
    from ...bench.reporting import format_table
    from ...runtime.tracing import LINKS

    grouped: dict[tuple[str, str], list[int]] = {}
    for row in doc["rows"]:
        agg = grouped.setdefault((row["link"], row["precision"] or "?"), [0, 0, 0])
        agg[0] += row["bytes"]
        agg[1] += row["n_events"]
        agg[2] += row["saved_bytes"]
    body = [
        (
            link,
            prec,
            nbytes / 1e9,
            n_events,
            saved / 1e9,
            (saved / (nbytes + saved) * 100.0) if (nbytes + saved) else 0.0,
        )
        for (link, prec), (nbytes, n_events, saved) in sorted(
            grouped.items(), key=lambda kv: (LINKS.index(kv[0][0]), kv[0][1])
        )
    ]
    lines = [
        format_table(
            ["link", "precision", "GB", "events", "saved GB", "saved %"],
            body,
            title="data-motion ledger (vs all-FP64)",
        )
    ]
    if doc["conversions"]:
        # already in (site, src, dst) order: both builders sort them
        conv_body = [
            (c["site"], c["src"] or "?", c["dst"] or "?", c["count"], c["seconds"] * 1e3)
            for c in doc["conversions"]
        ]
        lines.append(
            format_table(
                ["site", "src", "dst", "count", "ms"],
                conv_body,
                title="conversion passes by site (stc = sender, ttc = receiver)",
            )
        )
    return "\n\n".join(lines)


def _ledger_from_events(events: Iterable) -> DataMotionLedger:
    from ...runtime.tracing import LINKS

    rows: dict[tuple[str, Precision | None, int], list[int]] = {}
    convs: dict[tuple[str, Precision | None, Precision | None], list[float]] = {}
    for ev in events:
        if ev.engine in LINKS:
            key = (ev.engine, ev.precision, ev.rank)
            agg = rows.setdefault(key, [0, 0])
            agg[0] += ev.bytes
            agg[1] += 1
        elif ev.engine == "compute" and ev.kind == "CONVERT":
            site = getattr(ev, "site", None) or "?"
            ckey = (site, getattr(ev, "src_precision", None), getattr(ev, "dst_precision", None))
            cagg = convs.setdefault(ckey, [0, 0.0])
            cagg[0] += 1
            cagg[1] += max(0.0, ev.t_end - ev.t_start)
    return DataMotionLedger(
        rows=[
            LedgerRow(link, precision, rank, nbytes, n_events)
            for (link, precision, rank), (nbytes, n_events) in sorted(
                rows.items(),
                key=lambda kv: (LINKS.index(kv[0][0]), str(kv[0][1]), kv[0][2]),
            )
        ],
        conversions=[
            ConversionRow(site, src, dst, int(count), seconds)
            for (site, src, dst), (count, seconds) in sorted(
                convs.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), str(kv[0][2]))
            )
        ],
        source="events",
    )


def _normalize_stats(stats):
    """``(by_link, conversions_by_site, conversion_seconds_by_site)`` from
    a :class:`RunStats` or its ``to_dict()`` form; ``by_link`` is in
    ``LINKS`` order."""
    from ...runtime.tracing import LINKS

    if not isinstance(stats, Mapping):
        stats = stats.to_dict()
    by_link = {
        link: {
            parse_precision(name): int(nbytes)
            for name, nbytes in (stats.get(f"{link}_bytes_by_precision") or {}).items()
        }
        for link in LINKS
    }
    conv_counts = dict(stats.get("conversions_by_site") or {})
    conv_seconds = dict(stats.get("conversion_seconds_by_site") or {})
    return by_link, conv_counts, conv_seconds


def _ledger_from_stats(stats) -> DataMotionLedger:
    """Build the rank-less ledger from RunStats counters (or their dict)."""
    by_link, conv_counts, conv_seconds = _normalize_stats(stats)
    rows = [
        LedgerRow(link, precision, None, int(nbytes))
        for link, by_precision in by_link.items()
        for precision, nbytes in sorted(by_precision.items(), key=lambda kv: str(kv[0]))
        if nbytes
    ]
    conversions = [
        ConversionRow(site, None, None, int(count), float(conv_seconds.get(site, 0.0)))
        for site, count in sorted(conv_counts.items())
    ]
    return DataMotionLedger(rows=rows, conversions=conversions, source="stats")


def build_ledger(
    events: Sequence | None = None,
    stats=None,
) -> DataMotionLedger:
    """Build the data-motion ledger from events (preferred) or stats.

    ``events`` may be any sequence of :class:`TraceEvent`-shaped objects
    (``engine``/``kind``/``rank``/``precision``/``bytes`` plus the
    CONVERT tags); ``stats`` a :class:`RunStats` or its ``to_dict()``
    form.  With both given, the ledger is event-derived — call
    :meth:`DataMotionLedger.reconcile` to cross-check it against stats.
    """
    if events:
        return _ledger_from_events(events)
    if stats is not None:
        return _ledger_from_stats(stats)
    return DataMotionLedger(rows=[], conversions=[], source="events")
