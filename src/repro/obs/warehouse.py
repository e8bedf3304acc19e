"""repro.obs.warehouse — the cross-run telemetry store.

Every other ``repro.obs`` layer is per-run: one trace, one summary, one
BENCH document.  The paper's results, though, are *trajectories* —
precision-map bands and bytes-moved curves across problem sizes and GPU
generations — and the regression story CI needs is longitudinal too: a
1.5 % makespan creep per PR never trips a pairwise 2 % gate, but five of
them compound to 7.7 %.  The warehouse is the SQLite-backed (stdlib
``sqlite3``, schema ``repro.obs.warehouse/1``) accumulation point:

* :meth:`Warehouse.ingest` accepts any document the sentinel already
  understands — ``repro.obs.run_summary/1``, ``repro.bench/1``, bare
  ``RunStats`` dicts — plus ``repro.obs.profile/1`` profiles, and files
  via :meth:`Warehouse.ingest_file`;
* rows land in three tables: ``runs`` (one per ingested document, keyed
  by the run's deterministic cache key / manifest ``run_id`` with a
  monotonically increasing ingest ``seq``), ``metrics`` (the flattened
  ``{scope: {metric: value}}`` view :func:`repro.obs.regress.load_metric_scopes`
  produces), and ``bench_points`` (one row per sweep point of a BENCH
  document, keyed by the point's ``RunSpec.cache_key()``);
* :meth:`Warehouse.window_scopes` hands the last *N* matching runs to
  the windowed trend sentinel (``repro compare --against-history``);
* ``repro history`` renders the same queries as a table or JSON.

Ingest order is the time axis.  The warehouse stores no wall-clock
timestamps of its own — runs are deterministic and so is the store; the
``seq`` column totally orders history and the caller's filenames/CI run
ids carry any real-world timing.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .regress import load_metric_scopes

__all__ = ["WAREHOUSE_SCHEMA", "IngestResult", "RunRow", "Warehouse"]

WAREHOUSE_SCHEMA = "repro.obs.warehouse/1"

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    seq          INTEGER PRIMARY KEY,
    run_key      TEXT NOT NULL,
    kind         TEXT NOT NULL,
    command      TEXT,
    policy       TEXT,
    config       TEXT,
    n            INTEGER,
    nb           INTEGER,
    nt           INTEGER,
    gpu          TEXT,
    cache_schema INTEGER,
    git_revision TEXT,
    source       TEXT,
    doc          TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_by_key    ON runs(run_key);
CREATE INDEX IF NOT EXISTS runs_by_policy ON runs(policy);
CREATE TABLE IF NOT EXISTS metrics (
    run_seq INTEGER NOT NULL REFERENCES runs(seq) ON DELETE CASCADE,
    scope   TEXT NOT NULL,
    metric  TEXT NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (run_seq, scope, metric)
);
CREATE TABLE IF NOT EXISTS bench_points (
    run_seq   INTEGER NOT NULL REFERENCES runs(seq) ON DELETE CASCADE,
    point_key TEXT NOT NULL,
    label     TEXT,
    cached    INTEGER NOT NULL DEFAULT 0,
    failed    INTEGER NOT NULL DEFAULT 0,
    attempts  INTEGER NOT NULL DEFAULT 1,
    spec      TEXT,
    metrics   TEXT,
    PRIMARY KEY (run_seq, point_key)
);
"""


@dataclass(frozen=True)
class IngestResult:
    """What one :meth:`Warehouse.ingest` call stored."""

    seq: int
    run_key: str
    kind: str
    n_metrics: int
    n_points: int


@dataclass(frozen=True)
class RunRow:
    """One ``runs`` row (document payload omitted)."""

    seq: int
    run_key: str
    kind: str
    command: str | None
    policy: str | None
    config: str | None
    n: int | None
    nb: int | None
    nt: int | None
    gpu: str | None
    cache_schema: int | None
    git_revision: str | None
    source: str | None

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "run_key": self.run_key,
            "kind": self.kind,
            "command": self.command,
            "policy": self.policy,
            "config": self.config,
            "n": self.n,
            "nb": self.nb,
            "nt": self.nt,
            "gpu": self.gpu,
            "cache_schema": self.cache_schema,
            "git_revision": self.git_revision,
            "source": self.source,
        }


def _content_key(doc: Mapping) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _classify(doc: Mapping) -> str:
    schema = str(doc.get("schema", ""))
    if schema.startswith("repro.bench/"):
        return "bench"
    if schema.startswith("repro.obs.run_summary/"):
        return "run_summary"
    if schema.startswith("repro.obs.profile/"):
        return "profile"
    if schema.startswith("repro.obs.live/"):
        return "live"
    if str(doc.get("type", "")).startswith("live."):
        return "live"  # a watchdog alert record from an event log
    if "makespan_seconds" in doc:
        return "stats"
    if "runs" in doc and "aggregates" in doc:
        return "bench"
    raise ValueError(
        f"cannot ingest document with schema {schema!r}: expected repro.bench/1, "
        "repro.obs.run_summary/1, repro.obs.profile/1, repro.obs.live/1, a "
        "live.* alert event record, or a RunStats dict"
    )


def _dims_from_config(config: Mapping) -> dict:
    """n/nb/nt/gpu/config columns from a manifest or spec config dict."""
    out: dict[str, object] = {}
    n, nb = config.get("n"), config.get("nb")
    if isinstance(n, int) and not isinstance(n, bool):
        out["n"] = n
    if isinstance(nb, int) and not isinstance(nb, bool):
        out["nb"] = nb
    if "n" in out and "nb" in out and out["nb"]:
        out["nt"] = -(-out["n"] // out["nb"])
    if isinstance(config.get("gpu"), str):
        out["gpu"] = config["gpu"]
    if isinstance(config.get("config"), str):
        out["config"] = config["config"]
    return out


def _profile_metrics(doc: Mapping) -> dict[str, float]:
    """The longitudinally interesting numbers of a profile document."""
    out: dict[str, float] = {}
    for key in ("tasks_per_second", "n_samples", "overhead_fraction"):
        value = doc.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = float(value)
    for region in doc.get("hot_regions") or []:
        name, seconds = region.get("name"), region.get("seconds")
        if isinstance(name, str) and isinstance(seconds, (int, float)):
            out[f"region_seconds[{name}]"] = float(seconds)
    return out


def _live_metrics(doc: Mapping) -> dict[str, float]:
    """Numbers worth trending from a live snapshot or alert event record."""
    out: dict[str, float] = {}
    if str(doc.get("type", "")).startswith("live."):
        attrs = doc.get("attrs") if isinstance(doc.get("attrs"), Mapping) else {}
        value = attrs.get("value")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out["alert_value"] = float(value)
        for key in ("done", "total", "elapsed_seconds"):
            value = attrs.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[key] = float(value)
        return out
    for key in ("done", "total", "fraction", "tasks_per_second", "eta_seconds",
                "live_tasks", "elapsed_seconds", "heartbeat_age_seconds"):
        value = doc.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = float(value)
    gauges = doc.get("gauges")
    if isinstance(gauges, Mapping):
        for name, value in gauges.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"gauge[{name}]"] = float(value)
    return out


class Warehouse:
    """SQLite-backed store of run history (schema ``repro.obs.warehouse/1``)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(str(self.path))
        self._db.executescript(_DDL)
        row = self._db.execute("SELECT value FROM meta WHERE key='schema'").fetchone()
        if row is None:
            with self._db:
                self._db.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                    (WAREHOUSE_SCHEMA,),
                )
        elif row[0] != WAREHOUSE_SCHEMA:
            self._db.close()
            raise ValueError(
                f"warehouse {self.path} has schema {row[0]!r}, expected {WAREHOUSE_SCHEMA!r}"
            )

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ingest -----------------------------------------------------------
    def ingest(
        self,
        doc: Mapping,
        *,
        run_key: str | None = None,
        source: str | None = None,
    ) -> IngestResult:
        """Store one document; returns what landed where.

        ``run_key`` defaults to the manifest's ``run_id`` (the sweep
        cache key for cached sweep runs), else a content hash — so the
        same run re-ingested twice gets the same key at two seqs, which
        is exactly what a trend over repeated CI runs needs.
        """
        kind = _classify(doc)
        manifest = doc.get("manifest") if isinstance(doc.get("manifest"), Mapping) else {}
        if run_key is None:
            rid = manifest.get("run_id")
            if not (isinstance(rid, str) and rid) and kind == "live":
                # live snapshots and alert events carry the id top-level
                rid = doc.get("run_id")
            run_key = rid if isinstance(rid, str) and rid else _content_key(doc)

        columns: dict[str, object] = {
            "command": manifest.get("command"),
            "policy": manifest.get("policy"),
            "cache_schema": manifest.get("cache_schema"),
            "git_revision": manifest.get("git_revision"),
        }
        config = manifest.get("config")
        if isinstance(config, Mapping):
            columns.update(_dims_from_config(config))
            if columns.get("policy") is None and isinstance(config.get("policy"), str):
                columns["policy"] = config["policy"]
        if kind == "bench" and columns.get("cache_schema") is None:
            cs = doc.get("cache_schema")
            if isinstance(cs, int) and not isinstance(cs, bool):
                columns["cache_schema"] = cs

        if kind == "profile":
            scopes = {"profile": _profile_metrics(doc)}
        elif kind == "live":
            scopes = {"live": _live_metrics(doc)}
        else:
            scopes = load_metric_scopes(doc)

        with self._db:
            cur = self._db.execute(
                "INSERT INTO runs (run_key, kind, command, policy, config, n, nb, nt,"
                " gpu, cache_schema, git_revision, source, doc)"
                " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?)",
                (
                    run_key,
                    kind,
                    columns.get("command"),
                    columns.get("policy"),
                    columns.get("config"),
                    columns.get("n"),
                    columns.get("nb"),
                    columns.get("nt"),
                    columns.get("gpu"),
                    columns.get("cache_schema"),
                    columns.get("git_revision"),
                    source,
                    json.dumps(doc, sort_keys=True, default=str),
                ),
            )
            seq = int(cur.lastrowid)
            n_metrics = 0
            for scope, metrics in scopes.items():
                for metric, value in metrics.items():
                    self._db.execute(
                        "INSERT OR REPLACE INTO metrics (run_seq, scope, metric, value)"
                        " VALUES (?,?,?,?)",
                        (seq, scope, metric, float(value)),
                    )
                    n_metrics += 1
            n_points = 0
            if kind == "bench":
                for run in doc.get("runs") or []:
                    spec = run.get("spec") or {}
                    self._db.execute(
                        "INSERT OR REPLACE INTO bench_points (run_seq, point_key,"
                        " label, cached, failed, attempts, spec, metrics)"
                        " VALUES (?,?,?,?,?,?,?,?)",
                        (
                            seq,
                            str(run.get("key", "?")),
                            _point_label(spec),
                            int(bool(run.get("cached"))),
                            int(bool(run.get("failed"))),
                            int(run.get("attempts", 1) or 1),
                            json.dumps(spec, sort_keys=True),
                            json.dumps(run.get("metrics") or {}, sort_keys=True),
                        ),
                    )
                    n_points += 1
        return IngestResult(
            seq=seq, run_key=run_key, kind=kind, n_metrics=n_metrics, n_points=n_points
        )

    def ingest_file(self, path: str | Path) -> IngestResult:
        path = Path(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        return self.ingest(doc, source=str(path))

    # -- queries ----------------------------------------------------------
    def _where(
        self,
        *,
        policy: str | None = None,
        nt: int | None = None,
        config: str | None = None,
        command: str | None = None,
        kind: str | None = None,
        run_key: str | None = None,
    ) -> tuple[str, list]:
        clauses, params = [], []
        for column, value in (
            ("policy", policy),
            ("nt", nt),
            ("config", config),
            ("command", command),
            ("kind", kind),
            ("run_key", run_key),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params

    def runs(self, *, limit: int | None = None, **filters) -> list[RunRow]:
        """Matching ``runs`` rows, oldest first (``seq`` ascending)."""
        where, params = self._where(**filters)
        sql = (
            "SELECT seq, run_key, kind, command, policy, config, n, nb, nt, gpu,"
            f" cache_schema, git_revision, source FROM runs{where} ORDER BY seq"
        )
        rows = [RunRow(*row) for row in self._db.execute(sql, params)]
        if limit is not None and limit >= 0:
            rows = rows[-limit:]
        return rows

    def document(self, seq: int) -> dict:
        """The full ingested document at one ``seq``."""
        row = self._db.execute("SELECT doc FROM runs WHERE seq = ?", (seq,)).fetchone()
        if row is None:
            raise KeyError(f"no run with seq {seq}")
        return json.loads(row[0])

    def metric_scopes(self, seq: int) -> dict[str, dict[str, float]]:
        """The flattened ``{scope: {metric: value}}`` view of one run."""
        scopes: dict[str, dict[str, float]] = {}
        for scope, metric, value in self._db.execute(
            "SELECT scope, metric, value FROM metrics WHERE run_seq = ?"
            " ORDER BY scope, metric",
            (seq,),
        ):
            scopes.setdefault(scope, {})[metric] = value
        return scopes

    def window_scopes(
        self, window: int, **filters
    ) -> list[dict[str, dict[str, float]]]:
        """Metric scopes of the last ``window`` matching runs, oldest first.

        This is the history the windowed trend sentinel consumes
        (:func:`repro.obs.regress.compare_against_window`).
        """
        if window < 1:
            raise ValueError("window must be positive")
        rows = self.runs(limit=window, **filters)
        return [self.metric_scopes(row.seq) for row in rows]

    def metric_history(
        self, metric: str, *, scope: str = "run", **filters
    ) -> list[tuple[int, str, float]]:
        """``(seq, run_key, value)`` series of one metric, oldest first."""
        where, params = self._where(**filters)
        conditions = [where.replace(" WHERE ", "", 1)] if where else []
        conditions += ["metrics.metric = ?", "metrics.scope = ?"]
        sql = (
            "SELECT runs.seq, runs.run_key, metrics.value FROM metrics"
            " JOIN runs ON runs.seq = metrics.run_seq"
            " WHERE " + " AND ".join(conditions) + " ORDER BY runs.seq"
        )
        return [
            (int(seq), key, float(value))
            for seq, key, value in self._db.execute(sql, [*params, metric, scope])
        ]

    def bench_points(self, seq: int) -> list[dict]:
        """Sweep points of one ingested BENCH document."""
        out = []
        for point_key, label, cached, failed, attempts, spec, metrics in self._db.execute(
            "SELECT point_key, label, cached, failed, attempts, spec, metrics"
            " FROM bench_points WHERE run_seq = ? ORDER BY point_key",
            (seq,),
        ):
            out.append({
                "key": point_key,
                "label": label,
                "cached": bool(cached),
                "failed": bool(failed),
                "attempts": attempts,
                "spec": json.loads(spec) if spec else {},
                "metrics": json.loads(metrics) if metrics else {},
            })
        return out

    def counts(self) -> dict[str, int]:
        """Row counts per table (for ``repro history`` headers and tests)."""
        return {
            table: int(self._db.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0])
            for table in ("runs", "metrics", "bench_points")
        }

    # -- rendering --------------------------------------------------------
    def history_table(self, rows: Iterable[RunRow] | None = None, **filters) -> str:
        """Human-readable history listing (``repro history``)."""
        from ..bench.reporting import format_table

        if rows is None:
            rows = self.runs(**filters)
        rows = list(rows)
        # each run kind reports a different headline throughput metric
        # (simulate → tflops, sweeps → best_tflops, profiles →
        # tasks_per_second); label the one actually shown rather than
        # printing them all under one ambiguous column
        rate_units = (
            ("tflops", "tflops"),
            ("best_tflops", "best tflops"),
            ("tasks_per_second", "tasks/s"),
        )
        body = []
        for row in rows:
            scopes = self.metric_scopes(row.seq)
            primary = (scopes.get("run") or scopes.get("aggregate")
                       or scopes.get("profile") or scopes.get("live") or {})
            makespan = primary.get("makespan_seconds")
            makespan_label = "sim s"
            if makespan is None:
                makespan = primary.get("total_sim_makespan_seconds")
                makespan_label = "total sim s"
            rate = None
            rate_label = ""
            for metric, unit in rate_units:
                if primary.get(metric) is not None:
                    rate, rate_label = primary[metric], unit
                    break
            body.append((
                row.seq,
                row.run_key,
                row.kind,
                row.policy or "-",
                row.nt if row.nt is not None else "-",
                row.config or "-",
                f"{makespan:.4g} {makespan_label}" if makespan is not None else "-",
                f"{rate:.4g} {rate_label}" if rate is not None else "-",
            ))
        counts = self.counts()
        title = (
            f"warehouse {self.path} — {counts['runs']} runs, "
            f"{counts['metrics']} metric rows, {counts['bench_points']} bench points"
            f" ({len(rows)} shown)"
        )
        if not body:
            return title + "\n(no matching runs)"
        return format_table(
            ["seq", "run key", "kind", "policy", "nt", "config",
             "makespan", "throughput"],
            body,
            title=title,
        )

    def history_json(self, rows: Sequence[RunRow] | None = None, **filters) -> dict:
        """Machine-readable history (``repro history --json-out``)."""
        if rows is None:
            rows = self.runs(**filters)
        return {
            "schema": WAREHOUSE_SCHEMA,
            "path": str(self.path),
            "counts": self.counts(),
            "runs": [
                {**row.to_dict(), "metrics": self.metric_scopes(row.seq)}
                for row in rows
            ],
        }


def _point_label(spec: Mapping) -> str:
    label = "/".join(
        str(spec[k]) for k in ("config", "strategy", "n", "nb", "gpu") if k in spec
    )
    return label or "?"
