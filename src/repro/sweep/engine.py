"""The campaign engine: fan a sweep grid across worker processes.

``run_sweep`` prices every :class:`~repro.sweep.grid.RunSpec` of a grid
— planning the precision maps, simulating the factorization, collecting
the counters the paper reports — and aggregates the results into a
table plus a ``BENCH_*.json`` document for the perf trajectory.

Two properties make large campaigns cheap:

* **caching** — each spec's result is persisted under its deterministic
  cache key (``<cache_dir>/<key>.json`` with the spec, the result, and
  an obs manifest); re-running an unchanged grid reads every point back
  and reports 100 % cache hits;
* **parallelism** — cache misses go through the batch runner
  (:func:`repro.faults.run_batch`: one simulator run per item, inline or
  across a process pool, each under the retry policy and the fault plan).

A point that exhausts its retries is recorded with ``failed=True``
instead of aborting the sweep, and unreadable or schema-invalid cache
files are quarantined with a ``.corrupt`` suffix and treated as misses
(see ``docs/RESILIENCE.md``).

Telemetry goes through :mod:`repro.obs`: ``sweep.runs`` /
``sweep.cache_hits`` / ``sweep.cache_misses`` / ``sweep.cache_corrupt``
/ ``sweep.failed`` counters (``retry.attempts`` / ``retry.gave_up`` /
``faults.injected`` and the ``fault`` events are the batch runner's),
and ``sweep.run`` / ``sweep.complete`` events when an event log is
attached.  A point's ``plan_seconds`` / ``sim_seconds`` ride in its
result.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..faults import FaultPlan, RetryPolicy, run_batch
from ..obs import build_manifest, emit_event, get_registry, span, write_json
from ..runtime.simulator import SimReport
from ..runtime.tracing import LINKS
from .grid import CACHE_SCHEMA, RunSpec, SweepGrid

__all__ = ["SweepRun", "SweepResult", "run_sweep", "execute_spec", "price_run"]

#: columns of the aggregated results table (and the BENCH run metrics)
TABLE_COLUMNS = (
    "config", "strategy", "policy", "n", "nb", "platform",
    "makespan_s", "tflops", "h2d_gb", "nic_gb", "n_conversions", "cached", "failed",
)


def _count_fp64(kmap) -> int:
    """Lower-triangle tiles whose kernel runs in FP64."""
    import numpy as np

    from ..precision import Precision

    il, jl = np.tril_indices(kmap.nt)
    return int(np.sum(kmap.codes[il, jl] == int(Precision.FP64)))


def price_run(spec: RunSpec, *, record_events: bool = False,
              stream: bool = False) -> tuple[SimReport, dict]:
    """Price one run description: the one place a :class:`RunSpec` becomes a
    simulated run, ``record_events`` / ``stream`` passed to ``simulate_cholesky``.

    Returns the :class:`SimReport` and the JSON-ready result dict a sweep
    point stores: the simulator's counters, the run's ``joules`` and
    ``gflops_per_watt`` (Fig. 10), the planning statistics (STC fraction,
    tile fractions) and the wall-time split between planning and simulation.
    """
    from ..core import (
        ConversionStrategy,
        build_comm_precision_map,
        fixed_config_map,
        simulate_cholesky,
    )
    from ..perfmodel import GPU_BY_NAME
    from ..precision import Precision
    from ..runtime import Platform

    platform = Platform.of_gpus(GPU_BY_NAME[spec.gpu], spec.gpus_per_node, spec.n_nodes,
                                host_memory=spec.host_memory_gb * 1e9)

    t0 = time.perf_counter()
    ordering_score: float | None = None
    if spec.config == "adaptive":
        from dataclasses import replace

        from ..bench.apps import app_kernel_map, get_app
        from ..geostats.dataplane.hilbert import check_spatial_order, order_locations
        from ..geostats.locations import generate_locations

        app = get_app(spec.app)
        if spec.accuracy is not None:
            app = replace(app, accuracy=spec.accuracy)
        locs = generate_locations(spec.n, app.model.dim, seed=spec.seed, sort=False)
        locs = order_locations(locs, spec.ordering, seed=spec.seed)
        ordering_score = check_spatial_order(locs)
        get_registry().gauge(
            "dataplane.ordering_score", "consecutive/random pair distance ratio"
        ).set(ordering_score, ordering=spec.ordering)
        kmap = app_kernel_map(
            app, spec.n, spec.nb, samples_per_tile=32, seed=spec.seed,
            locations=locs, ordering=None,
        )
    else:
        kmap = fixed_config_map(spec.nt, spec.config)
    cmap = build_comm_precision_map(kmap)
    plan_seconds = time.perf_counter() - t0

    strategy = ConversionStrategy(spec.strategy)
    t1 = time.perf_counter()
    report = simulate_cholesky(
        spec.n, spec.nb, kmap, platform,
        strategy=strategy,
        record_events=record_events,
        policy=spec.policy,
        stream=stream,
    )
    sim_seconds = time.perf_counter() - t1

    result = report.stats.to_dict()
    result.update(
        nt=spec.nt,
        policy=report.policy,
        joules=report.joules,
        gflops_per_watt=report.gflops_per_watt,
        stc_fraction=cmap.stc_fraction(),
        tile_fractions={p.name: f for p, f in sorted(kmap.tile_fractions().items(), reverse=True)},
        plan_seconds=plan_seconds,
        sim_seconds=sim_seconds,
        ordering=spec.ordering,
        ordering_score=ordering_score,
        n_low_precision_tiles=kmap.count_below(Precision.FP32),
        n_fp64_tiles=_count_fp64(kmap),
        fp64_band_width=kmap.fp64_band_width(),
    )
    return report, result


def execute_spec(spec_dict: dict) -> dict:
    """Price one sweep point; module-level so worker processes can pickle it."""
    return price_run(RunSpec.from_dict(spec_dict))[1]


@dataclass(frozen=True)
class SweepRun:
    """One completed sweep point: spec, cache key, result, provenance.

    ``attempts`` counts executions spent on this point in this campaign
    (0 for cache hits and points that shared another point's execution);
    a point whose retries were exhausted carries ``failed=True`` and a
    ``{"failed": True, "error": ...}`` result instead of metrics.
    """

    spec: RunSpec
    key: str
    result: dict
    cached: bool
    attempts: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.result.get("failed", False))

    def row(self) -> tuple:
        """One row of the aggregated results table."""
        cfg = self.spec.config if self.spec.config != "adaptive" else f"adaptive({self.spec.app})"
        if self.spec.ordering != "morton":
            cfg += f" ord={self.spec.ordering}"
        head = (cfg, self.spec.strategy, self.spec.policy, self.spec.n, self.spec.nb, self.spec.platform)
        if self.failed:
            return head + ("-", "-", "-", "-", "-", "miss", "yes")
        return head + (
            self.result["makespan_seconds"],
            self.result["tflops"],
            self.result["h2d_bytes"] / 1e9,
            self.result["nic_bytes"] / 1e9,
            self.result["n_conversions"],
            "hit" if self.cached else "miss",
            "",
        )


@dataclass
class SweepResult:
    """Aggregated output of one campaign."""

    name: str
    runs: list[SweepRun] = field(default_factory=list)
    axes: dict | None = None
    wall_seconds: float = 0.0
    workers: int = 1

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def n_cache_hits(self) -> int:
        return sum(1 for r in self.runs if r.cached)

    @property
    def n_cache_misses(self) -> int:
        return self.n_runs - self.n_cache_hits

    @property
    def cache_hit_fraction(self) -> float:
        return self.n_cache_hits / self.n_runs if self.runs else 0.0

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.runs if r.failed)

    @property
    def total_retries(self) -> int:
        """Re-attempts spent across the campaign (attempts beyond the first)."""
        return sum(max(0, r.attempts - 1) for r in self.runs)

    def table(self) -> str:
        from ..bench.reporting import format_table

        title = (f"sweep '{self.name}': {self.n_runs} runs, "
                 f"{self.n_cache_hits} cache hits, {self.n_failed} failed, "
                 f"{self.workers} worker(s), {self.wall_seconds:.2f} s wall")
        return format_table(TABLE_COLUMNS, [r.row() for r in self.runs], title=title)

    def to_bench_json(self) -> dict:
        """The ``BENCH_*.json`` document that feeds the perf trajectory."""
        ok = [r for r in self.runs if not r.failed]
        makespans = [r.result["makespan_seconds"] for r in ok]
        tflops = [r.result["tflops"] for r in ok]
        return {
            "schema": "repro.bench/1",
            "cache_schema": CACHE_SCHEMA,
            "name": self.name,
            "axes": self.axes,
            "n_runs": self.n_runs,
            "n_cache_hits": self.n_cache_hits,
            "n_cache_misses": self.n_cache_misses,
            "n_failed": self.n_failed,
            "total_retries": self.total_retries,
            "cache_hit_fraction": self.cache_hit_fraction,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "aggregates": {
                "best_tflops": max(tflops, default=0.0),
                "total_sim_makespan_seconds": sum(makespans),
                "total_plan_seconds": sum(r.result.get("plan_seconds", 0.0) for r in ok),
                "total_sim_seconds": sum(r.result.get("sim_seconds", 0.0) for r in ok),
                "planned_tasks": sum(r.result.get("n_tasks", 0) for r in ok),
                **{f"total_{link}_bytes": sum(r.result.get(f"{link}_bytes", 0) for r in ok)
                   for link in LINKS},
                "total_conversions": sum(r.result.get("n_conversions", 0) for r in ok),
                "total_joules": sum(r.result.get("joules", 0.0) for r in ok),
            },
            "runs": [
                {
                    "key": r.key,
                    "cached": r.cached,
                    "failed": r.failed,
                    "attempts": r.attempts,
                    "spec": r.spec.to_dict(),
                    "metrics": r.result,
                }
                for r in self.runs
            ],
        }

    def summary_stats(self) -> dict:
        """Campaign-level counters in run-summary form.

        A flat numeric dict for the ``stats`` section of ``--metrics-out``
        summaries (``makespan_seconds`` key included so
        :func:`repro.obs.exporters.run_stats` finds it), making a campaign
        diffable by ``repro compare`` just like a single run.
        """
        bench = self.to_bench_json()
        stats = dict(bench["aggregates"])
        stats.update(
            makespan_seconds=stats.pop("total_sim_makespan_seconds", 0.0),
            n_runs=self.n_runs,
            n_failed=self.n_failed,
            total_retries=self.total_retries,
            cache_hit_fraction=self.cache_hit_fraction,
        )
        return stats

    def write_bench_json(self, out_dir: str | Path) -> Path:
        """Write ``BENCH_<name>.json`` under ``out_dir``; returns the path."""
        safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in self.name)
        return write_json(Path(out_dir) / f"BENCH_{safe}.json", self.to_bench_json())


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


def _quarantine(path: Path) -> None:
    """Move a poisoned cache file aside (``<key>.json.corrupt``) and count it."""
    try:
        path.replace(path.with_suffix(path.suffix + ".corrupt"))
    except OSError:
        pass  # a concurrent campaign may have quarantined it already
    get_registry().counter(
        "sweep.cache_corrupt", "cache entries quarantined as unreadable/invalid"
    ).inc()
    emit_event("sweep.cache_corrupt", {"path": str(path)})


def _load_cached(cache_dir: Path, spec: RunSpec, key: str) -> dict | None:
    """Read a cached result; treat anything unreadable as a miss.

    A truncated, non-UTF-8, non-object, or otherwise invalid file is
    *quarantined* (renamed with a ``.corrupt`` suffix, ``sweep.cache_corrupt``
    bumped) so the campaign re-executes the point instead of aborting —
    previously a cache entry holding a JSON array or binary garbage
    raised out of the campaign loop.  Schema drift and spec mismatch are
    well-formed non-matches: plain misses, overwritten on store.
    """
    path = _cache_path(cache_dir, key)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"cache entry is {type(doc).__name__}, not an object")
    except Exception:
        _quarantine(path)
        return None
    if doc.get("schema") != CACHE_SCHEMA or doc.get("spec") != spec.to_dict():
        return None
    result = doc.get("result")
    if not isinstance(result, dict):
        _quarantine(path)
        return None
    return result


def _store_cached(cache_dir: Path, spec: RunSpec, key: str, result: dict) -> None:
    doc = {
        "schema": CACHE_SCHEMA,
        "key": key,
        "spec": spec.to_dict(),
        "result": result,
        "manifest": build_manifest(
            run_id=key, command="sweep.run", config=spec.to_dict(), seed=spec.seed,
            policy=spec.policy,
        ),
    }
    path = _cache_path(cache_dir, key)
    tmp = path.with_suffix(".json.tmp")
    write_json(tmp, doc)
    tmp.replace(path)


class _ProgressTracker:
    """Periodic ``completed/total`` campaign progress.

    Two sinks per update, a ``sweep.progress`` obs-event and a stderr
    line, rate-limited to one per ``every`` seconds (``every=0`` logs
    every completion, ``every=None`` silences them).  A campaign that
    runs for minutes is no longer silent.
    """

    def __init__(self, total: int, *, hits: int = 0,
                 every: float | None = 10.0, name: str = "sweep") -> None:
        self.total = total
        self.hits = hits
        self.every = every
        self.name = name
        self.completed_misses = 0
        self.retries = 0
        self.failed = 0
        self._last_report: float | None = None

    @property
    def completed(self) -> int:
        return self.hits + self.completed_misses

    def point_done(self, envelope: dict) -> None:
        self.completed_misses += 1
        self.retries += max(0, int(envelope.get("attempts", 1)) - 1)
        if not envelope.get("ok", True):
            self.failed += 1
        self.report()

    def report(self, *, force: bool = False) -> None:
        if self.every is None:
            return
        now = time.monotonic()
        if not force and self._last_report is not None and (
            now - self._last_report < self.every
        ):
            return
        self._last_report = now
        attrs = {
            "name": self.name,
            "completed": self.completed,
            "total": self.total,
            "cache_hits": self.hits,
            "retries": self.retries,
            "failed": self.failed,
        }
        emit_event("sweep.progress", attrs)
        print(
            f"sweep {self.name}: {self.completed}/{self.total} points "
            f"({self.hits} cached, {self.retries} retries"
            + (f", {self.failed} failed" if self.failed else "")
            + ")",
            file=sys.stderr,
        )


def run_sweep(
    grid: SweepGrid | Sequence[RunSpec] | Iterable[RunSpec],
    *,
    workers: int = 1,
    cache_dir: str | Path = ".sweep-cache",
    force: bool = False,
    name: str | None = None,
    retry_policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | dict | None = None,
    progress_seconds: float | None = 10.0,
) -> SweepResult:
    """Execute a campaign: every grid point, cached, parallel, resilient.

    ``workers > 1`` fans cache misses across a process pool; ``force``
    ignores (and rewrites) existing cache entries.  Results keep the
    grid's expansion order regardless of completion order.

    ``retry_policy`` and ``fault_plan`` are :func:`repro.faults.run_batch`'s;
    a point that exhausts its retries is recorded with ``failed=True``
    (and left uncached, so the next campaign retries it).

    ``progress_seconds`` rate-limits ``completed/total`` progress
    reporting (a stderr line plus a ``sweep.progress`` event, with
    cache-hit/retry/failure counts); ``0`` reports every completion,
    ``None`` disables the lines.
    """
    if isinstance(grid, SweepGrid):
        specs = grid.expand()
        axes = grid.axes_dict()
        sweep_name = name or grid.name
    else:
        specs = list(grid)
        axes = None
        sweep_name = name or "sweep"
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)

    registry = get_registry()
    runs_metric = registry.counter("sweep.runs", "sweep points priced (hits + misses)")
    hits_metric = registry.counter("sweep.cache_hits", "sweep points served from cache")
    misses_metric = registry.counter("sweep.cache_misses", "sweep points executed")
    failed_metric = registry.counter("sweep.failed", "sweep points that exhausted retries")

    t_start = time.perf_counter()
    keys = [spec.cache_key() for spec in specs]
    results: dict[int, tuple[dict, bool]] = {}

    with span("sweep.campaign", sweep=sweep_name, n_runs=len(specs), workers=workers):
        # 1. serve everything the cache already holds; dedupe the rest so
        #    each unique key runs exactly once even inside one grid
        owner: dict[str, int] = {}  # key -> index that executes it
        for idx, (spec, key) in enumerate(zip(specs, keys)):
            cached = None if force else _load_cached(cache_dir, spec, key)
            if cached is not None:
                results[idx] = (cached, True)
                hits_metric.inc()
                runs_metric.inc()
            elif key not in owner:
                owner[key] = idx
        progress = _ProgressTracker(
            len(specs), hits=len(results), every=progress_seconds,
            name=sweep_name,
        )
        progress.report()  # the cache-served fraction, before any dispatch

        # 2. execute the misses (one simulator run per unique key), each
        #    under the retry policy and fault plan; failures are recorded,
        #    not raised
        produced: dict[str, dict] = {}
        attempts_spent: dict[int, int] = {}
        unique = sorted(owner.values())
        # points per executed key: its owner and any deduplicated sharers
        sharing = Counter(keys[i] for i in range(len(specs)) if i not in results)

        def point_done(pos: int, env: dict) -> None:
            # counters tick as points complete, so a mid-campaign scrape
            # sees the campaign advance
            runs_metric.inc(sharing[keys[unique[pos]]])
            misses_metric.inc()
            if not env["ok"]:
                failed_metric.inc()
            progress.point_done(env)

        if unique:
            outputs = run_batch(
                execute_spec,
                [specs[i].to_dict() for i in unique],
                [(keys[i], specs[i].label) for i in unique],
                op="sweep.point",
                workers=workers,
                retry_policy=retry_policy,
                fault_plan=fault_plan,
                on_done=point_done,
            )
            for i, env in zip(unique, outputs):
                attempts_spent[i] = env["attempts"]
                if env["ok"]:
                    result = env["result"]
                    _store_cached(cache_dir, specs[i], keys[i], result)
                else:
                    # a failed point stays uncached: the next campaign
                    # retries it instead of replaying the failure
                    result = {"failed": True, "error": env["error"],
                              "attempts": env["attempts"]}
                    emit_event("sweep.point_failed",
                               {"key": keys[i], "label": specs[i].label,
                                "attempts": env["attempts"], "error": env["error"]})
                produced[keys[i]] = result
        for idx in range(len(specs)):
            if idx not in results:
                # executed here (cached=False) or shared from the point
                # that executed the same key (cached=True)
                results[idx] = (produced[keys[idx]], owner[keys[idx]] != idx)

        progress.report(force=True)  # the final completed/total line
        sweep_runs = [
            SweepRun(spec=specs[i], key=keys[i], result=results[i][0],
                     cached=results[i][1], attempts=attempts_spent.get(i, 0))
            for i in range(len(specs))
        ]
        wall = time.perf_counter() - t_start
        out = SweepResult(
            name=sweep_name, runs=sweep_runs, axes=axes, wall_seconds=wall, workers=workers
        )
        for run in sweep_runs:
            emit_event(
                "sweep.run",
                {
                    "key": run.key,
                    "cached": run.cached,
                    "failed": run.failed,
                    "label": run.spec.label,
                    "makespan_seconds": run.result.get("makespan_seconds"),
                    "tflops": run.result.get("tflops"),
                },
            )
        emit_event(
            "sweep.complete",
            {
                "name": sweep_name,
                "n_runs": out.n_runs,
                "n_cache_hits": out.n_cache_hits,
                "n_failed": out.n_failed,
                "total_retries": out.total_retries,
                "cache_hit_fraction": out.cache_hit_fraction,
                "wall_seconds": wall,
            },
        )
    registry.gauge("sweep.cache_hit_fraction", "hit fraction of the last sweep").set(
        out.cache_hit_fraction
    )
    return out
