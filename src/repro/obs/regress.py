"""The regression sentinel: diff run summaries, gate CI.

Two run summaries (what ``--metrics-out`` writes) are made *comparable*:
per-metric deltas with configurable relative thresholds and a
machine-readable verdict, so "did this PR regress?" is a command
(``repro compare baseline candidate --fail-on-regress``) instead of a
diff eyeballed by a reviewer.

A summary is compared in a ``run`` scope (its ``stats``) and in one
scope per entry of its ``runs`` section (a sweep's points, an ``mle``
run's fits).  Only deterministic simulator metrics are compared by
default — wall-clock numbers (``plan_seconds``, ``wall_seconds``, …)
are machine noise and excluded unless explicitly thresholded.

A *regression* is a delta beyond the metric's relative threshold in its
bad direction (makespan up, tflops down, bytes up…); an improvement
beyond threshold is reported but never fails the gate.

There is one comparison, pairwise: :func:`compare_docs` judges each
thresholded metric of a candidate on its level against the baseline's.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .exporters import read_run_summary

__all__ = [
    "DEFAULT_THRESHOLDS",
    "MetricDelta",
    "RegressionReport",
    "Threshold",
    "compare_docs",
    "compare_files",
    "load_metric_scopes",
    "parse_threshold_args",
]


@dataclass(frozen=True)
class Threshold:
    """Tolerance and direction for one metric."""

    rel_tol: float
    #: "lower" = smaller is better (makespan, bytes); "higher" = larger
    #: is better (tflops)
    direction: str = "lower"

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher"):
            raise ValueError(f"direction must be 'lower' or 'higher', got {self.direction!r}")
        if self.rel_tol < 0.0:
            raise ValueError(f"rel_tol must be non-negative, got {self.rel_tol}")


#: metrics the sentinel watches by default; everything else in a document
#: is carried along informationally but never gates.
DEFAULT_THRESHOLDS: dict[str, Threshold] = {
    "makespan_seconds": Threshold(0.02, "lower"),
    "tflops": Threshold(0.02, "higher"),
    "gflops": Threshold(0.02, "higher"),
    "best_tflops": Threshold(0.02, "higher"),
    "joules": Threshold(0.02, "lower"),
    # every ``RunStats`` link total (``repro.runtime.tracing.LINKS``; spelled
    # out because ``repro.obs`` loads before ``repro.runtime``) and the
    # out-of-core counters: any increase in data motion regresses
    "h2d_bytes": Threshold(0.0, "lower"),
    "d2h_bytes": Threshold(0.0, "lower"),
    "nic_bytes": Threshold(0.0, "lower"),
    "disk_read_bytes": Threshold(0.0, "lower"),
    "disk_write_bytes": Threshold(0.0, "lower"),
    "n_conversions": Threshold(0.0, "lower"),
    "conversion_seconds": Threshold(0.02, "lower"),
    "n_evictions": Threshold(0.0, "lower"),
    "n_host_evictions": Threshold(0.0, "lower"),
    "n_spills": Threshold(0.0, "lower"),
    "n_failed": Threshold(0.0, "lower"),
    # bench floors (the host numbers ``repro simulate`` records):
    # scheduling throughput and peak resident set.  Wide tolerances —
    # these run on shared CI machines — but a 30% tasks/sec collapse or a
    # 25% RSS blow-up is a real hot-path or memory regression, not noise.
    "tasks_per_second": Threshold(0.30, "higher"),
    "peak_rss_bytes": Threshold(0.25, "lower"),
    "peak_live_tasks": Threshold(0.10, "lower"),
    # an ``mle`` run's fits: the likelihood reached (a tolerance far above
    # a last-bit drift), whether the simplex converged (0/1), and the
    # evaluations spent and found infeasible; ``theta_*`` have no better
    # direction and never gate
    "loglik": Threshold(1e-6, "higher"),
    "converged": Threshold(0.0, "higher"),
    "n_evals": Threshold(0.10, "lower"),
    "infeasible_evals": Threshold(0.0, "lower"),
}


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared in one scope."""

    scope: str  # "run", or a sweep point's spec label
    metric: str
    baseline: float
    candidate: float
    rel_delta: float  # (candidate - baseline) / |baseline|
    rel_tol: float
    direction: str
    regressed: bool
    improved: bool

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "delta": self.delta,
            "rel_delta": self.rel_delta if math.isfinite(self.rel_delta) else None,
        }


@dataclass
class RegressionReport:
    """Machine-readable verdict of one candidate against its baseline."""

    baseline: str
    candidate: str
    deltas: list[MetricDelta] = field(default_factory=list)
    #: scopes present on one side only (grid changed between runs)
    missing_in_candidate: list[str] = field(default_factory=list)
    added_in_candidate: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def n_regressions(self) -> int:
        return len(self.regressions)

    @property
    def verdict(self) -> str:
        return "regressed" if self.regressions else "ok"

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "candidate": self.candidate,
            "verdict": self.verdict,
            "n_compared": len(self.deltas),
            "n_regressions": self.n_regressions,
            "n_improvements": len(self.improvements),
            "missing_in_candidate": list(self.missing_in_candidate),
            "added_in_candidate": list(self.added_in_candidate),
            "deltas": [d.to_dict() for d in self.deltas],
        }

    def table(self, *, all_metrics: bool = False) -> str:
        """Human view: regressions and improvements, or every delta."""
        from ..bench.reporting import format_table

        shown = (
            self.deltas
            if all_metrics
            else [d for d in self.deltas if d.regressed or d.improved]
        )
        rows = [
            (
                d.scope,
                d.metric,
                d.baseline,
                d.candidate,
                f"{d.rel_delta * 100.0:+.2f}%",
                f"±{d.rel_tol * 100.0:g}%",
                "REGRESSED" if d.regressed else ("improved" if d.improved else "ok"),
            )
            for d in sorted(
                shown, key=lambda d: (not d.regressed, not d.improved, d.scope, d.metric)
            )
        ]
        title = (
            f"compare {self.baseline} → {self.candidate}: "
            f"{len(self.deltas)} metrics, {self.n_regressions} regression(s), "
            f"{len(self.improvements)} improvement(s) — verdict {self.verdict.upper()}"
        )
        if not rows:
            return title + "\n(all compared metrics within thresholds)"
        return format_table(
            ["scope", "metric", "baseline", "candidate", "delta", "tol", "status"],
            rows,
            title=title,
        )


# -- loading ---------------------------------------------------------------

#: wall-clock metrics never compared by default (machine noise)
_NOISY = frozenset({
    "plan_seconds", "sim_seconds", "wall_seconds", "gc_seconds", "total_plan_seconds",
    "total_sim_seconds",
})


def _numeric_metrics(mapping: Mapping) -> dict[str, float]:
    out: dict[str, float] = {}
    for key, value in mapping.items():
        if key in _NOISY:
            continue
        if isinstance(value, (int, float)):  # a bool (``converged``) is 0 or 1
            out[key] = float(value)
    return out


def load_metric_scopes(doc: Mapping) -> dict[str, dict[str, float]]:
    """``{scope: {metric: value}}`` from a ``repro.obs.run_summary/1``.

    A ``run`` scope from the ``stats`` section, plus one scope per
    non-failed entry of the ``runs`` section (a sweep's points, an
    ``mle`` run's fits), keyed by the sorted ``k=v`` fields of its spec.
    """
    doc = read_run_summary(doc)
    if "stats" not in doc and "runs" not in doc:
        raise ValueError("the run summary holds neither a stats nor a runs section")
    scopes = {"run": _numeric_metrics(doc["stats"])} if "stats" in doc else {}
    for run in doc.get("runs") or []:
        if run.get("failed"):
            continue
        # every spec field identifies the point: runs that differ only
        # in policy, ordering, seed, … are separate scopes
        spec = run["spec"]
        label = ",".join(f"{k}={spec[k]}" for k in sorted(spec))
        scopes[label] = _numeric_metrics(run["metrics"])
    return scopes


# -- comparison ------------------------------------------------------------

def _compare_metric(
    scope: str,
    metric: str,
    baseline: float,
    candidate: float,
    threshold: Threshold,
) -> MetricDelta:
    if baseline == candidate:
        rel = 0.0
    elif baseline == 0.0:
        rel = math.inf if candidate > 0.0 else -math.inf
    else:
        rel = (candidate - baseline) / abs(baseline)
    if threshold.direction == "lower":
        regressed = rel > threshold.rel_tol
        improved = rel < -threshold.rel_tol if threshold.rel_tol > 0.0 else rel < 0.0
    else:
        regressed = rel < -threshold.rel_tol
        improved = rel > threshold.rel_tol if threshold.rel_tol > 0.0 else rel > 0.0
    return MetricDelta(
        scope=scope,
        metric=metric,
        baseline=baseline,
        candidate=candidate,
        rel_delta=rel,
        rel_tol=threshold.rel_tol,
        direction=threshold.direction,
        regressed=regressed,
        improved=improved,
    )


def compare_docs(
    baseline: Mapping,
    candidate: Mapping,
    *,
    thresholds: Mapping[str, Threshold] | None = None,
    baseline_name: str = "baseline",
    candidate_name: str = "candidate",
) -> RegressionReport:
    """Compare two documents; only thresholded metrics can regress."""
    thresholds = dict(DEFAULT_THRESHOLDS if thresholds is None else thresholds)
    base_scopes = load_metric_scopes(baseline)
    cand_scopes = load_metric_scopes(candidate)
    report = RegressionReport(
        baseline=baseline_name,
        candidate=candidate_name,
        missing_in_candidate=sorted(set(base_scopes) - set(cand_scopes)),
        added_in_candidate=sorted(set(cand_scopes) - set(base_scopes)),
    )
    for scope in sorted(set(base_scopes) & set(cand_scopes)):
        base_metrics = base_scopes[scope]
        cand_metrics = cand_scopes[scope]
        for metric in sorted(set(base_metrics) & set(cand_metrics)):
            threshold = thresholds.get(metric)
            if threshold is not None:
                report.deltas.append(_compare_metric(
                    scope, metric, base_metrics[metric], cand_metrics[metric], threshold
                ))
    return report


def compare_files(
    baseline: str | Path,
    candidate: str | Path,
    *,
    thresholds: Mapping[str, Threshold] | None = None,
) -> RegressionReport:
    """Load two run summaries from disk and compare them."""
    base_doc = json.loads(Path(baseline).read_text(encoding="utf-8"))
    cand_doc = json.loads(Path(candidate).read_text(encoding="utf-8"))
    return compare_docs(
        base_doc,
        cand_doc,
        thresholds=thresholds,
        baseline_name=str(baseline),
        candidate_name=str(candidate),
    )

def parse_threshold_args(args: Sequence[str] | None) -> dict[str, Threshold]:
    """CLI ``--threshold metric=rel[:direction]`` overrides on the defaults.

    ``repro compare --threshold tflops=0.10 --threshold my_metric=0.05:higher``
    """
    thresholds = dict(DEFAULT_THRESHOLDS)
    for item in args or []:
        if "=" not in item:
            raise ValueError(f"--threshold expects METRIC=REL[:DIRECTION], got {item!r}")
        metric, _, value = item.partition("=")
        value, _, direction = value.partition(":")
        metric, direction = metric.strip(), direction.strip()
        default = thresholds.get(metric)
        thresholds[metric] = Threshold(
            rel_tol=float(value),
            direction=direction or (default.direction if default else "lower"),
        )
    return thresholds
