"""Monte Carlo parameter-estimation study (Figs. 5 and 6).

The paper generates 100 synthetic datasets per configuration, runs the
MLE on each at several accuracy levels (1e-1 … 1e-9 plus exact FP64),
and reports boxplots of the estimated parameters against the truth.
:func:`run_monte_carlo` reproduces the pipeline at a configurable scale;
:class:`MonteCarloStudy` aggregates the replica estimates into the
quartile summaries the boxplots encode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..faults import FaultPlan, RetryPolicy, run_batch
from ..obs import emit_event
from .generator import SyntheticField
from .mle import MLEResult, fit_mle

__all__ = [
    "ReplicaEstimate",
    "ReplicaFailure",
    "BoxStats",
    "MonteCarloStudy",
    "run_monte_carlo",
]


@dataclass(frozen=True)
class ReplicaEstimate:
    """θ̂ for one replica at one accuracy level."""

    replica: int
    accuracy_label: str
    theta_hat: tuple[float, ...]
    loglik: float
    n_evals: int


@dataclass(frozen=True)
class ReplicaFailure:
    """One (replica, accuracy) cell whose fit exhausted its retries."""

    replica: int
    accuracy_label: str
    error: str
    attempts: int


@dataclass(frozen=True)
class BoxStats:
    """Boxplot statistics of one parameter at one accuracy level."""

    parameter: str
    accuracy_label: str
    median: float
    q1: float
    q3: float
    mean: float
    std: float
    n: int

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


@dataclass
class MonteCarloStudy:
    """All replica estimates of one (model, θ_true) configuration."""

    field_name: str
    theta_true: tuple[float, ...]
    param_names: tuple[str, ...]
    estimates: list[ReplicaEstimate] = field(default_factory=list)
    failures: list[ReplicaFailure] = field(default_factory=list)

    def accuracy_labels(self) -> list[str]:
        seen: list[str] = []
        for est in self.estimates:
            if est.accuracy_label not in seen:
                seen.append(est.accuracy_label)
        return seen

    def box_stats(self) -> list[BoxStats]:
        """Per-parameter, per-accuracy boxplot statistics (Fig. 5/6 data)."""
        out: list[BoxStats] = []
        for label in self.accuracy_labels():
            thetas = np.array(
                [e.theta_hat for e in self.estimates if e.accuracy_label == label]
            )
            for p, name in enumerate(self.param_names):
                vals = thetas[:, p]
                out.append(
                    BoxStats(
                        parameter=name,
                        accuracy_label=label,
                        median=float(np.median(vals)),
                        q1=float(np.percentile(vals, 25)),
                        q3=float(np.percentile(vals, 75)),
                        mean=float(np.mean(vals)),
                        std=float(np.std(vals)),
                        n=vals.shape[0],
                    )
                )
        return out

    def median_bias(self, accuracy_label: str) -> dict[str, float]:
        """|median(θ̂) − θ_true| per parameter at one accuracy level."""
        out: dict[str, float] = {}
        for stat in self.box_stats():
            if stat.accuracy_label == accuracy_label:
                idx = self.param_names.index(stat.parameter)
                out[stat.parameter] = abs(stat.median - self.theta_true[idx])
        return out

    def render(self) -> str:
        """Text rendering of the boxplot table."""
        lines = [
            f"{self.field_name}  θ_true={tuple(round(t, 4) for t in self.theta_true)}",
            f"{'param':<12}{'accuracy':<10}{'median':>10}{'q1':>10}{'q3':>10}{'mean':>10}{'std':>10}",
        ]
        for s in self.box_stats():
            lines.append(
                f"{s.parameter:<12}{s.accuracy_label:<10}{s.median:>10.4f}{s.q1:>10.4f}"
                f"{s.q3:>10.4f}{s.mean:>10.4f}{s.std:>10.4f}"
            )
        return "\n".join(lines)


def _fit_replica(payload: tuple) -> MLEResult:
    """Fit one (replica, accuracy) cell; module-level so pools can pickle it."""
    dataset, level, kwargs = payload
    if level == "exact":
        return fit_mle(dataset, exact=True, **kwargs)
    return fit_mle(dataset, accuracy=float(level), **kwargs)


def run_monte_carlo(
    synth: SyntheticField,
    accuracies: Sequence[float | str],
    *,
    replicas: int = 20,
    tile_size: int | None = None,
    max_evals: int = 400,
    restarts: int = 1,
    workers: int = 1,
    retry_policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | dict | None = None,
) -> MonteCarloStudy:
    """Run the Fig. 5/6 pipeline for one field configuration.

    ``accuracies`` mixes floats (``u_req`` levels) and the string
    ``"exact"`` (full-FP64 reference).  The paper uses 100 replicas of
    40,000 locations; defaults here are scaled for commodity hardware and
    can be raised via arguments.

    ``workers > 1`` fans the (replica, accuracy) cells across a process
    pool (:func:`repro.faults.run_batch`, the sweep engine's runner);
    each fit is independent and deterministic, so the study is identical
    to the sequential one regardless of worker count or completion order.

    ``retry_policy`` re-fits a crashed (replica, accuracy) cell with
    backoff; a cell that exhausts its retries lands in
    ``study.failures`` instead of sinking the whole sweep.
    ``fault_plan`` injects scripted failures into cells whose
    ``"<label>:<replica>"`` identifier matches (see :mod:`repro.faults`).
    """
    study = MonteCarloStudy(
        field_name=synth.model.name,
        theta_true=tuple(synth.theta),
        param_names=synth.model.param_names,
    )
    datasets = synth.replicas(replicas)
    # the fit stops at a 1e-7 simplex, looser than fit_mle's own 1e-9
    kwargs = dict(tile_size=tile_size, max_evals=max_evals, xtol=1e-7, restarts=restarts)
    cells = [
        (level, r, dataset)
        for level in accuracies
        for r, dataset in enumerate(datasets)
    ]

    def accuracy_label(level) -> str:
        # MLEResult.accuracy_label's format ("exact" / "1e-02")
        return level if level == "exact" else f"{float(level):.0e}"

    envelopes = run_batch(
        _fit_replica,
        [(dataset, level, kwargs) for level, _r, dataset in cells],
        [(f"{accuracy_label(level)}:{r}",) for level, r, _dataset in cells],
        op="montecarlo.replica",
        workers=workers,
        retry_policy=retry_policy,
        fault_plan=fault_plan,
    )
    for (level, r, _dataset), env in zip(cells, envelopes):
        if env["ok"]:
            result: MLEResult = env["result"]
            study.estimates.append(
                ReplicaEstimate(
                    replica=r,
                    accuracy_label=result.accuracy_label,
                    theta_hat=result.theta_hat,
                    loglik=result.loglik,
                    n_evals=result.n_evals,
                )
            )
        else:
            label = accuracy_label(level)
            study.failures.append(
                ReplicaFailure(
                    replica=r,
                    accuracy_label=label,
                    error=env["error"],
                    attempts=env["attempts"],
                )
            )
            emit_event("montecarlo.replica_failed",
                       {"replica": r, "accuracy": label,
                        "attempts": env["attempts"], "error": env["error"]})
    return study
