"""Maximum likelihood estimation driver (the paper's application layer).

``fit_mle`` is the top-level entry point: it wires the covariance model,
the mixed-precision likelihood, and the bound-constrained optimizer into
the MLE loop of Section III-A.  Paper-faithful defaults: every parameter
bounded to [0.01, 2], the search started from the lower bounds, and an
optimisation tolerance of 1e-9.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..core.config import ConversionStrategy, MPConfig
from ..obs import emit_event, span
from ..precision.formats import ADAPTIVE_FORMATS, Precision
from .generator import Dataset
from .likelihood import log_likelihood
from .optimizer import OptimizeResult, maximize_bounded

__all__ = ["MLEResult", "fit_mle", "default_tile_size"]


def default_tile_size(n: int) -> int:
    """Heuristic tile size for laptop-scale problems.

    The paper fixes nb = 2048 on its GPUs; at our Monte Carlo scale
    (hundreds to thousands of locations) we target ~8 tile rows so the
    precision map has structure to exploit, clamped to [16, 2048].
    """
    return int(min(2048, max(16, -(-n // 8))))


@dataclass
class MLEResult:
    """Outcome of one MLE fit."""

    theta_hat: tuple[float, ...]
    loglik: float
    n_evals: int
    converged: bool
    accuracy_label: str
    model_name: str
    optimizer: OptimizeResult
    #: evaluations :func:`fit_mle` saw return ``-inf``, in total and by
    #: :attr:`LikelihoodEval.reason` — a fit that steered around breakdowns
    #: of its own precision map says so
    infeasible_evals: int = 0
    infeasible_by_reason: dict[str, int] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.theta_hat)


def fit_mle(
    dataset: Dataset,
    *,
    accuracy: float = 1e-9,
    exact: bool = False,
    tile_size: int | None = None,
    formats: tuple[Precision, ...] = ADAPTIVE_FORMATS,
    strategy: ConversionStrategy = ConversionStrategy.AUTO,
    x0: tuple[float, ...] | None = None,
    xtol: float = 1e-9,
    max_evals: int = 600,
    restarts: int = 2,
) -> MLEResult:
    """Fit θ̂ by maximising the mixed-precision log-likelihood.

    ``exact=True`` runs the full-FP64 reference ("exact computation" in
    Figs. 5/6); otherwise ``accuracy`` is the ``u_req`` of the adaptive
    framework.  ``x0`` defaults to the paper's lower-bound start.

    After the first Nelder–Mead run the simplex is re-seeded at the
    incumbent with a smaller radius up to ``restarts`` times while the
    objective keeps improving — the standard remedy for premature simplex
    collapse, giving robustness comparable to BOBYQA's trust-region
    restarts on these 2–3 parameter surfaces.
    """
    model = dataset.model
    nb = tile_size if tile_size is not None else default_tile_size(dataset.n)
    if exact:
        config = MPConfig(accuracy=1e-15, formats=(Precision.FP64,), tile_size=nb,
                          strategy=strategy)
        label = "exact"
    else:
        config = MPConfig(accuracy=accuracy, formats=formats, tile_size=nb, strategy=strategy)
        label = f"{accuracy:.0e}"

    bounds = model.bounds()
    if x0 is None:
        x0 = tuple(lo for lo, _hi in bounds)

    eval_seconds = [0.0]
    eval_count = [0]
    infeasible: Counter[str] = Counter()

    def objective(theta: np.ndarray) -> float:
        t0 = time.perf_counter()
        ev = log_likelihood(dataset, theta, config)
        eval_seconds[0] += time.perf_counter() - t0
        eval_count[0] += 1
        if ev.reason is not None:
            infeasible[ev.reason] += 1
        return ev.value

    # per-iteration telemetry: one structured record per simplex iteration
    # (theta, log-likelihood, cumulative evaluation cost) — the restart
    # sweeps share one monotonically increasing index
    iteration_index = [0]

    def on_iteration(_k: int, theta: np.ndarray, loglik: float) -> None:
        iteration_index[0] += 1
        emit_event(
            "mle.iteration",
            {
                "k": iteration_index[0],
                "theta": [float(v) for v in theta],
                "loglik": float(loglik),
                "n_evals": eval_count[0],
                "eval_seconds": eval_seconds[0],
            },
        )

    with span("mle.fit", model=model.name, n=dataset.n, accuracy=label) as fit_span:
        res = maximize_bounded(objective, x0, bounds, xtol=xtol, ftol=xtol,
                               max_evals=max_evals, on_iteration=on_iteration)
        total_evals = res.n_evals
        step = 0.05
        for _ in range(max(0, restarts)):
            again = maximize_bounded(
                objective,
                tuple(res.x),
                bounds,
                xtol=xtol,
                ftol=xtol,
                max_evals=max_evals,
                initial_step=step,
                on_iteration=on_iteration,
            )
            total_evals += again.n_evals
            improved = again.fun > res.fun + abs(res.fun) * 1e-12 + 1e-12
            if again.fun >= res.fun:
                res = again
            if not improved:
                break
            step *= 0.5
        res.n_evals = total_evals
        fit_span.set(
            theta_hat=[float(v) for v in res.x],
            loglik=float(res.fun),
            n_evals=total_evals,
            converged=res.converged,
        )
    return MLEResult(
        theta_hat=tuple(float(v) for v in res.x),
        loglik=res.fun,
        n_evals=total_evals,
        converged=res.converged,
        accuracy_label=label,
        model_name=model.name,
        optimizer=res,
        infeasible_evals=infeasible.total(),
        infeasible_by_reason=dict(sorted(infeasible.items())),
    )
