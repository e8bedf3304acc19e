"""Bound-constrained derivative-free optimizer (BOBYQA substitute).

The paper maximises the log-likelihood with NLOPT's BOBYQA under box
bounds [0.01, 2], tolerance 1e-9, always starting from the lower bounds
(Section VII-B).  NLOPT is unavailable offline, so this module implements
a self-contained bound-constrained Nelder–Mead simplex method with the
adaptive coefficients of Gao & Han (2012) and box handling by
projection.  For the smooth, low-dimensional (2–3 parameter) likelihood
surfaces of the study this is a reliable stand-in: the Monte Carlo
boxplots depend on the likelihood surface and the arithmetic precision,
not on the specific derivative-free engine (substitution recorded in
DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["OptimizeResult", "nelder_mead_bounded", "maximize_bounded"]


@dataclass
class OptimizeResult:
    """Outcome of one optimisation run."""

    x: np.ndarray
    fun: float
    n_evals: int
    n_iters: int
    converged: bool
    message: str = ""


def _project(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.clip(x, lo, hi)


def nelder_mead_bounded(
    f: Callable[[np.ndarray], float],
    x0: Sequence[float],
    bounds: Sequence[tuple[float, float]],
    *,
    xtol: float = 1e-9,
    ftol: float = 1e-9,
    max_evals: int = 2000,
    initial_step: float = 0.25,
    restarts: int = 0,
    on_iteration: Callable[[int, np.ndarray, float], None] | None = None,
) -> OptimizeResult:
    """Minimise ``f`` over a box with a projected Nelder–Mead simplex.

    ``initial_step`` sizes the starting simplex as a fraction of each
    box edge.  Infinite function values (infeasible probes) are handled
    naturally — they rank worst and the simplex contracts away from them.
    ``restarts`` re-seeds a fresh (smaller) simplex at the incumbent
    after convergence and continues while that improves the objective —
    the standard defence against premature simplex collapse.

    ``on_iteration(k, x, fx)``, when given, is called once per simplex
    iteration with the 1-based iteration index and the current best
    vertex (``x`` is a copy; restarted runs keep their own counters).
    Exceptions raised by the callback propagate to the caller.
    """
    if restarts > 0:
        res = nelder_mead_bounded(
            f, x0, bounds, xtol=xtol, ftol=ftol, max_evals=max_evals,
            initial_step=initial_step, restarts=0,
            on_iteration=on_iteration,
        )
        total = res.n_evals
        step = initial_step / 4.0
        for _ in range(restarts):
            again = nelder_mead_bounded(
                f, tuple(res.x), bounds, xtol=xtol, ftol=ftol, max_evals=max_evals,
                initial_step=step, restarts=0,
                on_iteration=on_iteration,
            )
            total += again.n_evals
            improved = again.fun < res.fun - ftol * (1.0 + abs(res.fun))
            if again.fun <= res.fun:
                res = again
            if not improved:
                break
            step /= 2.0
        res.n_evals = total
        return res
    x0 = np.asarray(x0, dtype=np.float64)
    lo = np.array([b[0] for b in bounds], dtype=np.float64)
    hi = np.array([b[1] for b in bounds], dtype=np.float64)
    if np.any(lo >= hi):
        raise ValueError("each bound must satisfy lo < hi")
    ndim = x0.size
    if ndim != len(bounds):
        raise ValueError(f"x0 has {ndim} entries but {len(bounds)} bounds given")

    # adaptive coefficients (Gao & Han) — better for ndim > 2
    alpha = 1.0
    gamma = 1.0 + 2.0 / ndim
    rho = 0.75 - 1.0 / (2.0 * ndim)
    sigma = 1.0 - 1.0 / ndim

    n_evals = 0

    def feval(x: np.ndarray) -> float:
        nonlocal n_evals
        n_evals += 1
        val = float(f(x))
        if math.isnan(val):
            val = math.inf
        return val

    # initial simplex: x0 plus steps along each axis, folded back into the box
    simplex = [_project(x0, lo, hi)]
    for d in range(ndim):
        step = initial_step * (hi[d] - lo[d])
        cand = simplex[0].copy()
        if cand[d] + step <= hi[d]:
            cand[d] += step
        else:
            cand[d] -= step
        simplex.append(_project(cand, lo, hi))
    values = [feval(x) for x in simplex]

    n_iters = 0
    converged = False
    message = "max_evals reached"
    while n_evals < max_evals:
        n_iters += 1
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best, worst = values[0], values[-1]
        if on_iteration is not None:
            on_iteration(n_iters, simplex[0].copy(), values[0])

        # convergence: simplex collapsed in x and f
        spread_x = max(np.max(np.abs(simplex[i] - simplex[0])) for i in range(1, ndim + 1))
        finite = [v for v in values if math.isfinite(v)]
        spread_f = (max(finite) - min(finite)) if len(finite) > 1 else math.inf
        if spread_x <= xtol and spread_f <= ftol * (1.0 + abs(best)):
            converged = True
            message = "simplex converged"
            break

        centroid = np.mean(simplex[:-1], axis=0)
        reflected = _project(centroid + alpha * (centroid - simplex[-1]), lo, hi)
        f_r = feval(reflected)

        if f_r < values[0]:
            expanded = _project(centroid + gamma * (reflected - centroid), lo, hi)
            f_e = feval(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < worst:
                contract = _project(centroid + rho * (reflected - centroid), lo, hi)
            else:
                contract = _project(centroid - rho * (centroid - simplex[-1]), lo, hi)
            f_c = feval(contract)
            if f_c < min(f_r, worst):
                simplex[-1], values[-1] = contract, f_c
            else:  # shrink toward the best vertex
                for i in range(1, ndim + 1):
                    simplex[i] = _project(
                        simplex[0] + sigma * (simplex[i] - simplex[0]), lo, hi
                    )
                    values[i] = feval(simplex[i])

    order = np.argsort(values, kind="stable")
    best_x = simplex[order[0]]
    best_f = values[order[0]]
    return OptimizeResult(
        x=best_x,
        fun=best_f,
        n_evals=n_evals,
        n_iters=n_iters,
        converged=converged,
        message=message,
    )


def maximize_bounded(
    f: Callable[[np.ndarray], float],
    x0: Sequence[float],
    bounds: Sequence[tuple[float, float]],
    **kwargs,
) -> OptimizeResult:
    """Maximise ``f`` (the log-likelihood) over a box.

    An ``on_iteration`` callback receives the *maximisation* objective
    value (sign flipped back from the internal minimisation).
    """
    on_iteration = kwargs.pop("on_iteration", None)
    if on_iteration is not None:
        inner = on_iteration

        def on_iteration_neg(k: int, x: np.ndarray, fx: float) -> None:
            inner(k, x, -fx)

        kwargs["on_iteration"] = on_iteration_neg
    res = nelder_mead_bounded(lambda x: -f(x), x0, bounds, **kwargs)
    res.fun = -res.fun
    return res
