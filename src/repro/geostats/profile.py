"""Profile likelihood over the variance parameter.

For the zero-mean Gaussian likelihood, σ² enters Σ(θ) = σ²·R(φ) as a
scale factor (R is the correlation matrix of the remaining parameters
φ).  Maximising analytically over σ² gives the closed form

    σ̂²(φ) = zᵀ R(φ)⁻¹ z / n

and the *profile* log-likelihood

    ℓ_p(φ) = −(n/2)·(log 2π + 1 + log σ̂²(φ)) − ½·log|R(φ)|

so the numerical optimisation runs over one fewer dimension — the
standard trick in large-scale geostatistics software (ExaGeoStat uses
it for its Matérn fits).  The Cholesky of R runs through the same
adaptive mixed-precision path as the full likelihood.

Note the nugget caveat: with a fixed *absolute* nugget τ², Σ = σ²R + τ²I
is no longer a pure scale family, so profiling is exact only for
nugget-free models; ``fit_mle_profile`` refuses otherwise.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core.cholesky import logdet_from_factor, solve_with_factor
from ..core.config import MPConfig
from ..precision.formats import ADAPTIVE_FORMATS, Precision
from .generator import Dataset
from .likelihood import _count_infeasible, _factorize
from .mle import MLEResult, default_tile_size
from .optimizer import maximize_bounded

__all__ = ["profile_log_likelihood", "fit_mle_profile"]


@dataclass
class _ProfileEval:
    value: float
    sigma2_hat: float
    #: why ``value`` is ``-inf`` — the reasons of :class:`LikelihoodEval`
    reason: str | None = None


def _infeasible(reason: str) -> _ProfileEval:
    _count_infeasible(reason)
    return _ProfileEval(-math.inf, math.nan, reason)


def profile_log_likelihood(
    dataset: Dataset,
    phi: tuple[float, ...],
    config: MPConfig,
) -> _ProfileEval:
    """ℓ_p(φ) with σ̂²(φ) maximised analytically.

    ``phi`` is θ without its leading variance entry (the package's models
    all put σ² first).
    """
    if dataset.nugget != 0.0:
        raise ValueError("profile likelihood requires a nugget-free model")
    n = dataset.n
    theta = (1.0, *phi)  # unit-variance correlation matrix R(φ)
    factor, _kmap, reason = _factorize(dataset, theta, config)
    if reason is not None:
        return _infeasible(reason)
    logdet_r = logdet_from_factor(factor)
    if not math.isfinite(logdet_r):
        return _infeasible("logdet")
    quad = float(dataset.z @ solve_with_factor(factor, dataset.z))
    if not math.isfinite(quad) or quad <= 0.0:
        return _infeasible("quadratic")
    sigma2 = quad / n
    value = -0.5 * n * (math.log(2.0 * math.pi) + 1.0 + math.log(sigma2)) - 0.5 * logdet_r
    return _ProfileEval(value, sigma2)


def fit_mle_profile(
    dataset: Dataset,
    *,
    accuracy: float = 1e-9,
    exact: bool = False,
    tile_size: int | None = None,
    formats: tuple[Precision, ...] = ADAPTIVE_FORMATS,
    xtol: float = 1e-9,
    max_evals: int = 400,
) -> MLEResult:
    """MLE with the variance profiled out (one fewer search dimension).

    Same contract as :func:`repro.geostats.mle.fit_mle`; typically needs
    ~2–3× fewer likelihood evaluations for the 3-parameter Matérn.  The
    profiled σ̂² is *not* box-constrained (the paper's [0.01, 2] box is
    applied to the searched parameters only).
    """
    model = dataset.model
    nb = tile_size if tile_size is not None else default_tile_size(dataset.n)
    if exact:
        config = MPConfig(accuracy=1e-15, formats=(Precision.FP64,), tile_size=nb)
        label = "exact"
    else:
        config = MPConfig(accuracy=accuracy, formats=formats, tile_size=nb)
        label = f"{accuracy:.0e}"

    bounds = model.bounds()[1:]  # drop the variance box
    if not bounds:
        raise ValueError("the model has no non-variance parameters to profile over")
    x0 = tuple(lo for lo, _hi in bounds)
    infeasible: Counter[str] = Counter()

    def objective(phi: np.ndarray) -> float:
        ev = profile_log_likelihood(dataset, tuple(phi), config)
        if ev.reason is not None:
            infeasible[ev.reason] += 1
        return ev.value

    res = maximize_bounded(objective, x0, bounds, xtol=xtol, ftol=xtol,
                           max_evals=max_evals)
    # recover σ̂² at the optimum
    final = profile_log_likelihood(dataset, tuple(res.x), config)
    if final.reason is not None:
        infeasible[final.reason] += 1
    theta_hat = (final.sigma2_hat, *(float(v) for v in res.x))
    return MLEResult(
        theta_hat=theta_hat,
        loglik=final.value,
        n_evals=res.n_evals + 1,
        converged=res.converged,
        accuracy_label=label,
        model_name=model.name,
        optimizer=res,
        infeasible_evals=infeasible.total(),
        infeasible_by_reason=dict(sorted(infeasible.items())),
    )
