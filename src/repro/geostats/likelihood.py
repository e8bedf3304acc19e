"""Gaussian log-likelihood through the mixed-precision Cholesky (Eq. 1).

    ℓ(θ) = −(n/2)·log 2π − (1/2)·log|Σ(θ)| − (1/2)·zᵀ Σ(θ)⁻¹ z

Each evaluation assembles Σ(θ) in tiled storage (from the distances the
dataset keeps: geometry is not recomputed per θ), plans the precision maps
for *this* θ (the tile norms change with the parameters, so the Fig. 2a
map is re-derived per evaluation, exactly as the adaptive framework
does), factors with Algorithm 1, and computes the log-determinant and
quadratic form from the factor.  A parameter vector whose covariance is
numerically indefinite yields ``-inf`` — the optimizer treats it as an
infeasible probe — and says why: the evaluation carries a ``reason`` and
ticks ``mle.infeasible{reason=}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.cholesky import logdet_from_factor, mp_cholesky, solve_with_factor
from ..core.config import MPConfig
from ..core.conversion import build_comm_precision_map
from ..core.precision_map import KernelPrecisionMap, build_precision_map
from ..obs import get_registry, span, traced
from ..tiles.kernels import NotPositiveDefiniteError
from ..tiles.norms import tile_norms
from .generator import Dataset, build_tiled_covariance

__all__ = ["LikelihoodEval", "log_likelihood"]


@dataclass
class LikelihoodEval:
    """One likelihood evaluation with its precision bookkeeping."""

    value: float
    logdet: float
    quadratic: float
    theta: tuple[float, ...]
    kernel_map: KernelPrecisionMap | None = None
    #: why ``value`` is ``-inf``, by the site that returned it: ``cov_build``
    #: (Σ(θ) could not be assembled), ``not_positive_definite`` (the
    #: mixed-precision factorization broke down), ``non_finite`` (a panel
    #: tile held an inf/NaN before it), ``logdet`` (not finite) or
    #: ``quadratic`` (zᵀΣ⁻¹z not finite or negative); ``None`` when feasible
    reason: str | None = None

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.value)


def _count_infeasible(reason: str) -> None:
    get_registry().counter(
        "mle.infeasible", "likelihood evaluations that returned -inf"
    ).inc(reason=reason)


def _infeasible(reason: str, theta, logdet=math.nan, quad=math.nan, kmap=None) -> LikelihoodEval:
    """The ``-inf`` evaluation of one failure site, counted by reason."""
    _count_infeasible(reason)
    return LikelihoodEval(-math.inf, logdet, quad, theta, kernel_map=kmap, reason=reason)


def _factorize(dataset: Dataset, theta: tuple[float, ...], config: MPConfig):
    """Assemble Σ(θ) from the dataset's kept distances, plan it, factor it.

    The one build → norms → kernel map → comm map → Algorithm 1 sequence
    behind the likelihood and kriging.  Returns ``(factor, kernel map,
    None)``, or ``(None, the kernel map if one was planned, reason)`` with
    reason ``cov_build``, ``not_positive_definite`` or ``non_finite``.
    """
    nb = min(config.tile_size, dataset.n)
    try:
        with span("geostats.cov_build"):
            cov = build_tiled_covariance(
                dataset.locations, dataset.model, theta, nb,
                nugget=dataset.nugget, distances=dataset.tile_distances(nb),
            )
    except (ValueError, FloatingPointError):
        return None, None, "cov_build"
    with span("tiles.tile_norms"):
        norms = tile_norms(cov)
    with span("core.plan"):
        kmap = build_precision_map(norms, config.accuracy, config.formats)
        cmap = build_comm_precision_map(kmap)
    try:
        with span("core.mp_cholesky"):
            result = mp_cholesky(cov, kmap, strategy=config.strategy, comm_map=cmap,
                                 overwrite=True)
    except NotPositiveDefiniteError:
        return None, kmap, "not_positive_definite"
    except ValueError as exc:
        # TRSM's finiteness check meets an inf/NaN panel tile before any POTRF does
        if "infs or NaNs" not in str(exc):
            raise
        return None, kmap, "non_finite"
    return result.factor, kmap, None


@traced("geostats.log_likelihood")
def log_likelihood(
    dataset: Dataset,
    theta: Sequence[float],
    config: MPConfig,
    *,
    keep_map: bool = False,
) -> LikelihoodEval:
    """Evaluate ℓ(θ) for ``dataset`` under the mixed-precision config.

    Each layer of the evaluation is a span (``geostats.cov_build``,
    ``tiles.tile_norms``, ``core.plan``, ``core.mp_cholesky``,
    ``core.solve``) under the evaluation's ``geostats.log_likelihood``.
    """
    theta_t = tuple(float(t) for t in theta)
    n = dataset.n
    factor, kmap, reason = _factorize(dataset, theta_t, config)
    kept = kmap if keep_map else None
    if reason is not None:
        return _infeasible(reason, theta_t, kmap=kept)

    with span("core.solve"):
        logdet = logdet_from_factor(factor)
        if not math.isfinite(logdet):
            return _infeasible("logdet", theta_t, logdet, kmap=kept)
        x = solve_with_factor(factor, dataset.z)
    quad = float(dataset.z @ x)
    if not math.isfinite(quad) or quad < 0.0:
        # reduced-precision factors can, in principle, destroy positivity
        # of the quadratic form for near-singular θ; treat as infeasible
        return _infeasible("quadratic", theta_t, logdet, quad, kmap=kept)
    value = -0.5 * n * math.log(2.0 * math.pi) - 0.5 * logdet - 0.5 * quad
    return LikelihoodEval(
        value=value,
        logdet=logdet,
        quadratic=quad,
        theta=theta_t,
        kernel_map=kept,
    )
