"""Kriging prediction at unobserved locations.

Once θ̂ is estimated, the GP model predicts measurements at new locations
(Section III-A: "the model can be utilized for predicting future
measurements with unknown values").  For observation set s with data z
and prediction set s*:

    μ* = Σ*ᵀ Σ⁻¹ z
    σ²* = diag(Σ**) − diag(Σ*ᵀ Σ⁻¹ Σ*)

The Σ⁻¹ applications reuse the mixed-precision Cholesky factor, so the
predictor inherits whatever precision configuration the fit used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.cholesky import solve_with_factor
from ..core.config import MPConfig
from ..tiles.kernels import NotPositiveDefiniteError
from .generator import Dataset
from .likelihood import _factorize

__all__ = ["KrigingResult", "krige"]


@dataclass
class KrigingResult:
    """Predictions at the requested locations."""

    mean: np.ndarray
    variance: np.ndarray
    theta: tuple[float, ...]

    @property
    def stddev(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.variance, 0.0))


def krige(
    dataset: Dataset,
    new_locations: np.ndarray,
    theta: Sequence[float],
    *,
    config: MPConfig | None = None,
) -> KrigingResult:
    """Predict the field at ``new_locations`` under parameters ``theta``."""
    config = config or MPConfig()
    model = dataset.model
    theta_t = tuple(float(t) for t in theta)
    new_locations = np.asarray(new_locations, dtype=np.float64)
    if new_locations.ndim != 2 or new_locations.shape[1] != model.dim:
        raise ValueError(f"new_locations must be (m, {model.dim})")

    factor, _kmap, reason = _factorize(dataset, theta_t, config)
    if reason is not None:  # a LinAlgError is a ValueError, which also fits a θ Σ cannot be built from
        raise NotPositiveDefiniteError(f"no factorization of Σ(θ) at θ = {theta_t}: {reason}")

    cross = model.cross_cov(dataset.locations, new_locations, theta_t)  # (n, m)
    alpha = solve_with_factor(factor, dataset.z)  # Σ⁻¹ z
    mean = cross.T @ alpha
    solved_cross = solve_with_factor(factor, cross)  # Σ⁻¹ Σ*
    prior_var = model.correlation(np.zeros(1), np.asarray(theta_t))[0]  # C(0), the same at every point
    variance = prior_var - np.einsum("ij,ij->j", cross, solved_cross)
    return KrigingResult(mean=mean, variance=variance, theta=theta_t)
