"""Empirical variogram estimation and model fitting.

Standard geostatistical tooling that complements the MLE driver: the
empirical semivariogram ``γ(h) = ½·E[(Z(s) − Z(s+h))²]`` binned over
distance classes (Matheron's classical estimator), the theoretical
variograms of the package's covariance models (``γ(h) = C(0) − C(h)``),
and a weighted least-squares variogram fit — the cheap, moment-based
alternative practitioners use to seed or sanity-check likelihood fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceModel
from .generator import Dataset
from .locations import pairwise_distances
from .optimizer import nelder_mead_bounded

__all__ = ["EmpiricalVariogram", "empirical_variogram", "theoretical_variogram", "fit_variogram"]


@dataclass
class EmpiricalVariogram:
    """Binned semivariance estimates."""

    bin_centers: np.ndarray
    semivariance: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.bin_centers = np.asarray(self.bin_centers, dtype=np.float64)
        self.semivariance = np.asarray(self.semivariance, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)

    @property
    def n_bins(self) -> int:
        return self.bin_centers.shape[0]


def empirical_variogram(
    dataset: Dataset,
    *,
    n_bins: int = 15,
    max_distance: float | None = None,
) -> EmpiricalVariogram:
    """Matheron's classical semivariogram estimator over distance bins.

    ``max_distance`` defaults to half the maximum pairwise distance (the
    usual rule — long-lag bins carry few, highly correlated pairs).
    Empty bins are dropped.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    d = pairwise_distances(dataset.locations)
    z = dataset.z
    iu = np.triu_indices(dataset.n, k=1)
    dist = d[iu]
    sq_diff = 0.5 * (z[iu[0]] - z[iu[1]]) ** 2
    if max_distance is None:
        max_distance = 0.5 * float(dist.max())
    mask = dist <= max_distance
    dist, sq_diff = dist[mask], sq_diff[mask]
    edges = np.linspace(0.0, max_distance, n_bins + 1)
    idx = np.clip(np.digitize(dist, edges) - 1, 0, n_bins - 1)
    centers, gammas, counts = [], [], []
    for b in range(n_bins):
        sel = idx == b
        c = int(np.sum(sel))
        if c == 0:
            continue
        centers.append(0.5 * (edges[b] + edges[b + 1]))
        gammas.append(float(np.mean(sq_diff[sel])))
        counts.append(c)
    return EmpiricalVariogram(
        bin_centers=np.array(centers),
        semivariance=np.array(gammas),
        counts=np.array(counts),
    )


def theoretical_variogram(
    model: CovarianceModel, theta, h: np.ndarray, *, nugget: float = 0.0
) -> np.ndarray:
    """``γ(h) = τ² + C(0) − C(h)`` for one of the package's models."""
    theta_v = model.validate_theta(theta)
    h = np.asarray(h, dtype=np.float64)
    c0 = model.correlation(np.zeros(1), theta_v)[0]
    gamma = c0 - model.correlation(h, theta_v)
    gamma = gamma + nugget * (h > 0)
    return gamma


def fit_variogram(dataset: Dataset) -> tuple[np.ndarray, EmpiricalVariogram]:
    """Weighted least-squares variogram fit (Cressie's weights N(h)/γ̂²)
    over 15 distance bins, at most 1500 evaluations per simplex run.

    Returns ``(theta_hat, empirical)``.  Far cheaper than MLE — a useful
    initial guess for :func:`repro.geostats.mle.fit_mle` and a classical
    baseline for the estimation study.
    """
    emp = empirical_variogram(dataset, n_bins=15)
    model = dataset.model
    nugget = dataset.nugget

    def loss(theta: np.ndarray) -> float:
        try:
            gamma = theoretical_variogram(model, theta, emp.bin_centers, nugget=nugget)
        except ValueError:
            return float("inf")
        w = emp.counts / np.maximum(gamma, 1e-12) ** 2
        return float(np.sum(w * (emp.semivariance - gamma) ** 2))

    bounds = model.bounds()
    x0 = tuple(0.5 * (lo + hi) for lo, hi in bounds)
    res = nelder_mead_bounded(loss, x0, bounds, xtol=1e-8, max_evals=1500, restarts=2)
    return res.x, emp
