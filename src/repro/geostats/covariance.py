"""Covariance functions of the paper's Gaussian-process models (Section III-A).

Two families, exactly as the paper defines them:

* **Squared exponential** (2D/3D-sqexp): ``C(h; θ) = σ² exp(−h²/β)`` with
  ``θ = (σ², β)``.  Note the paper's parameterisation divides the
  *squared* distance by β (not β²).
* **Matérn** (2D-Matérn):
  ``C(h; θ) = σ² (2^{1−ν}/Γ(ν)) (h/β)^ν K_ν(h/β)`` with
  ``θ = (σ², β, ν)``; ν=0.5 gives the rough exponential kernel, ν=1 a
  smoother field.

Each model knows its parameter names, bounds (the paper constrains all
parameters to [0.01, 2]), and paper-calibrated "weak/strong correlation"
presets (β = 0.03 / 0.3; ν = 0.5 rough, 1.0 smooth).

``Matern.correlation`` pays for a Bessel function only where ν demands
one.  With s = h/β it dispatches on the value of ν it is handed:
ν = ½ (preset "rough") → σ²e^{−s}, 3⁄2 → σ²(1+s)e^{−s},
5⁄2 → σ²(1+s+s²⁄3)e^{−s}, all through ``np.exp``; ν = 1 (preset
"smooth") → σ²·s·K₁(s) through ``scipy.special``'s ``k1``; every other
ν → the general form above as σ²·exp(r(log s) − s), where r, the log of
the kernel scaled by e^s, is O(log s), analytic in log s and read from
one table of ``kve`` per call (:func:`_matern_general`): a fit that
estimates ν pays a few hundred Bessel evaluations per θ, not one per
pair of points.  Dense matrices (``cov_matrix``) and tiled ones
(``generator.build_tiled_covariance``) both make one kernel call, over
the packed lower-triangle distances of :class:`~.locations.TileDistances`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.special

from .locations import TileDistances, cross_distances

__all__ = [
    "CovarianceModel",
    "SquaredExponential",
    "Matern",
    "MODEL_REGISTRY",
    "get_model",
]

#: paper-wide optimisation bounds for every parameter (Section VII-B)
PARAM_LOWER = 0.01
PARAM_UPPER = 2.0

#: tile size ``cov_matrix`` walks the lower triangle at (any gives the same matrix)
_DENSE_NB = 256


@dataclass(frozen=True)
class CovarianceModel:
    """Base covariance model: stationary, isotropic, zero mean."""

    dim: int

    @property
    def name(self) -> str:
        raise NotImplementedError

    @property
    def param_names(self) -> tuple[str, ...]:
        raise NotImplementedError

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def bounds(self) -> list[tuple[float, float]]:
        """Box bounds for MLE (paper: [0.01, 2] for every parameter)."""
        return [(PARAM_LOWER, PARAM_UPPER)] * self.n_params

    def validate_theta(self, theta: Sequence[float]) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_params,):
            raise ValueError(
                f"{self.name} expects θ of length {self.n_params} {self.param_names}, got {theta.shape}"
            )
        if np.any(theta <= 0.0):
            raise ValueError(f"{self.name} parameters must be positive, got {theta}")
        return theta

    # -- evaluation ---------------------------------------------------------
    def correlation(self, h: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Covariance as a function of distances ``h`` (vectorised)."""
        raise NotImplementedError

    def cov_matrix(self, locations: np.ndarray, theta: Sequence[float]) -> np.ndarray:
        """Dense covariance matrix Σ(θ) over one location set."""
        theta = self.validate_theta(theta)
        dist = TileDistances(locations, _DENSE_NB)
        values = self.correlation(dist.packed, theta)
        out = np.empty((dist.n, dist.n))
        for (i, j), tile in dist.unpack(values, values[-1]):
            r, c = i * dist.nb, j * dist.nb
            out[r : r + tile.shape[0], c : c + tile.shape[1]] = tile
            out[c : c + tile.shape[1], r : r + tile.shape[0]] = tile.T
        return out

    def cross_cov(
        self, a: np.ndarray, b: np.ndarray, theta: Sequence[float]
    ) -> np.ndarray:
        """Cross-covariance between two location sets (kriging)."""
        theta = self.validate_theta(theta)
        return self.correlation(cross_distances(a, b), theta)

    def entry_oracle(
        self, locations: np.ndarray, theta: Sequence[float]
    ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Vectorised element oracle ``(rows, cols) → Σ_ij`` for sampled norms."""
        theta = self.validate_theta(theta)
        locs = np.asarray(locations, dtype=np.float64)

        def entry(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            d = locs[np.asarray(rows)] - locs[np.asarray(cols)]
            h = np.sqrt(np.sum(d * d, axis=-1))
            return self.correlation(h, theta)

        return entry


@dataclass(frozen=True)
class SquaredExponential(CovarianceModel):
    """2D/3D squared exponential: ``σ² exp(−h²/β)``, θ = (σ², β)."""

    @property
    def name(self) -> str:
        return f"{self.dim}D-sqexp"

    @property
    def param_names(self) -> tuple[str, ...]:
        return ("variance", "range")

    def correlation(self, h: np.ndarray, theta: np.ndarray) -> np.ndarray:
        sigma2, beta = theta
        h = np.asarray(h, dtype=np.float64)
        return sigma2 * np.exp(-(h * h) / beta)

    @staticmethod
    def weak(dim: int = 2) -> tuple["SquaredExponential", tuple[float, float]]:
        """Paper's weak-correlation preset: θ = (1, 0.03)."""
        return SquaredExponential(dim=dim), (1.0, 0.03)

    @staticmethod
    def strong(dim: int = 2) -> tuple["SquaredExponential", tuple[float, float]]:
        """Paper's strong-correlation preset: θ = (1, 0.3)."""
        return SquaredExponential(dim=dim), (1.0, 0.3)


@dataclass(frozen=True)
class Matern(CovarianceModel):
    """2D Matérn: ``σ² (2^{1−ν}/Γ(ν)) (h/β)^ν K_ν(h/β)``, θ = (σ², β, ν)."""

    @property
    def name(self) -> str:
        return f"{self.dim}D-Matern"

    @property
    def param_names(self) -> tuple[str, ...]:
        return ("variance", "range", "smoothness")

    def correlation(self, h: np.ndarray, theta: np.ndarray) -> np.ndarray:
        sigma2, beta, nu = theta
        h = np.asarray(h, dtype=np.float64)
        if nu not in (0.5, 1.0, 1.5, 2.5):
            return _matern_general(h, sigma2, beta, nu)
        s = h / beta  # a fresh array, reused below
        if nu != 1.0:
            # closed forms: h = 0 gives σ²·1; e^{−s} is exactly 0 from s ≈ 745
            # on, and the clamp keeps the polynomial beside it finite
            np.minimum(s, 750.0, out=s)
            out = np.exp(-s)
            if nu == 1.5:
                out *= 1.0 + s
            elif nu == 2.5:
                out *= 1.0 + s + s * s / 3.0
            return np.multiply(out, sigma2, out=out)
        # K₁ underflows to 0 for huge arguments, where the covariance's
        # limit is 0, and overflows to inf as s → 0⁺ (and at h = 0), where
        # it is σ²: the product is formed (in place, in s) only where K₁ is
        # positive and finite, and inf·0 never is.
        k = scipy.special.k1(s)
        live = (k > 0.0) & np.isfinite(k)
        np.multiply(s, sigma2, out=s, where=live)
        np.multiply(s, k, out=s, where=live)
        dead = ~live
        s[dead] = np.where(np.isinf(k[dead]), sigma2, 0.0)
        return s

    @staticmethod
    def preset(
        correlation: str = "weak", smoothness: str = "rough"
    ) -> tuple["Matern", tuple[float, float, float]]:
        """Paper presets: β ∈ {0.03 weak, 0.3 strong}; ν ∈ {0.5 rough, 1 smooth}."""
        beta = {"weak": 0.03, "strong": 0.3}[correlation]
        nu = {"rough": 0.5, "smooth": 1.0}[smoothness]
        return Matern(dim=2), (1.0, beta, nu)


#: the general-ν table: nodes at t = log s = k·_STEP, read in blocks of _BLOCK entries;
#: e^{−s} is 0 from s ≈ 745 on, so the Bessel function's argument stops at _S_MAX (−s does not)
_STEP, _BLOCK, _S_MAX = 1.0 / 64.0, 16_384, 750.0
#: node values → monomial coefficients in v ∈ [−½, ½) of the degree-7 polynomial
#: through the 8 nodes at v = −3.5 … 3.5: the Lagrange basis expanded in half-steps
#: 2v, where every product is a small integer, so each entry is rounded once
_HALF_STEPS = np.arange(-7.0, 8.0, 2.0)
_NODES_TO_COEFFS = np.array([
    np.poly(np.delete(_HALF_STEPS, k))[::-1] * 2.0 ** np.arange(8)
    / np.prod(_HALF_STEPS[k] - np.delete(_HALF_STEPS, k))
    for k in range(8)
])


def _log_scaled_matern(nu: float, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``r(t) = log(2^{1−ν}/Γ(ν) · s^ν · e^s K_ν(s))`` at ``s = e^t``, 0 < s ≤ 750.

    O(log s) in size and analytic in t; 0 in the limit s → 0⁺, and exactly
    0 where ``kve`` overflows on the way there.
    """
    k = scipy.special.kve(nu, s)
    r = np.log(k) + nu * t - (math.lgamma(nu) + (nu - 1.0) * math.log(2.0))
    r[np.isinf(k)] = 0.0
    return r


def _matern_general(h: np.ndarray, sigma2: float, beta: float, nu: float) -> np.ndarray:
    """``σ²·2^{1−ν}/Γ(ν)·s^ν·K_ν(s)`` as ``σ²·exp(r(log s) − s)``, s = h/β, at any ν.

    ``r`` is :func:`_log_scaled_matern`, evaluated at the entries themselves
    or — when that means fewer Bessel evaluations than the array has positive
    entries — at the nodes of a uniform grid in t = log s spanning them and
    read through the degree-7 polynomial on the 8 nodes around each interval
    (≤ 1e-13 from the entries' own, but for the 3e-13 jump AMOS itself makes
    at s = 2; ``tests/test_geostats_matern_table.py`` holds both routes to
    ``mpmath``).  h = 0 gives σ² exactly, ``np.exp`` underflows to the limit
    0, and the array is walked in blocks with reused buffers.
    """
    out = np.full(h.shape, float(sigma2))
    flat_h, flat_out = h.reshape(-1), out.reshape(-1)  # a strided h is copied here, once
    blocks = [(flat_h[i : i + _BLOCK], flat_out[i : i + _BLOCK]) for i in range(0, h.size, _BLOCK)]
    lo = min((float(np.min(hb, where=hb > 0.0, initial=np.inf)) for hb, _ in blocks), default=np.inf)
    if lo == np.inf:  # nothing but h = 0
        return out
    # a subnormal h/β underflows to 0, where log has no value: the limit there is σ²,
    # which the smallest normal s already gives to the last bit
    s_lo = max(min(lo / beta, _S_MAX), sys.float_info.min)
    s_hi = max(min(float(h.max()) / beta, _S_MAX), s_lo)
    first = math.floor(math.log(s_lo) / _STEP)  # interval k is [k, k + 1)·_STEP
    n_intervals = math.floor(math.log(s_hi) / _STEP) - first + 1
    coeffs = None
    if n_intervals + 7 < np.count_nonzero(h):
        t = (first - 3 + np.arange(n_intervals + 7)) * _STEP
        windows = np.lib.stride_tricks.sliding_window_view(_log_scaled_matern(nu, np.exp(t), t), 8)
        coeffs = _NODES_TO_COEFFS.T @ windows.T  # (8 powers, intervals), each row contiguous
    s, r, v, term = np.empty((4, min(_BLOCK, h.size)))
    index = np.empty(s.size, dtype=np.intp)
    for hb, ob in blocks:
        s, r, v, term, index = (buf[: hb.size] for buf in (s, r, v, term, index))
        np.divide(hb, beta, out=s)
        np.clip(s, s_lo, _S_MAX, out=v)  # an h = 0 rides along at the smallest s; ``ob`` keeps its σ²
        np.log(v, out=r)
        if coeffs is None:
            r[:] = _log_scaled_matern(nu, v, r)
        else:
            r *= 1.0 / _STEP
            r -= first  # the interval's number plus the position inside it
            np.clip(np.floor(r, out=v), 0, n_intervals - 1, out=v)
            np.copyto(index, v, casting="unsafe")
            np.subtract(r, v, out=v)
            v -= 0.5
            np.take(coeffs[7], index, out=r, mode="clip")
            for row in coeffs[6::-1]:  # Horner
                r *= v
                r += np.take(row, index, out=term, mode="clip")
        r -= s
        np.exp(r, out=r)
        np.multiply(r, sigma2, out=ob, where=hb > 0.0)
    return out


MODEL_REGISTRY: dict[str, Callable[[], CovarianceModel]] = {
    "2d-sqexp": lambda: SquaredExponential(dim=2),
    "3d-sqexp": lambda: SquaredExponential(dim=3),
    "2d-matern": lambda: Matern(dim=2),
}


def get_model(name: str) -> CovarianceModel:
    """Look up a covariance model by its paper name (case-insensitive)."""
    key = name.strip().lower().replace("_", "-").replace("matérn", "matern")
    if key not in MODEL_REGISTRY:
        raise ValueError(f"unknown model {name!r}; expected one of {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[key]()
