"""Reference covariance build: the test tree's oracle.

The tile fill and the Matérn kernel as they stood before the kernel
dispatch and the packed lower-triangle build: distances per tile through
an (rows, cols, dim) temporary, ``scipy.special.kv`` at every ν, one
kernel call per tile.  ``tests/test_geostats_covariance_build.py`` holds
:func:`repro.geostats.generator.build_tiled_covariance` and
:meth:`repro.geostats.covariance.Matern.correlation` to it — bit for bit
where the arithmetic is unchanged, to 1e-14 relative at the ν that now
take a closed form.  :class:`MaternK1` keeps the ``scipy.special.k1``
route ν = 1 took before it joined the general-ν table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

from repro.geostats.covariance import CovarianceModel, Matern
from repro.tiles.tilematrix import TiledSymmetricMatrix, tile_index_range


def matern_correlation_kv(h: np.ndarray, theta) -> np.ndarray:
    """σ² (2^{1−ν}/Γ(ν)) s^ν K_ν(s) through ``kv``, whatever ν is."""
    sigma2, beta, nu = theta
    h = np.asarray(h, dtype=np.float64)
    scaled = h / beta
    out = np.empty_like(scaled)
    zero = scaled <= 0.0
    out[zero] = sigma2
    vals = scaled[~zero]
    coeff = sigma2 * (2.0 ** (1.0 - nu)) / scipy.special.gamma(nu)
    k = scipy.special.kv(nu, vals)
    live = (k > 0.0) & np.isfinite(k)
    np.power(vals, nu, out=vals, where=live)
    np.multiply(vals, coeff, out=vals, where=live)
    np.multiply(vals, k, out=vals, where=live)
    dead = ~live
    vals[dead] = np.where(np.isinf(k[dead]), sigma2, 0.0)
    out[~zero] = vals
    return out


def matern_correlation_k1(h: np.ndarray, theta) -> np.ndarray:
    """σ²·s·K₁(s) through ``k1``, the Matérn kernel at ν = 1."""
    sigma2, beta, _nu = theta
    s = np.asarray(h, dtype=np.float64) / beta
    k = scipy.special.k1(s)
    # K₁ underflows to 0 for huge arguments, where the covariance's limit
    # is 0, and overflows to inf as s → 0⁺ (and at h = 0), where it is σ²:
    # the product is formed only where K₁ is positive and finite
    live = (k > 0.0) & np.isfinite(k)
    np.multiply(s, sigma2, out=s, where=live)
    np.multiply(s, k, out=s, where=live)
    dead = ~live
    s[dead] = np.where(np.isinf(k[dead]), sigma2, 0.0)
    return s


@dataclass(frozen=True)
class MaternK1(Matern):
    """:class:`Matern` with ν = 1 through :func:`matern_correlation_k1`."""

    def correlation(self, h: np.ndarray, theta: np.ndarray) -> np.ndarray:
        if theta[2] == 1.0:
            return matern_correlation_k1(h, theta)
        return super().correlation(h, theta)


def correlation_oracle(model: CovarianceModel, h: np.ndarray, theta) -> np.ndarray:
    if isinstance(model, Matern):
        return matern_correlation_kv(h, theta)
    return model.correlation(h, theta)  # the squared exponential did not change


def build_tiled_covariance_oracle(
    locations, model, theta, nb, *, nugget=0.0
) -> TiledSymmetricMatrix:
    """Σ(θ) one tile, one distance block and one kernel call at a time."""
    locs = np.asarray(locations, dtype=np.float64)
    n = locs.shape[0]
    theta_v = model.validate_theta(theta)

    def fill(i: int, j: int) -> np.ndarray:
        ri = tile_index_range(n, nb, i)
        rj = tile_index_range(n, nb, j)
        a = locs[ri[0] : ri[1], None, :]
        b = locs[None, rj[0] : rj[1], :]
        h = np.sqrt(np.sum((a - b) ** 2, axis=-1))
        tile = correlation_oracle(model, h, theta_v)
        if nugget > 0.0 and i == j:
            tile = tile + nugget * np.eye(tile.shape[0])
        return tile

    return TiledSymmetricMatrix.from_tile_function(n, nb, fill)


def cov_matrix_oracle(model: CovarianceModel, locations, theta) -> np.ndarray:
    """Dense Σ(θ) over the full square of (n, n, dim) differences."""
    locs = np.asarray(locations, dtype=np.float64)
    diff = locs[:, None, :] - locs[None, :, :]
    h = np.sqrt(np.sum(diff * diff, axis=-1))
    return correlation_oracle(model, h, model.validate_theta(theta))
