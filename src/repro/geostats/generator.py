"""Synthetic Gaussian random field generation and tiled covariance assembly.

``SyntheticField`` mirrors the paper's data-generation step: draw n
locations, build Σ(θ_true), factor it exactly (FP64), and synthesise
measurements ``z = L e`` with ``e ~ N(0, I)`` — the 100-replica datasets
of the Monte Carlo study are repeated :meth:`SyntheticField.sample` calls
with distinct seeds.

``build_tiled_covariance`` assembles Σ(θ) in tiled storage from the
packed lower-triangle distances (:class:`~.locations.TileDistances`): one
kernel call over the whole triangle, tiles cut out of the result as
views — the path every likelihood evaluation takes.  The distances do
not depend on θ, so a :class:`Dataset` keeps them per tile size and a
fit computes its geometry once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..tiles.tilematrix import TiledSymmetricMatrix
from .covariance import CovarianceModel, Matern, SquaredExponential
from .locations import TileDistances, generate_locations

__all__ = ["Dataset", "SyntheticField", "build_tiled_covariance"]


def _finite_float(arr, name: str) -> np.ndarray:
    """Floating array with NaN/inf rejected; float32/float64 preserved.

    A NaN coordinate silently poisons every distance involving its row;
    better to fail at construction with a message naming the field.
    """
    out = np.asarray(arr)
    if out.dtype not in (np.float32, np.float64):
        out = out.astype(np.float64)
    if out.size and not np.all(np.isfinite(out)):
        bad = int(np.sum(~np.isfinite(out)))
        raise ValueError(f"{name} contain {bad} non-finite entries (NaN/inf)")
    return out


@dataclass
class Dataset:
    """Observed (or synthetic) spatial data: locations plus measurements.

    ``nugget`` is a known measurement-error variance τ² added to the
    covariance diagonal in both generation and likelihood.  The paper's
    models are nugget-free, but its 2D/3D-sqexp configurations are
    numerically singular in FP64 at reproduction scale (the squared
    exponential kernel's spectrum decays super-exponentially), so the
    sqexp Monte Carlo studies run with a small fixed nugget — see
    DESIGN.md's substitution table.

    :meth:`tile_distances` keeps the θ-independent geometry per tile size:
    dropped when ``locations`` is rebound, not copied by ``replace``, not pickled.
    """

    locations: np.ndarray
    z: np.ndarray
    model: CovarianceModel
    theta_true: tuple[float, ...] | None = None
    nugget: float = 0.0
    _distances: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.locations = _finite_float(self.locations, "locations")
        self.z = _finite_float(self.z, "measurements").ravel()
        if self.locations.ndim != 2:
            raise ValueError("locations must be (n, dim)")
        if self.locations.shape[0] != self.z.shape[0]:
            raise ValueError(
                f"{self.locations.shape[0]} locations but {self.z.shape[0]} measurements"
            )
        if self.locations.shape[1] != self.model.dim:
            raise ValueError(
                f"model {self.model.name} is {self.model.dim}D but locations are "
                f"{self.locations.shape[1]}D"
            )

    def __setattr__(self, name: str, value) -> None:
        if name == "locations":
            object.__setattr__(self, "_distances", {})
        object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_distances": {}}

    @property
    def n(self) -> int:
        return self.z.shape[0]

    def tile_distances(self, nb: int) -> TileDistances:
        """Lower-triangle distances of ``locations`` at tile size ``nb``, built once."""
        if nb not in self._distances:
            self._distances[nb] = TileDistances(self.locations, nb)
        return self._distances[nb]


@dataclass
class SyntheticField:
    """A Gaussian random field with known parameters, ready to sample."""

    model: CovarianceModel
    theta: tuple[float, ...]
    n: int
    seed: int = 0
    nugget: float = 0.0
    _locations: np.ndarray | None = field(default=None, repr=False)
    _chol: np.ndarray | None = field(default=None, repr=False)

    # -- constructors -------------------------------------------------------
    @classmethod
    def sqexp_2d(
        cls,
        n: int,
        variance: float = 1.0,
        range_: float = 0.1,
        seed: int = 0,
        nugget: float = 0.0,
    ):
        return cls(SquaredExponential(dim=2), (variance, range_), n, seed, nugget)

    @classmethod
    def sqexp_3d(
        cls,
        n: int,
        variance: float = 1.0,
        range_: float = 0.1,
        seed: int = 0,
        nugget: float = 0.0,
    ):
        return cls(SquaredExponential(dim=3), (variance, range_), n, seed, nugget)

    @classmethod
    def matern_2d(
        cls,
        n: int,
        variance: float = 1.0,
        range_: float = 0.1,
        smoothness: float = 0.5,
        seed: int = 0,
        nugget: float = 0.0,
    ):
        return cls(Matern(dim=2), (variance, range_, smoothness), n, seed, nugget)

    # -- generation -----------------------------------------------------------
    @property
    def locations(self) -> np.ndarray:
        if self._locations is None:
            self._locations = generate_locations(self.n, self.model.dim, seed=self.seed)
        return self._locations

    def _factor(self) -> np.ndarray:
        if self._chol is None:
            cov = self.model.cov_matrix(self.locations, self.theta)
            # the nugget (if any) plus a tiny lift that guards against
            # numerically semidefinite strong-correlation matrices during
            # *generation* only
            cov[np.diag_indices_from(cov)] += self.nugget + 1e-10 * cov[0, 0]
            self._chol = np.linalg.cholesky(cov)
        return self._chol

    def sample(self, replica: int = 0) -> Dataset:
        """Draw one measurement vector ``z = L e`` (one Monte Carlo replica)."""
        rng = np.random.default_rng((self.seed + 1) * 1_000_003 + replica)
        e = rng.standard_normal(self.n)
        z = self._factor() @ e
        return Dataset(
            locations=self.locations,
            z=z,
            model=self.model,
            theta_true=tuple(self.theta),
            nugget=self.nugget,
        )

    def replicas(self, count: int) -> list[Dataset]:
        """``count`` independent replicas sharing the same locations."""
        return [self.sample(r) for r in range(count)]


def build_tiled_covariance(
    locations: np.ndarray,
    model: CovarianceModel,
    theta: Sequence[float],
    nb: int,
    *,
    nugget: float = 0.0,
    distances: TileDistances | None = None,
) -> TiledSymmetricMatrix:
    """Assemble Σ(θ) into tiled FP64 storage (the factorization casts each
    tile to its storage precision, Section V's generation phase).

    ``distances`` — the ``TileDistances`` of ``locations`` at ``nb`` when
    the caller already holds them (``Dataset.tile_distances``); the same
    tiles, bit for bit, as when they are computed here.
    """
    theta_v = model.validate_theta(theta)
    if distances is None:
        distances = TileDistances(locations, nb)
    elif (distances.n, distances.nb) != (len(locations), nb):
        raise ValueError(f"distances are for (n, nb) = {distances.n, distances.nb}, not {len(locations), nb}")
    values = model.correlation(distances.packed, theta_v)
    tiles = dict(distances.unpack(values, values[-1] + max(nugget, 0.0)))
    return TiledSymmetricMatrix.from_tile_function(distances.n, nb, lambda i, j: tiles[i, j])
