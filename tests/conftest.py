"""Shared fixtures for the test suite.

Also registers the hypothesis example-count profiles: tests that omit
``max_examples`` (the scheduler property battery) scale with
``REPRO_HYPOTHESIS_PROFILE`` — ``quick`` for PR CI, ``full`` for main,
``default`` (hypothesis' 100) otherwise.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import settings

from repro.geostats.covariance import Matern
from repro.geostats.generator import SyntheticField, build_tiled_covariance
from repro.geostats.locations import generate_locations
from repro.runtime.platform import Platform
from repro.tiles.tilematrix import TiledSymmetricMatrix

settings.register_profile("quick", max_examples=15, deadline=None)
settings.register_profile("default", deadline=None)
settings.register_profile("full", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_spd(n: int, rng: np.random.Generator, *, cond_boost: float = 1.0) -> np.ndarray:
    """A well-conditioned random SPD matrix."""
    a = rng.standard_normal((n, n))
    return a @ a.T + cond_boost * n * np.eye(n)


def lower_dense(mat: TiledSymmetricMatrix) -> np.ndarray:
    """The lower triangle of a tiled matrix (a Cholesky factor) as one float64 array."""
    return np.tril(mat.to_dense())


@pytest.fixture
def spd_96(rng) -> np.ndarray:
    return random_spd(96, rng)


@pytest.fixture
def tiled_96(spd_96) -> TiledSymmetricMatrix:
    return TiledSymmetricMatrix.from_dense(spd_96, 16)


@pytest.fixture
def matern_cov_160() -> TiledSymmetricMatrix:
    """A 160×160 Matérn covariance with genuine off-diagonal decay."""
    locs = generate_locations(160, 2, seed=5)
    return build_tiled_covariance(locs, Matern(dim=2), (1.0, 0.05, 0.5), 20)


@pytest.fixture(scope="session")
def weak_sqexp_cov() -> TiledSymmetricMatrix:
    """The short-range 2D-sqexp covariance of ``test_convert_once.py`` (ragged
    NT=7): at ``u_req`` = 1e-4 all four adaptive formats.  Shared: do not write into it."""
    ds = SyntheticField.sqexp_2d(200, 1.0, 0.03, seed=1, nugget=0.01).sample()
    return build_tiled_covariance(ds.locations, ds.model, ds.theta_true, 32, nugget=ds.nugget)


@pytest.fixture
def small_field() -> SyntheticField:
    return SyntheticField.matern_2d(n=144, variance=1.0, range_=0.1, smoothness=0.5, seed=3)


@pytest.fixture(scope="session")
def unbounded():
    """``unbounded(platform)``: the same platform with GPU and host memories
    of ``math.inf`` bytes, tiers that never evict — the simulator's
    unbounded-memory model."""

    def lift(platform: Platform) -> Platform:
        node = platform.node
        gpu = dataclasses.replace(node.gpu, memory_bytes=math.inf)
        node = dataclasses.replace(node, gpu=gpu, host_memory_bytes=math.inf)
        return dataclasses.replace(platform, node=node)

    return lift
