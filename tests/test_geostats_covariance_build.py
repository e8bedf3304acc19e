"""The kernel dispatch, the packed lower-triangle build and the distance memo.

Held against ``tests/covariance_oracle.py`` (the per-tile, ``kv``-everywhere
build they replaced): bit for bit wherever the arithmetic did not change,
to 1e-14 relative at the ν that now take a closed form, and to ``BUDGET``
at every other ν, where the kernel is ``σ²·exp(r(log s) − s)`` with ``r``
read from a table (``tests/test_geostats_matern_table.py`` holds that
route to ``mpmath``).
"""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cholesky import logdet_from_factor, mp_cholesky, solve_with_factor
from repro.core.config import MPConfig
from repro.core.conversion import build_comm_precision_map
from repro.core.precision_map import build_precision_map
from repro.geostats import generator
from repro.geostats.covariance import Matern, SquaredExponential
from repro.geostats.dataplane.ingest import reorder_dataset
from repro.geostats.generator import Dataset, SyntheticField, build_tiled_covariance
from repro.geostats.likelihood import log_likelihood
from repro.geostats.locations import (
    TileDistances,
    cross_distances,
    generate_locations,
    pairwise_distances,
)
from repro.geostats.prediction import krige
from repro.precision import Precision
from repro.tiles.norms import tile_norms
from tests.covariance_oracle import (
    build_tiled_covariance_oracle,
    cov_matrix_oracle,
    matern_correlation_kv,
)

#: models × θ held to the oracle tile by tile: identical where the arithmetic
#: is the oracle's (squared exponential), within ``BUDGET`` at a general ν
UNCHANGED = [
    (SquaredExponential(dim=2), (1.1, 0.05)),
    (SquaredExponential(dim=3), (0.9, 0.2)),
    (Matern(dim=2), (1.3, 0.07, 0.9)),
    (Matern(dim=2), (0.6, 0.4, 0.01)),
    (Matern(dim=2), (1.0, 0.1, 2.0)),
]
PRESET_NU = (0.5, 1.0, 1.5, 2.5)
#: relative error per entry the general-ν kernel may sit from the oracle's
#: ``kv``: AMOS reaches 1e-13 next to a half-integer ν, the table may add
#: 1e-13, and the two do not round alike
BUDGET = 5e-13


def _rtol(model, theta):
    """0 where the kernel's arithmetic is the oracle's, ``BUDGET`` at a general ν."""
    return BUDGET if isinstance(model, Matern) and theta[2] not in PRESET_NU else 0.0


def _same_tiles(a, b, rtol=0.0):
    assert a.tiles.keys() == b.tiles.keys()
    assert a.storage_precision == b.storage_precision
    for key, tile in b.tiles.items():
        assert a.tiles[key].dtype == tile.dtype
        if rtol == 0.0:
            assert np.array_equal(a.tiles[key], tile), key
            continue
        # a tile stored in float32/float16 can round a 14th-digit difference
        # to one step of its own grid (of its subnormal grid near 0)
        grid = np.finfo(tile.dtype)
        atol = 0.0 if tile.dtype == np.float64 else float(grid.smallest_subnormal)
        np.testing.assert_allclose(
            a.tiles[key].astype(np.float64), tile.astype(np.float64),
            rtol=max(rtol, float(grid.eps)), atol=atol, err_msg=str(key))


class TestDistances:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_per_coordinate_sum_is_the_broadcast_sum(self, dim):
        a = generate_locations(70, dim, seed=1)
        b = generate_locations(45, dim, seed=2)
        diff = a[:, None, :] - b[None, :, :]
        assert np.array_equal(cross_distances(a, b), np.sqrt(np.sum(diff * diff, axis=-1)))
        h = pairwise_distances(a)
        assert np.array_equal(h, h.T) and not h.diagonal().any()

    def test_packed_layout(self):
        locs = generate_locations(23, 2, seed=0)
        dist = TileDistances(locs, 10)  # tiles of 10, 10 and a ragged 3
        h = pairwise_distances(locs)
        assert dist.packed.size == 23 * 22 // 2 + 1 and dist.packed[-1] == 0.0
        assert not dist.packed.flags.writeable
        tiles = dict(dist.unpack(dist.packed, -1.0))
        assert list(tiles) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        for (i, j), tile in tiles.items():
            want = h[10 * i : 10 * i + 10, 10 * j : 10 * j + 10].copy()
            if i == j:
                np.fill_diagonal(want, -1.0)
            else:
                assert np.shares_memory(tile, dist.packed)
            assert np.array_equal(tile, want)

    def test_rejects_a_non_positive_tile_size(self):
        with pytest.raises(ValueError, match="nb"):
            TileDistances(generate_locations(5, 2, seed=0), 0)


class TestBitIdentity:
    @pytest.mark.parametrize("model, theta", UNCHANGED, ids=lambda v: getattr(v, "name", str(v)))
    @pytest.mark.parametrize("nb", [32, 50, 150, 400])  # 150 % 32, 150 % 50 ≠ 0; one tile twice
    @pytest.mark.parametrize("nugget", [0.0, 0.01])
    def test_tiles_equal_the_per_tile_fill(self, model, theta, nb, nugget):
        locs = generate_locations(150, model.dim, seed=4)
        _same_tiles(
            build_tiled_covariance(locs, model, theta, nb, nugget=nugget),
            build_tiled_covariance_oracle(locs, model, theta, nb, nugget=nugget),
            rtol=_rtol(model, theta),
        )

    @pytest.mark.parametrize("model, theta", UNCHANGED[::2], ids=lambda v: getattr(v, "name", str(v)))
    def test_storage_precision_map_and_float32_locations(self, model, theta):
        locs = generate_locations(150, model.dim, seed=5).astype(np.float32)

        def kernel_precision(i, j):
            return (Precision.FP64, Precision.FP32, Precision.FP16)[min(i - j, 2)]

        new = build_tiled_covariance(locs, model, theta, 32, kernel_precision=kernel_precision)
        _same_tiles(new, build_tiled_covariance_oracle(
            locs, model, theta, 32, kernel_precision=kernel_precision), rtol=_rtol(model, theta))
        assert (new.tiles[(0, 0)].dtype, new.tiles[(4, 0)].dtype) == (np.float64, np.float32)

    @pytest.mark.parametrize("model, theta", UNCHANGED, ids=lambda v: getattr(v, "name", str(v)))
    def test_dense_matrix_is_the_tiled_one_and_the_oracle(self, model, theta):
        locs = generate_locations(300, model.dim, seed=6)  # two 256-tiles inside cov_matrix
        cov = model.cov_matrix(locs, theta)
        np.testing.assert_allclose(
            cov, cov_matrix_oracle(model, locs, theta), rtol=_rtol(model, theta), atol=0.0)
        assert np.array_equal(cov, build_tiled_covariance(locs, model, theta, 64).to_dense())

    @pytest.mark.parametrize("nu", PRESET_NU)
    def test_dense_matrix_is_the_tiled_one_at_a_preset(self, nu):
        locs = generate_locations(120, 2, seed=7)
        model, theta = Matern(dim=2), (1.2, 0.1, nu)
        cov = model.cov_matrix(locs, theta)
        assert np.array_equal(cov, build_tiled_covariance(locs, model, theta, 25).to_dense())
        assert np.allclose(cov, cov_matrix_oracle(model, locs, theta), rtol=1e-14, atol=0.0)

    def test_handed_in_distances_change_nothing(self):
        locs = generate_locations(150, 2, seed=8)
        model, theta = Matern(dim=2), (1.0, 0.1, 1.0)
        dist = TileDistances(locs, 32)
        _same_tiles(
            build_tiled_covariance(locs, model, theta, 32, nugget=0.1, distances=dist),
            build_tiled_covariance(locs, model, theta, 32, nugget=0.1),
        )
        with pytest.raises(ValueError, match=r"\(150, 32\), not \(150, 50\)"):
            build_tiled_covariance(locs, model, theta, 50, distances=dist)


class TestClosedForms:
    # AMOS' ``kv`` is good to 1e-15 up to s ≈ 664, then switches to its
    # near-underflow scaling (6e-14 off) and flushes to 0 from s ≈ 698; the
    # oracle bounds the comparison at 650 and mpmath referees the rest
    @given(
        st.sampled_from(PRESET_NU), st.floats(0.01, 2.0), st.floats(0.01, 2.0),
        st.lists(st.floats(1e-8, 650.0), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_within_1e14_of_kv(self, nu, sigma2, beta, s):
        theta = np.array([sigma2, beta, nu])
        h = np.array(s) * beta
        got = Matern(dim=2).correlation(h, theta)
        want = matern_correlation_kv(h, theta)
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    @pytest.mark.parametrize("nu", PRESET_NU)
    def test_within_1e15_of_the_exact_value_up_to_700(self, nu):
        mpmath = pytest.importorskip("mpmath")
        s = np.concatenate([np.geomspace(1e-8, 650.0, 40), np.linspace(650.0, 700.0, 21)])
        got = Matern(dim=2).correlation(s, np.array([1.0, 1.0, nu]))
        with mpmath.workdps(40):
            for x, value in zip(s, got):
                x = mpmath.mpf(float(x))
                exact = 2 ** (1 - mpmath.mpf(nu)) / mpmath.gamma(nu) * x**nu * mpmath.besselk(nu, x)
                assert abs(mpmath.mpf(float(value)) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("nu", PRESET_NU)
    def test_limits_are_silent(self, nu):
        theta = np.array([1.5, 1.0, nu])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = Matern(dim=2).correlation(np.array([0.0, 1e6, 1e-150, 1e300, 0.5]), theta)
        assert list(out[:4]) == [1.5, 0.0, 1.5, 0.0]
        assert out[4] == Matern(dim=2).correlation(np.array([0.5]), theta)[0]
        assert 0.0 < out[4] < 1.5

    def test_integer_and_float_nu_take_the_same_branch(self):
        h = np.linspace(0.0, 2.0, 9)
        model = Matern(dim=2)
        assert np.array_equal(
            model.correlation(h, np.array([1.0, 0.3, 1.0])), model.correlation(h, (1.0, 0.3, 1))
        )


@pytest.fixture
def dataset():
    return SyntheticField.matern_2d(n=144, range_=0.1, smoothness=0.8, seed=9).sample()


@pytest.fixture
def constructions(monkeypatch):
    """Count ``TileDistances`` constructions made on behalf of the build."""
    made = []

    class Counting(TileDistances):
        def __init__(self, locations, nb):
            made.append(nb)
            super().__init__(locations, nb)

    monkeypatch.setattr(generator, "TileDistances", Counting)
    return made


def _fp64(nb=18):
    return MPConfig.fp64_only(nb)


class TestMemo:
    def test_second_evaluation_reuses_the_distances(self, dataset, constructions):
        first = log_likelihood(dataset, (1.0, 0.1, 0.8), _fp64())
        again = log_likelihood(dataset, (0.7, 0.2, 0.6), _fp64())
        assert constructions == [18]
        assert first.feasible and again.feasible
        krige(dataset, dataset.locations[:3], (1.0, 0.1, 0.8), config=_fp64())
        assert constructions == [18]

    def test_two_tile_sizes_coexist(self, dataset, constructions):
        theta = (1.0, 0.1, 0.8)
        a18 = log_likelihood(dataset, theta, _fp64(18)).value
        a36 = log_likelihood(dataset, theta, _fp64(36)).value
        assert log_likelihood(dataset, theta, _fp64(18)).value == a18
        assert log_likelihood(dataset, theta, _fp64(36)).value == a36
        assert constructions == [18, 36]

    def test_memo_value_is_a_fresh_datasets_value(self, dataset):
        theta, cfg = (1.0, 0.1, 0.8), _fp64()
        log_likelihood(dataset, theta, cfg)  # warm the memo that must not leak

        def fresh(ds):
            return log_likelihood(
                Dataset(ds.locations, ds.z, ds.model, ds.theta_true, ds.nugget), theta, cfg
            ).value

        hilbert = reorder_dataset(dataset, "hilbert")
        assert not hilbert._distances
        assert log_likelihood(hilbert, theta, cfg).value == fresh(hilbert)

        shifted = dataclasses.replace(dataset, locations=dataset.locations[::-1].copy())
        assert not shifted._distances
        assert log_likelihood(shifted, theta, cfg).value == fresh(shifted)

        dataset.locations = dataset.locations[::-1].copy()  # rebinding drops the memo
        assert not dataset._distances
        assert log_likelihood(dataset, theta, cfg).value == fresh(dataset)

    def test_memo_is_not_compared_printed_or_pickled(self, dataset):
        log_likelihood(dataset, (1.0, 0.1, 0.8), _fp64())
        assert dataset._distances and "_distances" not in repr(dataset)
        back = pickle.loads(pickle.dumps(dataset))
        assert back._distances == {} and dataset._distances
        assert np.array_equal(back.locations, dataset.locations)
        value = log_likelihood(back, (1.0, 0.1, 0.8), _fp64()).value
        assert value == log_likelihood(dataset, (1.0, 0.1, 0.8), _fp64()).value
        assert len(pickle.dumps(dataset)) < dataset.tile_distances(18).packed.nbytes


def _factor_through_oracle(ds, theta, cfg):
    """The build → norms → maps → Algorithm 1 sequence over the oracle's tiles."""
    cov = build_tiled_covariance_oracle(
        ds.locations, ds.model, theta, min(cfg.tile_size, ds.n), nugget=ds.nugget)
    kmap = build_precision_map(tile_norms(cov), cfg.accuracy, cfg.formats)
    return mp_cholesky(cov, kmap, strategy=cfg.strategy,
                       comm_map=build_comm_precision_map(kmap), overwrite=True).factor


class TestOnePipeline:
    """Likelihood and kriging share one factorization.

    The dataset's ν = 0.8 is a general ν, so Σ sits within ``BUDGET`` per
    entry of the oracle's (‖δΣ‖₂ ≤ BUDGET·‖Σ‖_F) and what is solved with it
    within κ(Σ) times that, to first order: the tolerances below are that
    bound, no looser.  They were ``==`` while both sides called ``kv``.
    """

    CFG = MPConfig(accuracy=1e-6, tile_size=20)

    @staticmethod
    def _solve_rtol(dataset, theta):
        """‖Σ⁻¹‖₂·‖δΣ‖₂ for an entrywise relative perturbation of ``BUDGET``."""
        cov = dataset.model.cov_matrix(dataset.locations, theta)
        return BUDGET * np.linalg.norm(np.linalg.inv(cov), 2) * np.linalg.norm(cov, "fro")

    def test_likelihood_unchanged_to_the_last_bit(self, dataset):
        theta = (0.9, 0.13, 0.8)
        factor = _factor_through_oracle(dataset, theta, self.CFG)
        quad = float(dataset.z @ solve_with_factor(factor, dataset.z))
        logdet = logdet_from_factor(factor)
        value = -0.5 * dataset.n * math.log(2.0 * math.pi) - 0.5 * logdet - 0.5 * quad
        ev = log_likelihood(dataset, theta, self.CFG)
        assert ev.reason is None
        # δ(zᵀΣ⁻¹z)/zᵀΣ⁻¹z and δ log|Σ| / n are both ≤ ‖Σ⁻¹‖‖δΣ‖
        rtol = self._solve_rtol(dataset, theta)
        assert rtol < 1e-8
        assert abs(ev.quadratic - quad) <= rtol * quad
        assert abs(ev.logdet - logdet) <= dataset.n * rtol
        assert abs(ev.value - value) <= 0.5 * rtol * (dataset.n + quad)

    def test_krige_unchanged_to_the_last_bit(self, dataset):
        theta = (0.9, 0.13, 0.8)
        new = generate_locations(12, 2, seed=3)
        factor = _factor_through_oracle(dataset, theta, self.CFG)
        cross = dataset.model.cross_cov(dataset.locations, new, theta)
        alpha = solve_with_factor(factor, dataset.z)
        solved = solve_with_factor(factor, cross)
        mean = cross.T @ alpha
        variance = theta[0] - np.einsum("ij,ij->j", cross, solved)
        out = krige(dataset, new, theta, config=self.CFG)
        # δ(Σ⁻¹b) ≤ ‖Σ⁻¹‖‖δΣ‖·‖Σ⁻¹b‖, then Cauchy–Schwarz against each Σ* column
        rtol = self._solve_rtol(dataset, theta)
        assert rtol < 1e-8
        reach = np.linalg.norm(cross, axis=0)
        assert np.all(np.abs(out.mean - mean) <= rtol * reach * np.linalg.norm(alpha))
        assert np.all(np.abs(out.variance - variance)
                      <= rtol * reach * np.linalg.norm(solved, axis=0))

    def test_krige_still_raises_where_there_is_no_factor(self, dataset):
        with pytest.raises(ValueError, match="cov_build"):
            krige(dataset, dataset.locations[:2], (1.0, -0.1, 0.8))
        singular = SyntheticField.sqexp_2d(n=144, range_=0.3, seed=0).sample()
        with pytest.raises(np.linalg.LinAlgError, match="not_positive_definite"):
            krige(singular, singular.locations[:2], (1.0, 0.3), config=_fp64())
