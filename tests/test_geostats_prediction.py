"""Unit tests for kriging prediction."""

import numpy as np
import pytest

from repro.core.config import MPConfig
from repro.geostats.generator import Dataset, SyntheticField
from repro.geostats.prediction import krige
from repro.precision import Precision


@pytest.fixture(scope="module")
def split_field():
    field = SyntheticField.matern_2d(n=196, range_=0.15, smoothness=0.5, seed=8)
    full = field.sample()
    rng = np.random.default_rng(0)
    idx = rng.permutation(full.n)
    train = Dataset(full.locations[idx[:160]], full.z[idx[:160]], full.model,
                    full.theta_true)
    return train, full.locations[idx[160:]], full.z[idx[160:]], field.theta


def _config(acc=1e-9):
    return MPConfig(accuracy=acc, tile_size=20)


class TestKrige:
    def test_shapes(self, split_field):
        train, locs, _z, theta = split_field
        out = krige(train, locs, theta, config=_config())
        assert out.mean.shape == (36,)
        assert out.variance.shape == (36,)
        assert out.theta == tuple(theta)

    def test_beats_zero_predictor(self, split_field):
        train, locs, z, theta = split_field
        out = krige(train, locs, theta, config=_config())
        rmse = np.sqrt(np.mean((out.mean - z) ** 2))
        zero_rmse = np.sqrt(np.mean(z**2))
        assert rmse < 0.8 * zero_rmse

    def test_variance_bounds(self, split_field):
        train, locs, _z, theta = split_field
        out = krige(train, locs, theta, config=_config())
        assert np.all(out.variance >= -1e-8)
        assert np.all(out.variance <= theta[0] + 1e-8)  # conditioning reduces variance
        assert np.all(out.stddev >= 0.0)

    def test_interpolates_observations(self, split_field):
        """Kriging at observed points reproduces the data (no nugget)."""
        train, _locs, _z, theta = split_field
        out = krige(train, train.locations[:10], theta, config=_config())
        assert np.allclose(out.mean, train.z[:10], atol=1e-5)
        assert np.all(out.variance[:10] < 1e-5)

    def test_calibration(self, split_field):
        train, locs, z, theta = split_field
        out = krige(train, locs, theta, config=_config())
        inside = np.abs(z - out.mean) <= 1.96 * np.maximum(out.stddev, 1e-12)
        assert np.mean(inside) > 0.7  # 95 % nominal, small-sample slack

    def test_exact_vs_mixed_precision_close(self, split_field):
        train, locs, _z, theta = split_field
        exact = krige(train, locs, theta,
                      config=MPConfig(accuracy=1e-15, formats=(Precision.FP64,),
                                      tile_size=20))
        mixed = krige(train, locs, theta, config=_config(1e-9))
        assert np.allclose(exact.mean, mixed.mean, atol=1e-4)

    def test_prior_variance_is_one_kernel_entry(self, split_field, monkeypatch):
        """C(0) is a constant: taken from one entry, not from m zeros, same bits."""
        from repro.core.cholesky import solve_with_factor
        from repro.geostats.covariance import Matern
        from repro.geostats.likelihood import _factorize

        train, locs, _z, theta = split_field  # ν = ½, a preset: closed form
        factor, _kmap, reason = _factorize(train, tuple(theta), _config())
        assert reason is None
        cross = train.model.cross_cov(train.locations, locs, theta)
        prior = train.model.correlation(np.zeros(len(locs)), np.asarray(theta))
        variance = prior - np.einsum("ij,ij->j", cross, solve_with_factor(factor, cross))

        zeros_seen = []
        correlation = Matern.correlation

        def watched(self, h, theta):
            if not np.any(h):
                zeros_seen.append(np.size(h))
            return correlation(self, h, theta)

        monkeypatch.setattr(Matern, "correlation", watched)
        out = krige(train, locs, theta, config=_config())
        assert np.array_equal(out.variance, variance)
        assert zeros_seen == [1]

    def test_validates_locations(self, split_field):
        train, _locs, _z, theta = split_field
        with pytest.raises(ValueError):
            krige(train, np.zeros((5, 3)), theta)
