"""Unit tests for synthetic fields and tiled covariance assembly."""

import numpy as np
import pytest

from repro.geostats.covariance import Matern
from repro.geostats.generator import Dataset, SyntheticField, build_tiled_covariance
from repro.geostats.locations import generate_locations


class TestDataset:
    def test_valid(self, small_field):
        ds = small_field.sample()
        assert ds.n == 144
        assert ds.theta_true == small_field.theta

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="locations but"):
            Dataset(np.zeros((5, 2)), np.zeros(4), Matern(dim=2))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="2D but"):
            Dataset(np.zeros((5, 3)), np.zeros(5), Matern(dim=2))

    def test_non_2d_locations(self):
        with pytest.raises(ValueError, match=r"\(n, dim\)"):
            Dataset(np.zeros(5), np.zeros(5), Matern(dim=2))


class TestSyntheticField:
    def test_replicas_share_locations_differ_in_z(self, small_field):
        a, b = small_field.replicas(2)
        assert np.array_equal(a.locations, b.locations)
        assert not np.array_equal(a.z, b.z)

    def test_sample_deterministic(self, small_field):
        assert np.array_equal(small_field.sample(3).z, small_field.sample(3).z)

    def test_sample_statistics(self):
        """Marginal variance of z matches σ² across replicas."""
        field = SyntheticField.matern_2d(n=100, variance=1.5, range_=0.05, seed=1)
        zs = np.array([field.sample(r).z for r in range(200)])
        var = zs.var(axis=0).mean()
        assert var == pytest.approx(1.5, rel=0.15)

    def test_constructors(self):
        assert SyntheticField.sqexp_2d(10).model.dim == 2
        assert SyntheticField.sqexp_3d(10).model.dim == 3
        assert SyntheticField.matern_2d(10).model.name == "2D-Matern"

    def test_nugget_carried_to_dataset(self):
        field = SyntheticField.sqexp_2d(64, nugget=0.01)
        assert field.sample().nugget == 0.01

    def test_nugget_inflates_variance(self):
        base = SyntheticField.sqexp_2d(100, range_=0.05, seed=2, nugget=0.0)
        noisy = SyntheticField.sqexp_2d(100, range_=0.05, seed=2, nugget=0.5)
        zb = np.array([base.sample(r).z for r in range(100)])
        zn = np.array([noisy.sample(r).z for r in range(100)])
        assert zn.var() > zb.var() + 0.2


class TestBuildTiledCovariance:
    def test_matches_dense(self):
        locs = generate_locations(60, 2, seed=0)
        model = Matern(dim=2)
        theta = (1.0, 0.1, 0.5)
        tiled = build_tiled_covariance(locs, model, theta, 16)
        dense = model.cov_matrix(locs, theta)
        assert np.allclose(tiled.to_dense(), dense)

    def test_nugget_on_diagonal_only(self):
        locs = generate_locations(40, 2, seed=0)
        model = Matern(dim=2)
        plain = build_tiled_covariance(locs, model, (1.0, 0.1, 0.5), 10)
        lifted = build_tiled_covariance(locs, model, (1.0, 0.1, 0.5), 10, nugget=0.25)
        diff = lifted.to_dense() - plain.to_dense()
        assert np.allclose(diff, 0.25 * np.eye(40), atol=1e-7)
