"""Unit and property tests for the covariance models."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geostats.covariance import Matern, SquaredExponential, get_model
from repro.geostats.locations import generate_locations


class TestSquaredExponential:
    def test_formula(self):
        model = SquaredExponential(dim=2)
        h = np.array([0.0, 0.1, 1.0])
        out = model.correlation(h, np.array([2.0, 0.5]))
        assert np.allclose(out, 2.0 * np.exp(-h**2 / 0.5))

    def test_at_zero_is_variance(self):
        model = SquaredExponential(dim=2)
        assert model.correlation(np.array([0.0]), np.array([1.7, 0.3]))[0] == 1.7

    def test_presets(self):
        _, weak = SquaredExponential.weak()
        _, strong = SquaredExponential.strong()
        assert weak == (1.0, 0.03) and strong == (1.0, 0.3)

    def test_cov_matrix_spd_with_jitter(self):
        model = SquaredExponential(dim=2)
        locs = generate_locations(50, 2, seed=0)
        cov = model.cov_matrix(locs, (1.0, 0.03)) + 1e-8 * np.eye(50)
        np.linalg.cholesky(cov)  # must not raise

    def test_names(self):
        assert SquaredExponential(dim=2).name == "2D-sqexp"
        assert SquaredExponential(dim=3).name == "3D-sqexp"
        assert SquaredExponential(dim=2).param_names == ("variance", "range")


class TestMatern:
    def test_at_zero_is_variance(self):
        model = Matern(dim=2)
        out = model.correlation(np.array([0.0, 1e-300]), np.array([1.5, 0.1, 0.5]))
        assert out[0] == 1.5

    def test_nu_half_is_exponential(self):
        """ν = 0.5 reduces to σ² exp(−h/β)."""
        model = Matern(dim=2)
        h = np.linspace(0.01, 1.0, 20)
        out = model.correlation(h, np.array([1.0, 0.2, 0.5]))
        assert np.allclose(out, np.exp(-h / 0.2), rtol=1e-10)

    def test_smoothness_effect(self):
        """Higher ν concentrates correlation (smoother field)."""
        model = Matern(dim=2)
        h = np.array([0.05])
        rough = model.correlation(h, np.array([1.0, 0.1, 0.5]))[0]
        smooth = model.correlation(h, np.array([1.0, 0.1, 1.0]))[0]
        assert smooth > rough

    def test_monotone_decreasing(self):
        model = Matern(dim=2)
        h = np.linspace(0.0, 2.0, 50)
        out = model.correlation(h, np.array([1.0, 0.3, 1.0]))
        assert np.all(np.diff(out) <= 1e-12)

    def test_huge_distance_underflows_to_zero(self):
        model = Matern(dim=2)
        out = model.correlation(np.array([1e6]), np.array([1.0, 0.01, 0.5]))
        assert out[0] == 0.0

    @pytest.mark.parametrize(
        "h, nu, limit",
        [
            (1e2, 100.0, 0.0),  # s^ν → inf against K_ν → 0: the limit is 0
            (1e-150, 3.0, 1.5),  # s^ν → 0 against K_ν → inf: the limit is σ²
        ],
    )
    def test_saturated_lanes_take_their_limit_silently(self, h, nu, limit):
        """inf·0 is never formed (RuntimeWarnings are errors under tier-1),
        and a finite lane beside the saturated one keeps its exact value."""
        model = Matern(dim=2)
        theta = np.array([1.5, 0.01, nu])
        out = model.correlation(np.array([h, 0.02]), theta)
        assert out[0] == limit
        assert out[1] == model.correlation(np.array([0.02]), theta)[0] > 0.0

    def test_cov_matrix_spd(self):
        model = Matern(dim=2)
        locs = generate_locations(60, 2, seed=1)
        cov = model.cov_matrix(locs, (1.0, 0.1, 0.5))
        w = np.linalg.eigvalsh(cov)
        assert w[0] > 0

    def test_presets(self):
        _, t = Matern.preset("weak", "rough")
        assert t == (1.0, 0.03, 0.5)
        _, t = Matern.preset("strong", "smooth")
        assert t == (1.0, 0.3, 1.0)


class TestValidation:
    def test_theta_length(self):
        with pytest.raises(ValueError, match="length"):
            SquaredExponential(dim=2).validate_theta((1.0, 0.1, 0.5))

    def test_theta_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Matern(dim=2).validate_theta((1.0, -0.1, 0.5))

    def test_bounds(self):
        bounds = Matern(dim=2).bounds()
        assert bounds == [(0.01, 2.0)] * 3  # the paper's box

    def test_registry(self):
        assert get_model("2d-sqexp").name == "2D-sqexp"
        assert get_model("2D_MATERN").dim == 2
        assert get_model("3d-sqexp").dim == 3
        with pytest.raises(ValueError):
            get_model("5d-foo")


class TestEntryOracle:
    def test_matches_cov_matrix(self):
        model = Matern(dim=2)
        locs = generate_locations(30, 2, seed=2)
        theta = (1.0, 0.1, 0.5)
        cov = model.cov_matrix(locs, theta)
        entry = model.entry_oracle(locs, theta)
        rows = np.array([0, 3, 7, 29])
        cols = np.array([1, 3, 0, 15])
        assert np.allclose(entry(rows, cols), cov[rows, cols])

    def test_cross_cov(self):
        model = SquaredExponential(dim=2)
        a = generate_locations(10, 2, seed=0)
        b = generate_locations(8, 2, seed=1)
        cc = model.cross_cov(a, b, (1.0, 0.1))
        assert cc.shape == (10, 8)
        assert np.all(cc > 0) and np.all(cc <= 1.0)


@given(
    st.floats(0.05, 2.0), st.floats(0.02, 2.0), st.floats(0.1, 3.0),
    st.lists(st.floats(0.0, 3.0), min_size=1, max_size=10),
)
@example(1.0, 2.0, 0.75, [5e-324])  # h/β underflows to 0: σ², not log(0)
@settings(max_examples=50, deadline=None)
def test_property_matern_bounded_by_variance(sigma2, beta, nu, hs):
    """0 ≤ C(h) ≤ σ² everywhere, with equality only at h = 0."""
    model = Matern(dim=2)
    out = model.correlation(np.array(hs), np.array([sigma2, beta, nu]))
    assert np.all(out >= 0.0)
    assert np.all(out <= sigma2 * (1.0 + 1e-9))
