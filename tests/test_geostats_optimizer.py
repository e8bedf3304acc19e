"""Unit and property tests for the bound-constrained Nelder–Mead."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geostats.optimizer import maximize_bounded, nelder_mead_bounded


class TestQuadratics:
    def test_interior_minimum(self):
        res = nelder_mead_bounded(
            lambda x: (x[0] - 0.7) ** 2 + (x[1] - 0.3) ** 2,
            x0=(0.01, 0.01),
            bounds=[(0.0, 1.0), (0.0, 1.0)],
            xtol=1e-10,
        )
        assert res.converged
        assert np.allclose(res.x, [0.7, 0.3], atol=1e-6)
        assert res.fun == pytest.approx(0.0, abs=1e-10)

    def test_boundary_minimum(self):
        res = nelder_mead_bounded(
            lambda x: (x[0] + 1.0) ** 2,
            x0=(0.5,),
            bounds=[(0.0, 1.0)],
            xtol=1e-10,
        )
        assert res.x[0] == pytest.approx(0.0, abs=1e-6)

    def test_3d_curved_valley(self):
        """A moderately curved valley — the likelihood-surface regime.

        (Extreme Rosenbrock-style valleys narrower than the restart
        simplex can stall projected Nelder–Mead; the paper's 2–3
        parameter likelihood surfaces are far better conditioned.)
        """

        def f(x):
            return 4 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2 + (x[2] - 1.0) ** 2

        res = nelder_mead_bounded(
            f, x0=(0.1, 0.1, 0.1), bounds=[(0.0, 2.0)] * 3, xtol=1e-10,
            max_evals=5000, restarts=4,
        )
        assert np.allclose(res.x, [1.0, 1.0, 1.0], atol=1e-3)

    def test_iterates_stay_in_box(self):
        seen = []

        def f(x):
            seen.append(x.copy())
            return float(np.sum(x**2))

        nelder_mead_bounded(f, x0=(1.5,), bounds=[(1.0, 2.0)], max_evals=200)
        arr = np.array(seen)
        assert np.all(arr >= 1.0 - 1e-12) and np.all(arr <= 2.0 + 1e-12)
        # boundary optimum found
        assert min(np.sum(x**2) for x in seen) == pytest.approx(1.0, abs=1e-6)


class TestInfeasibleRegions:
    def test_handles_inf(self):
        """-inf likelihood probes (non-PD covariances) must not derail it."""

        def f(x):
            if x[0] > 0.8:
                return math.inf
            return (x[0] - 0.5) ** 2

        res = nelder_mead_bounded(f, x0=(0.05,), bounds=[(0.0, 1.0)], xtol=1e-9)
        assert res.x[0] == pytest.approx(0.5, abs=1e-5)

    def test_handles_nan(self):
        def f(x):
            if x[0] < 0.3:
                return float("nan")
            return (x[0] - 0.6) ** 2

        res = nelder_mead_bounded(f, x0=(0.5,), bounds=[(0.0, 1.0)], xtol=1e-9)
        assert res.x[0] == pytest.approx(0.6, abs=1e-4)


class TestBudgetsAndValidation:
    def test_max_evals_respected(self):
        calls = []

        def f(x):
            calls.append(1)
            return float(np.sum(x**2))

        res = nelder_mead_bounded(f, x0=(1.0, 1.0), bounds=[(0.0, 2.0)] * 2, max_evals=37)
        assert res.n_evals <= 37 + 2  # may finish the in-flight shrink
        assert len(calls) == res.n_evals

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="lo < hi"):
            nelder_mead_bounded(lambda x: 0.0, (0.5,), [(1.0, 1.0)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="bounds"):
            nelder_mead_bounded(lambda x: 0.0, (0.5, 0.5), [(0.0, 1.0)])


class TestMaximize:
    def test_negates(self):
        res = maximize_bounded(
            lambda x: -((x[0] - 0.4) ** 2) + 3.0, (0.01,), [(0.0, 1.0)], xtol=1e-10
        )
        assert res.x[0] == pytest.approx(0.4, abs=1e-6)
        assert res.fun == pytest.approx(3.0, abs=1e-10)


@given(
    st.floats(0.1, 1.9), st.floats(0.1, 1.9), st.integers(0, 1000)
)
@settings(max_examples=30, deadline=None)
def test_property_convex_quadratic_always_solved(cx, cy, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.01, 1.99, size=2)

    def f(x):
        return (x[0] - cx) ** 2 + 2.0 * (x[1] - cy) ** 2

    res = nelder_mead_bounded(f, x0, [(0.0, 2.0)] * 2, xtol=1e-9, max_evals=2000,
                              restarts=2)
    assert np.allclose(res.x, [cx, cy], atol=1e-4)
