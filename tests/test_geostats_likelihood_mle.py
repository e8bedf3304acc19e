"""Unit tests for the likelihood and MLE driver."""

import math

import numpy as np
import pytest
import scipy.stats

from repro.core.config import MPConfig
from repro.geostats.generator import SyntheticField
from repro.geostats.likelihood import log_likelihood
from repro.geostats.mle import default_tile_size, fit_mle
from repro.precision import Precision


@pytest.fixture(scope="module")
def dataset():
    return SyntheticField.matern_2d(n=144, range_=0.1, smoothness=0.5, seed=3).sample()


@pytest.fixture(scope="module")
def near_singular():
    """Dense squared-exponential field with a 1e-3 nugget: SPD in FP64,
    but demoted tiles break the factorization around the true range."""
    return SyntheticField.sqexp_2d(n=144, range_=0.1, seed=0, nugget=1e-3).sample()


def _exact_config(nb=18):
    return MPConfig(accuracy=1e-15, formats=(Precision.FP64,), tile_size=nb)


class TestLikelihood:
    def test_matches_scipy(self, dataset):
        """Exact FP64 likelihood equals scipy's multivariate normal logpdf."""
        theta = (1.0, 0.1, 0.5)
        ours = log_likelihood(dataset, theta, _exact_config()).value
        cov = dataset.model.cov_matrix(dataset.locations, theta)
        ref = scipy.stats.multivariate_normal(
            mean=np.zeros(dataset.n), cov=cov, allow_singular=False
        ).logpdf(dataset.z)
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_components(self, dataset):
        ev = log_likelihood(dataset, (1.0, 0.1, 0.5), _exact_config())
        n = dataset.n
        assert ev.value == pytest.approx(
            -0.5 * n * math.log(2 * math.pi) - 0.5 * ev.logdet - 0.5 * ev.quadratic
        )
        assert ev.quadratic > 0
        assert ev.feasible

    def test_mixed_precision_close_to_exact(self, dataset):
        theta = (1.0, 0.1, 0.5)
        exact = log_likelihood(dataset, theta, _exact_config()).value
        mp = log_likelihood(dataset, theta, MPConfig(accuracy=1e-9, tile_size=18)).value
        assert mp == pytest.approx(exact, abs=1e-3 * abs(exact) + 1e-3)

    def test_looser_accuracy_larger_deviation(self, dataset):
        theta = (1.0, 0.1, 0.5)
        exact = log_likelihood(dataset, theta, _exact_config()).value
        devs = []
        for acc in (1e-9, 1e-4, 1e-1):
            val = log_likelihood(dataset, theta, MPConfig(accuracy=acc, tile_size=18)).value
            devs.append(abs(val - exact) if math.isfinite(val) else math.inf)
        assert devs[0] <= devs[1] <= devs[2] or devs[2] == math.inf

    def test_infeasible_theta_gives_neg_inf(self, dataset):
        # an invalid θ (zero variance) is reported as an infeasible probe,
        # not an exception — the optimizer depends on this contract
        ev = log_likelihood(dataset, (0.0, 0.1, 0.5), _exact_config())
        assert ev.value == -math.inf
        assert ev.reason == "cov_build"

    def test_singular_covariance_gives_neg_inf(self):
        # the nugget-free squared exponential at dense sampling is
        # numerically singular in FP64: POTRF fails, likelihood is -inf
        field = SyntheticField.sqexp_2d(n=144, range_=0.3, seed=0)
        ds = field.sample()
        ev = log_likelihood(ds, (1.0, 0.3), _exact_config())
        assert ev.value == -math.inf
        assert ev.reason == "not_positive_definite"

    def test_feasible_evaluation_has_no_reason(self, dataset):
        ev = log_likelihood(dataset, (1.0, 0.1, 0.5), _exact_config())
        assert ev.feasible and ev.reason is None

    def test_precision_map_breakdown_is_counted_by_reason(self, near_singular):
        """A θ the FP64 factorization handles but this accuracy's precision
        map does not: the -inf names its site and ticks the counter."""
        from repro import obs

        theta = (1.0, 0.3)
        assert log_likelihood(near_singular, theta, _exact_config()).feasible
        counter = obs.get_registry().counter("mle.infeasible")
        before = counter.value(reason="not_positive_definite")
        ev = log_likelihood(near_singular, theta, MPConfig(accuracy=1e-2, tile_size=18))
        assert ev.value == -math.inf
        assert ev.reason == "not_positive_definite"
        assert counter.value(reason="not_positive_definite") == before + 1

    def test_non_finite_panel_tile_is_an_infeasible_probe(self, monkeypatch):
        """A variance of 1e8 saturates a demoted update into a NaN *panel* tile,
        which TRSM's finiteness check meets before any POTRF does: that one
        ``ValueError`` is a reason, not an exception."""
        import warnings

        from repro import obs
        from repro.geostats import likelihood
        from repro.geostats.prediction import krige

        ds = SyntheticField.sqexp_2d(200, 1.0, 0.03, seed=1, nugget=0.01).sample()
        cfg = MPConfig(accuracy=1e-4, tile_size=32)
        counter = obs.get_registry().counter("mle.infeasible")
        before = counter.value(reason="non_finite")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = log_likelihood(ds, (1e8, 0.03), cfg)
        assert (ev.value, ev.reason) == (-math.inf, "non_finite")
        assert counter.value(reason="non_finite") == before + 1
        with pytest.raises(np.linalg.LinAlgError, match="non_finite"):
            krige(ds, ds.locations[:2], (1e8, 0.03), config=cfg)

        def broken(*_args, **_kwargs):
            raise ValueError("some other defect")

        monkeypatch.setattr(likelihood, "mp_cholesky", broken)
        with pytest.raises(ValueError, match="some other defect"):
            log_likelihood(ds, (1.0, 0.03), cfg)

    def test_keep_map(self, dataset):
        ev = log_likelihood(
            dataset, (1.0, 0.1, 0.5), MPConfig(accuracy=1e-4, tile_size=18), keep_map=True
        )
        assert ev.kernel_map is not None
        assert ev.kernel_map.nt == 8

    def test_nugget_changes_value(self, dataset):
        from repro.geostats.generator import Dataset

        noisy = Dataset(dataset.locations, dataset.z, dataset.model,
                        dataset.theta_true, nugget=0.1)
        a = log_likelihood(dataset, (1.0, 0.1, 0.5), _exact_config()).value
        b = log_likelihood(noisy, (1.0, 0.1, 0.5), _exact_config()).value
        assert a != b


class TestFitMLE:
    def test_default_tile_size(self):
        assert default_tile_size(144) == 18
        assert default_tile_size(100000) == 2048
        assert default_tile_size(10) == 16

    def test_recovers_parameters(self, dataset):
        res = fit_mle(dataset, exact=True, tile_size=18, max_evals=250, xtol=1e-7)
        # MLE at n=144 carries sampling error; stay within broad factors
        assert 0.3 < res.theta_hat[0] < 2.0
        assert 0.02 < res.theta_hat[1] < 0.5
        assert 0.2 < res.theta_hat[2] < 1.5
        assert res.accuracy_label == "exact"
        assert math.isfinite(res.loglik)
        # a healthy fit met no infeasible probe, and says so
        assert res.infeasible_evals == 0
        assert res.infeasible_by_reason == {}

    def test_fit_reports_the_breakdowns_it_steered_around(self, near_singular):
        kw = dict(tile_size=18, max_evals=60, xtol=1e-4, restarts=0, x0=(1.0, 0.3))
        loose = fit_mle(near_singular, accuracy=1e-2, **kw)
        assert loose.infeasible_evals > 0
        assert loose.infeasible_by_reason == {
            "not_positive_definite": loose.infeasible_evals}
        # the same start in FP64 meets none and ends somewhere better
        exact = fit_mle(near_singular, exact=True, **kw)
        assert exact.infeasible_evals == 0
        assert exact.loglik > loose.loglik

    def test_tight_accuracy_matches_exact(self, dataset):
        exact = fit_mle(dataset, exact=True, tile_size=18, max_evals=200, xtol=1e-6)
        tight = fit_mle(dataset, accuracy=1e-9, tile_size=18, max_evals=200, xtol=1e-6)
        assert np.allclose(exact.theta_hat, tight.theta_hat, rtol=0.05, atol=0.01)

    def test_fit_improves_on_start(self, dataset):
        res = fit_mle(dataset, exact=True, tile_size=18, max_evals=150, xtol=1e-6)
        start_ll = log_likelihood(dataset, (0.01, 0.01, 0.01), _exact_config()).value
        assert res.loglik > start_ll

    def test_accuracy_label(self, dataset):
        res = fit_mle(dataset, accuracy=1e-4, tile_size=18, max_evals=30, restarts=0)
        assert res.accuracy_label == "1e-04"

    def test_result_iterable(self, dataset):
        res = fit_mle(dataset, exact=True, tile_size=18, max_evals=30, restarts=0)
        assert len(list(res)) == 3
