"""Unit tests for the Monte Carlo study harness."""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.geostats.generator import SyntheticField
from repro.geostats.montecarlo import (
    MonteCarloStudy,
    ReplicaEstimate,
    run_monte_carlo,
)


def _study() -> MonteCarloStudy:
    study = MonteCarloStudy(
        field_name="2D-Matern",
        theta_true=(1.0, 0.1),
        param_names=("variance", "range"),
    )
    rng = np.random.default_rng(0)
    for label, spread in (("1e-02", 0.3), ("exact", 0.05)):
        for r in range(12):
            theta = (1.0 + spread * rng.standard_normal(), 0.1 + spread * 0.1 * rng.standard_normal())
            study.estimates.append(
                ReplicaEstimate(r, label, theta, loglik=-100.0, n_evals=50)
            )
    return study


class TestStudyAggregation:
    def test_accuracy_labels_ordered(self):
        study = _study()
        assert study.accuracy_labels() == ["1e-02", "exact"]

    def test_box_stats_fields(self):
        stats = _study().box_stats()
        assert len(stats) == 4  # 2 labels × 2 params
        for s in stats:
            assert s.q1 <= s.median <= s.q3
            assert s.n == 12
            assert s.iqr == s.q3 - s.q1

    def test_tighter_accuracy_smaller_spread(self):
        stats = {(s.accuracy_label, s.parameter): s for s in _study().box_stats()}
        assert stats[("exact", "variance")].std < stats[("1e-02", "variance")].std

    def test_median_bias(self):
        bias = _study().median_bias("exact")
        assert set(bias) == {"variance", "range"}
        assert bias["variance"] < 0.1

    def test_render(self):
        out = _study().render()
        assert "variance" in out and "exact" in out and "median" in out


class TestRunMonteCarlo:
    @pytest.fixture(scope="class")
    def study(self):
        field = SyntheticField.matern_2d(n=100, range_=0.1, smoothness=0.5, seed=4)
        return run_monte_carlo(
            field, ["exact", 1e-9], replicas=3, tile_size=25, max_evals=80, restarts=0
        )

    def test_all_estimates_present(self, study):
        assert len(study.estimates) == 6
        assert study.accuracy_labels() == ["exact", "1e-09"]

    def test_estimates_within_bounds(self, study):
        for est in study.estimates:
            assert all(0.01 <= v <= 2.0 for v in est.theta_hat)

    def test_tight_matches_exact_per_replica(self, study):
        by = {}
        for est in study.estimates:
            by.setdefault(est.replica, {})[est.accuracy_label] = est.theta_hat
        for replica, d in by.items():
            assert np.allclose(d["exact"], d["1e-09"], rtol=0.1, atol=0.02), (
                f"replica {replica}: {d}"
            )


class TestMonteCarloResilience:
    def _field(self):
        return SyntheticField.matern_2d(n=100, range_=0.1, smoothness=0.5, seed=4)

    def test_crashed_replica_lands_in_failures(self):
        """A permanently-crashing cell is recorded, the rest of the study
        completes (cell labels are '<accuracy>:<replica>')."""
        plan = FaultPlan((FaultSpec("crash_point", point="1e-09:1", times=None),))
        study = run_monte_carlo(
            self._field(), ["exact", 1e-9], replicas=3, tile_size=25,
            max_evals=80, restarts=0, fault_plan=plan,
        )
        assert len(study.estimates) == 5
        assert len(study.failures) == 1
        failure = study.failures[0]
        assert failure.replica == 1
        assert failure.accuracy_label == "1e-09"
        assert failure.attempts == 1
        assert "FaultInjectedError" in failure.error

    def test_transient_fault_recovered_by_retry(self):
        plan = FaultPlan((FaultSpec("transient", point="exact:0", times=1),))
        study = run_monte_carlo(
            self._field(), ["exact"], replicas=2, tile_size=25,
            max_evals=80, restarts=0, fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.0),
        )
        assert len(study.estimates) == 2
        assert not study.failures

    def test_faulted_study_matches_clean_study(self):
        """Surviving estimates are bit-identical with and without a fault
        plan — injection perturbs only the targeted cell."""
        clean = run_monte_carlo(
            self._field(), ["exact"], replicas=2, tile_size=25,
            max_evals=80, restarts=0,
        )
        plan = FaultPlan((FaultSpec("crash_point", point="exact:1", times=None),))
        faulted = run_monte_carlo(
            self._field(), ["exact"], replicas=2, tile_size=25,
            max_evals=80, restarts=0, fault_plan=plan,
        )
        assert len(faulted.estimates) == 1
        clean_r0 = next(e for e in clean.estimates if e.replica == 0)
        assert faulted.estimates[0].theta_hat == clean_r0.theta_hat
