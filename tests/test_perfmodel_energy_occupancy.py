"""Unit tests for the energy and occupancy post-processing (occupancy
is :func:`repro.obs.analysis.utilization_timeline`)."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.obs.analysis import utilization_timeline
from repro.perfmodel.energy import energy_report, power_trace
from repro.perfmodel.gpus import V100
from repro.precision import Precision


@dataclass(frozen=True)
class Ev:
    t_start: float
    t_end: float
    engine: str = "compute"
    precision: Precision = Precision.FP64
    flops: float = 0.0
    rank: int = 0


class TestEnergy:
    def test_idle_only(self):
        rep = energy_report(V100, [], makespan=10.0)
        assert rep.total_joules == pytest.approx(V100.idle_power * 10.0)
        assert rep.gflops_per_watt == 0.0

    def test_compute_energy_additive(self):
        ev = Ev(0.0, 4.0, "compute", Precision.FP64, flops=1e12)
        rep = energy_report(V100, [ev], makespan=10.0)
        expected = V100.idle_power * 10.0 + (
            V100.compute_power(Precision.FP64) - V100.idle_power
        ) * 4.0
        assert rep.total_joules == pytest.approx(expected)
        assert rep.total_flops == 1e12

    def test_fp16_cheaper_than_fp64(self):
        e64 = energy_report(V100, [Ev(0, 5, "compute", Precision.FP64)], 5.0)
        e16 = energy_report(V100, [Ev(0, 5, "compute", Precision.FP16)], 5.0)
        assert e16.total_joules < e64.total_joules

    def test_copy_engine_adder(self):
        ev = Ev(0.0, 2.0, "h2d")
        rep = energy_report(V100, [ev], makespan=2.0)
        expected = V100.idle_power * 2.0 + V100.tdp_watts * V100.copy_power_fraction * 2.0
        assert rep.total_joules == pytest.approx(expected)

    def test_gflops_per_watt(self):
        ev = Ev(0.0, 10.0, "compute", Precision.FP64, flops=1e13)
        rep = energy_report(V100, [ev], makespan=10.0)
        assert rep.gflops_per_watt == pytest.approx((1e13 / 1e9) / rep.total_joules)

    def test_power_trace_clamped_at_tdp(self):
        evs = [Ev(0.0, 1.0, "compute", Precision.FP64) for _ in range(10)]
        samples = power_trace(V100, evs, 1.0, n_samples=20)
        assert all(s.watts <= V100.tdp_watts * 1.1 for s in samples)

    def test_power_trace_shape(self):
        samples = power_trace(V100, [Ev(0.0, 0.5)], 1.0, n_samples=10)
        busy = [s for s in samples if s.time < 0.5]
        idle = [s for s in samples if s.time >= 0.5]
        assert min(b.watts for b in busy) > max(i.watts for i in idle)

    def test_empty_makespan(self):
        assert power_trace(V100, [], 0.0) == []


class TestPowerTraceRegressions:
    """Pin the half-open-mask and below-idle fixes (ISSUE 3 satellites)."""

    def test_event_ending_at_makespan_in_final_sample(self):
        """The trace is closed at the makespan: an event running to the
        end must show in the last sample, not drop to idle there."""
        samples = power_trace(V100, [Ev(0.0, 10.0)], 10.0, n_samples=10)
        assert samples[-1].time == pytest.approx(10.0)
        assert samples[-1].watts > V100.idle_power

    def test_abutting_events_no_double_count_inside(self):
        """Half-open [t0, t1) still holds away from the makespan."""
        evs = [Ev(0.0, 5.0), Ev(5.0, 10.0)]
        samples = power_trace(V100, evs, 10.0, n_samples=10)
        inc = V100.compute_power(Precision.FP64) - V100.idle_power
        at_boundary = [s for s in samples if s.time == pytest.approx(5.0)]
        assert at_boundary
        assert at_boundary[0].watts == pytest.approx(V100.idle_power + inc)

    def test_below_idle_power_subtracts(self):
        """A precision whose compute power sits below idle must pull the
        trace *below* the idle line, not be silently discarded."""
        from dataclasses import replace

        cold = replace(
            V100,
            compute_power_fraction={**V100.compute_power_fraction, Precision.FP16: 0.02},
        )
        inc = cold.compute_power(Precision.FP16) - cold.idle_power
        assert inc < 0.0  # the scenario under test
        samples = power_trace(cold, [Ev(0.0, 10.0, "compute", Precision.FP16)],
                              10.0, n_samples=10)
        assert all(s.watts == pytest.approx(cold.idle_power + inc) for s in samples)

    def test_trapezoid_matches_exact_joules(self):
        """Integrating the sampled trace must agree with the exact
        event-duration integral (non-overlapping events, so the 1.1×TDP
        clamp never bites)."""
        evs = [
            Ev(0.0, 3.0, "compute", Precision.FP64),
            Ev(3.0, 5.0, "h2d"),
            Ev(5.0, 9.0, "compute", Precision.FP16),
        ]
        makespan = 10.0
        rep = energy_report(V100, evs, makespan, n_samples=200)
        samples = power_trace(V100, evs, makespan, n_samples=20000)
        t = np.array([s.time for s in samples])
        w = np.array([s.watts for s in samples])
        integral = float(np.trapezoid(w, t))
        assert integral == pytest.approx(rep.total_joules, rel=1e-3)

    def test_trapezoid_matches_exact_joules_below_idle(self):
        from dataclasses import replace

        cold = replace(
            V100,
            compute_power_fraction={**V100.compute_power_fraction, Precision.FP16: 0.02},
        )
        evs = [Ev(0.0, 8.0, "compute", Precision.FP16)]
        rep = energy_report(cold, evs, 8.0)
        samples = power_trace(cold, evs, 8.0, n_samples=8000)
        t = np.array([s.time for s in samples])
        w = np.array([s.watts for s in samples])
        assert float(np.trapezoid(w, t)) == pytest.approx(rep.total_joules, rel=1e-6)


def _occupancy(evs, makespan, n_windows, engine="compute"):
    return utilization_timeline(evs, makespan=makespan, n_buckets=n_windows)[engine]


def _busy(evs, makespan, engine="compute"):
    """Whole-run busy fraction: the occupancy of one window."""
    (fraction,) = _occupancy(evs, makespan, 1, engine)
    return fraction


class TestOccupancy:
    def test_full_busy(self):
        evs = [Ev(0.0, 10.0)]
        assert _busy(evs, 10.0) == pytest.approx(1.0)
        assert np.mean(_occupancy(evs, 10.0, 10)) == pytest.approx(1.0)

    def test_half_busy(self):
        evs = [Ev(0.0, 5.0)]
        assert _busy(evs, 10.0) == pytest.approx(0.5)

    def test_overlapping_intervals_merged(self):
        evs = [Ev(0.0, 6.0), Ev(4.0, 8.0)]
        assert _busy(evs, 10.0) == pytest.approx(0.8)

    def test_engine_filter(self):
        evs = [Ev(0.0, 10.0, "h2d")]
        assert "compute" not in utilization_timeline(evs, makespan=10.0, n_buckets=1)
        assert _busy(evs, 10.0, engine="h2d") == pytest.approx(1.0)

    def test_windowed_trace(self):
        evs = [Ev(0.0, 2.5)]
        assert [round(f, 6) for f in _occupancy(evs, 10.0, 4)] == [1.0, 0.0, 0.0, 0.0]

    def test_partial_window(self):
        evs = [Ev(1.25, 2.5)]
        assert _occupancy(evs, 10.0, 4)[0] == pytest.approx(0.5)

    def test_empty(self):
        assert utilization_timeline([], makespan=0.0) == {}
