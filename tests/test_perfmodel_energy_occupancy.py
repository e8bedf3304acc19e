"""Unit tests for the energy law and the occupancy post-processing
(occupancy is :func:`repro.obs.analysis.utilization_timeline`)."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.obs.analysis import utilization_timeline
from repro.perfmodel.energy import joules
from repro.perfmodel.gpus import V100
from repro.precision import Precision
from repro.runtime.simulator import SimReport
from repro.runtime.tracing import RunStats, Trace


@dataclass(frozen=True)
class Ev:
    t_start: float
    t_end: float
    engine: str = "compute"
    precision: Precision = Precision.FP64
    flops: float = 0.0
    rank: int = 0


def _report(flops: float, energy: float) -> SimReport:
    return SimReport(makespan=10.0, stats=RunStats(total_flops=flops), trace=Trace(),
                     joules=energy)


class TestEnergy:
    def test_idle_only(self):
        assert joules(V100, 10.0, {}, 0.0) == pytest.approx(V100.idle_power * 10.0)
        assert joules(V100, 10.0, {}, 0.0, n_gpus=3) == pytest.approx(V100.idle_power * 30.0)
        assert _report(0.0, V100.idle_power * 10.0).gflops_per_watt == 0.0

    def test_compute_energy_additive(self):
        expected = V100.idle_power * 10.0 + (
            V100.compute_power(Precision.FP64) - V100.idle_power
        ) * 4.0
        assert joules(V100, 10.0, {Precision.FP64: 4.0}, 0.0) == pytest.approx(expected)

    def test_fp16_cheaper_than_fp64(self):
        e64 = joules(V100, 5.0, {Precision.FP64: 5.0}, 0.0)
        e16 = joules(V100, 5.0, {Precision.FP16: 5.0}, 0.0)
        assert e16 < e64

    def test_copy_engine_adder(self):
        expected = V100.idle_power * 2.0 + V100.tdp_watts * V100.copy_power_fraction * 2.0
        assert joules(V100, 2.0, {}, 2.0) == pytest.approx(expected)

    def test_gflops_per_watt(self):
        energy = joules(V100, 10.0, {Precision.FP64: 10.0}, 0.0)
        assert _report(1e13, energy).gflops_per_watt == pytest.approx((1e13 / 1e9) / energy)

    def test_empty_makespan(self):
        assert joules(V100, 0.0, {}, 0.0) == 0.0
        assert _report(0.0, 0.0).gflops_per_watt == 0.0

    def test_not_clipped_at_tdp(self):
        """Ten seconds of FP64 compute in one second of makespan (ten
        overlapping intervals) draw ten increments: power is not clipped
        at 1.1 × TDP."""
        assert joules(V100, 1.0, {Precision.FP64: 10.0}, 0.0) > V100.tdp_watts * 1.1


class TestPowerTraceRegressions:
    """The sampled trace's below-idle fix, kept by the one energy law."""

    def test_below_idle_power_subtracts(self):
        """A precision whose compute power sits below idle must pull the
        joules *below* the idle line, not be silently discarded."""
        cold = replace(
            V100,
            compute_power_fraction={**V100.compute_power_fraction, Precision.FP16: 0.02},
        )
        inc = cold.compute_power(Precision.FP16) - cold.idle_power
        assert inc < 0.0  # the scenario under test
        assert joules(cold, 10.0, {Precision.FP16: 10.0}, 0.0) == pytest.approx(
            (cold.idle_power + inc) * 10.0)


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
