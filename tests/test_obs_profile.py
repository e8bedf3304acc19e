"""Tests for the sampling wall-clock profiler."""

import json
import time

import pytest

from repro.obs import run_summary, write_json
from repro.obs.profile import SamplingProfiler, active_profiler


def _spin(seconds: float) -> int:
    """Burn wall time in a frame the sampler can attribute."""
    t0 = time.perf_counter()
    total = 0
    while time.perf_counter() - t0 < seconds:
        total += sum(range(200))
    return total


class TestActiveProfiler:
    def test_nested_profilers_restore_previous(self):
        outer = SamplingProfiler(0.05).start()
        try:
            inner = SamplingProfiler(0.05).start()
            assert active_profiler() is inner
            inner.stop()
            assert active_profiler() is outer
        finally:
            outer.stop()
        assert active_profiler() is None


class TestSamplingProfiler:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(0.0)

    def test_double_start_raises(self):
        prof = SamplingProfiler(0.05).start()
        try:
            with pytest.raises(RuntimeError):
                prof.start()
        finally:
            prof.stop()

    def test_collects_samples_and_top_frames(self):
        with SamplingProfiler(0.001) as prof:
            _spin(0.1)
        assert prof.n_samples > 0
        frames = prof.top_frames(10)
        assert 0 < len(frames) <= 10
        for f in frames:
            assert 0.0 <= f["self_fraction"] <= 1.0
            assert f["self_samples"] <= f["cum_samples"]
        # the spin loop should dominate the self samples
        assert any(f["function"] == "_spin" for f in frames)

    def test_overhead_is_measured_and_small(self):
        with SamplingProfiler(0.002) as prof:
            _spin(0.1)
        assert prof.overhead_seconds >= 0.0
        # the sampler only walks one short stack per tick; even a 2 ms
        # interval stays well under the 5 % acceptance bar
        assert prof.overhead_fraction < 0.05

    def test_report_is_the_profile_section(self, tmp_path):
        with SamplingProfiler(0.002) as prof:
            _spin(0.02)
        section = prof.report(top=5)
        assert "schema" not in section
        assert section["n_samples"] == prof.n_samples
        assert len(section["top_frames"]) <= 5
        path = write_json(tmp_path / "prof.json", run_summary(profile=section))
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["schema"] == "repro.obs.run_summary/1"
        assert loaded["profile"]["n_samples"] == prof.n_samples

    def test_render_includes_overhead(self):
        with SamplingProfiler(0.002) as prof:
            _spin(0.02)
        text = prof.render(top=3)
        assert "measured overhead" in text

    def test_render_with_zero_samples(self):
        prof = SamplingProfiler(10.0).start()
        prof.stop()
        assert "0 samples" in prof.render()
