"""Trace schema and exporter edge cases.

Empty traces, zero-duration events, and ``precision=None`` events must
survive every consumer of the :class:`TraceEvent` schema — Perfetto
export, its counters, the per-engine busy account (``engine_slack``) and
the rest of the analysis layer — without crashing or mis-counting.
"""

import json

import pytest

from repro.obs import load_trace_events, write_perfetto_trace
from repro.obs.analysis import build_ledger, critical_path, engine_slack
from repro.precision import Precision
from repro.runtime.tracing import TraceEvent


@pytest.fixture
def parse(tmp_path):
    """Write ``events`` as a Perfetto trace and return its records of
    phase ``ph`` (every record when ``ph`` is None)."""
    def _parse(events, ph="X"):
        path = write_perfetto_trace(events, tmp_path / "parse.json")
        out = json.loads(path.read_text())["traceEvents"]
        return [e for e in out if ph is None or e.get("ph") == ph]
    return _parse


class TestEmptyTrace:
    def test_summary(self):
        assert engine_slack([]) == {}

    def test_chrome_trace_is_valid_and_empty(self, parse):
        assert parse([], ph=None) == []

    def test_perfetto_write_and_load_round_trip(self, tmp_path):
        path = write_perfetto_trace([], tmp_path / "empty.json")
        assert load_trace_events(path) == []

    def test_analysis_layers_accept_empty(self):
        assert build_ledger([]).rows == []
        assert critical_path([]).n_events == 0


class TestZeroDurationEvents:
    def _event(self, t=0.5):
        return TraceEvent(0, "compute", "POTRF", t, t,
                          precision=Precision.FP64, flops=10.0)

    def test_summary_counts_event_with_zero_busy_time(self):
        # no busy time: the whole makespan, which falls back to the max
        # t_end, is slack
        assert engine_slack([self._event()]) == {(0, "compute"): 0.5}

    def test_chrome_trace_emits_zero_duration_slice(self, parse):
        (sl,) = parse([self._event()])
        assert sl["ph"] == "X" and sl["dur"] == 0.0

    def test_perfetto_round_trip_preserves_times(self, tmp_path):
        path = write_perfetto_trace([self._event()], tmp_path / "t.json")
        (ev,) = load_trace_events(path)
        assert ev.t_start == ev.t_end == pytest.approx(0.5)
        assert ev.duration == 0.0

    def test_counters_handle_zero_duration_transfers(self, parse):
        events = [TraceEvent(0, "h2d", "LOAD", 0.2, 0.2, bytes=64)]
        counters = parse(events, ph="C")
        inflight = [e["args"]["value"] for e in counters
                    if e["name"] == "h2d inflight bytes"]
        assert inflight[-1] == 0  # +64 and −64 both fire


class TestPrecisionNoneEvents:
    def _event(self):
        return TraceEvent(1, "nic", "SEND", 0.0, 0.25, precision=None, bytes=128)

    def test_summary(self):
        assert engine_slack([self._event()], makespan=1.0) == {(1, "nic"): 0.75}

    def test_chrome_trace_blank_precision(self, parse):
        (sl,) = parse([self._event()])
        assert sl["args"]["precision"] == ""

    def test_perfetto_round_trip_keeps_none(self, tmp_path):
        path = write_perfetto_trace([self._event()], tmp_path / "t.json")
        (ev,) = load_trace_events(path)
        assert ev.precision is None and ev.bytes == 128

    def test_ledger_buckets_untyped_bytes(self):
        ledger = build_ledger([self._event()])
        assert ledger.bytes_by_link_precision() == {("nic", "?"): 128}
        # untyped bytes save nothing vs FP64 (width unknown)
        assert ledger.total_saved_bytes == 0

    def test_fp16_precision_is_not_dropped(self, parse):
        # Precision.FP16 is falsy (IntEnum value 0): every consumer must
        # use `is not None`, not truthiness
        ev = TraceEvent(0, "h2d", "LOAD", 0.0, 0.1,
                        precision=Precision.FP16, bytes=64)
        (sl,) = parse([ev])
        assert sl["args"]["precision"] == "FP16"
        assert build_ledger([ev]).bytes_by_link_precision() == {("h2d", "FP16"): 64}

    def test_convert_tags_with_fp16_endpoints(self, parse, tmp_path):
        ev = TraceEvent(0, "compute", "CONVERT", 0.0, 0.1, site="stc",
                        src_precision=Precision.FP64, dst_precision=Precision.FP16)
        (sl,) = parse([ev])
        assert sl["args"]["src_precision"] == "FP64"
        assert sl["args"]["dst_precision"] == "FP16"
        path = write_perfetto_trace([ev], tmp_path / "t.json")
        (back,) = load_trace_events(path)
        assert back.site == "stc"
        assert back.dst_precision is Precision.FP16
