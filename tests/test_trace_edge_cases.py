"""Trace schema and exporter edge cases.

Empty traces, zero-duration events, and ``precision=None`` events must
survive every consumer of the :class:`TraceEvent` schema — summary,
Chrome/Perfetto export, ASCII Gantt, counters, and the analysis
layer — without crashing or mis-counting.
"""

import json

import pytest

from repro.obs import write_perfetto_trace
from repro.obs.analysis import build_ledger, critical_path, load_trace_events
from repro.precision import Precision
from repro.runtime.gantt import ascii_gantt, to_chrome_trace
from repro.runtime.tracing import Trace, TraceEvent


def _parse(events, ph="X", **kwargs):
    out = json.loads(to_chrome_trace(events, **kwargs))["traceEvents"]
    return [e for e in out if ph is None or e.get("ph") == ph]


class TestEmptyTrace:
    def test_summary(self):
        s = Trace().summary()
        assert s["n_events"] == 0
        assert s["n_ranks"] == 0
        assert s["makespan_seconds"] == 0.0
        assert s["busy_seconds_by_engine"] == {}

    def test_chrome_trace_is_valid_and_empty(self):
        assert _parse([], ph=None, counters=True) == []

    def test_ascii_gantt(self):
        assert ascii_gantt([]) == "(empty trace)"

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
        trace = Trace(events=[self._event()])
        s = trace.summary()
        assert s["n_events"] == 1
        assert s["busy_seconds_by_engine"]["compute"] == 0.0
        assert s["makespan_seconds"] == 0.5  # falls back to max t_end

    def test_chrome_trace_emits_zero_duration_slice(self):
        (sl,) = _parse([self._event()])
        assert sl["ph"] == "X" and sl["dur"] == 0.0

    def test_ascii_gantt_renders(self):
        chart = ascii_gantt([self._event(), TraceEvent(0, "compute", "GEMM", 0.0, 1.0)])
        assert "r0" in chart

    def test_zero_length_trace_gantt(self):
        assert ascii_gantt([self._event(t=0.0)]) == "(zero-length trace)"

    def test_perfetto_round_trip_preserves_times(self, tmp_path):
        path = write_perfetto_trace([self._event()], tmp_path / "t.json")
        (ev,) = load_trace_events(path)
        assert ev.t_start == ev.t_end == pytest.approx(0.5)
        assert ev.duration == 0.0

    def test_counters_handle_zero_duration_transfers(self):
        events = [TraceEvent(0, "h2d", "LOAD", 0.2, 0.2, bytes=64)]
        counters = _parse(events, ph="C", counters=True)
        inflight = [e["args"]["value"] for e in counters
                    if e["name"] == "h2d inflight bytes"]
        assert inflight[-1] == 0  # +64 and −64 both fire


class TestPrecisionNoneEvents:
    def _event(self):
        return TraceEvent(1, "nic", "SEND", 0.0, 0.25, precision=None, bytes=128)

    def test_summary(self):
        s = Trace(events=[self._event()]).summary()
        assert s["busy_seconds_by_engine"]["nic"] == 0.25
        assert s["events_by_kind"]["SEND"] == 1

    def test_chrome_trace_blank_precision(self):
        (sl,) = _parse([self._event()])
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

    def test_fp16_precision_is_not_dropped(self):
        # Precision.FP16 is falsy (IntEnum value 0): every consumer must
        # use `is not None`, not truthiness
        ev = TraceEvent(0, "h2d", "LOAD", 0.0, 0.1,
                        precision=Precision.FP16, bytes=64)
        (sl,) = _parse([ev])
        assert sl["args"]["precision"] == "FP16"
        assert build_ledger([ev]).bytes_by_link_precision() == {("h2d", "FP16"): 64}

    def test_convert_tags_with_fp16_endpoints(self, tmp_path):
        ev = TraceEvent(0, "compute", "CONVERT", 0.0, 0.1, site="stc",
                        src_precision=Precision.FP64, dst_precision=Precision.FP16)
        (sl,) = _parse([ev])
        assert sl["args"]["src_precision"] == "FP64"
        assert sl["args"]["dst_precision"] == "FP16"
        path = write_perfetto_trace([ev], tmp_path / "t.json")
        (back,) = load_trace_events(path)
        assert back.site == "stc"
        assert back.dst_precision is Precision.FP16
