"""Additional edge-case coverage for trace export and busy fractions."""

import json

from repro.obs.analysis import utilization_timeline
from repro.precision import Precision
from repro.runtime.gantt import ascii_gantt, to_chrome_trace
from repro.runtime.tracing import TraceEvent


def _ev(rank=0, engine="compute", kind="GEMM", t0=0.0, t1=1.0, prec=Precision.FP16):
    return TraceEvent(rank, engine, kind, t0, t1, prec, 0, 100.0)


class TestGanttEdges:
    def test_zero_length_trace(self):
        assert "zero-length" in ascii_gantt([_ev(t0=0.0, t1=0.0)], makespan=0.0)

    def test_unknown_kind_glyph(self):
        out = ascii_gantt([_ev(kind="MYSTERY")], width=10)
        assert "#" in out

    def test_longest_event_wins_cell(self):
        evs = [_ev(kind="GEMM", t0=0.0, t1=0.9), _ev(kind="TRSM", t0=0.9, t1=1.0)]
        out = ascii_gantt(evs, makespan=1.0, width=10)
        row = [l for l in out.splitlines() if "compute" in l][0]
        assert row.count("G") > row.count("T")

    def test_rows_sorted_by_rank_engine(self):
        evs = [_ev(rank=1, engine="h2d"), _ev(rank=0, engine="compute")]
        out = ascii_gantt(evs, makespan=1.0, width=10)
        lines = [l for l in out.splitlines() if l.startswith("r")]
        assert lines[0].startswith("r0") and lines[1].startswith("r1")

    def test_chrome_trace_empty(self):
        payload = json.loads(to_chrome_trace([]))
        assert payload["traceEvents"] == []

    def test_chrome_trace_no_precision(self):
        ev = TraceEvent(0, "nic", "SEND", 0.0, 1.0, None, 512)
        payload = json.loads(to_chrome_trace([ev]))
        assert payload["traceEvents"][0]["args"]["precision"] == ""
        assert payload["traceEvents"][0]["args"]["bytes"] == 512

    def test_utilisation_empty_makespan(self):
        assert utilization_timeline([_ev()], makespan=0.0) == {}

    def test_utilisation_clamped(self):
        evs = [_ev(t0=0.0, t1=2.0)]  # event longer than makespan
        util = utilization_timeline(evs, makespan=1.0, n_buckets=1)
        assert util["compute"] == [1.0]
