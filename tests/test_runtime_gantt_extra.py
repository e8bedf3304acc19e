"""Additional edge-case coverage for trace export and busy fractions."""

import json

import pytest

from repro.obs import write_perfetto_trace
from repro.obs.analysis import utilization_timeline
from repro.precision import Precision
from repro.runtime.tracing import TraceEvent


def _ev(rank=0, engine="compute", kind="GEMM", t0=0.0, t1=1.0, prec=Precision.FP16):
    return TraceEvent(rank, engine, kind, t0, t1, prec, 0, 100.0)


class TestGanttEdges:
    def test_zero_length_trace(self):
        # the makespan falls back to the last t_end: 0, so no windows
        assert utilization_timeline([_ev(t0=0.0, t1=0.0)]) == {}

    def test_rows_sorted_by_rank_engine(self, tmp_path):
        evs = [_ev(rank=1, engine="h2d"), _ev(rank=0, engine="h2d"),
               _ev(rank=0, engine="compute")]
        payload = json.loads(write_perfetto_trace(evs, tmp_path / "t.json").read_text())
        rows = [(e["pid"], e["args"]["name"]) for e in payload["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name"]
        assert rows == [(0, "compute"), (0, "h2d"), (1, "h2d")]

    def test_chrome_trace_empty(self, tmp_path):
        payload = json.loads(write_perfetto_trace([], tmp_path / "t.json").read_text())
        assert payload["traceEvents"] == []

    def test_chrome_trace_no_precision(self, tmp_path):
        ev = TraceEvent(0, "nic", "SEND", 0.0, 1.0, None, 512)
        payload = json.loads(write_perfetto_trace([ev], tmp_path / "t.json").read_text())
        assert payload["traceEvents"][0]["args"]["precision"] == ""
        assert payload["traceEvents"][0]["args"]["bytes"] == 512

    def test_utilisation_empty_makespan(self):
        assert utilization_timeline([_ev()], makespan=0.0) == {}

    def test_utilisation_clamped(self):
        evs = [_ev(t0=0.0, t1=2.0)]  # event longer than makespan
        util = utilization_timeline(evs, makespan=1.0, n_buckets=1)
        assert util["compute"] == [1.0]

    @pytest.mark.parametrize("n_buckets", [0, -3])
    def test_utilisation_rejects_non_positive_buckets(self, n_buckets):
        with pytest.raises(ValueError, match="n_buckets must be positive"):
            utilization_timeline([_ev()], n_buckets=n_buckets)
