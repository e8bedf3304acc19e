"""Tests for the cross-run telemetry warehouse and the windowed sentinel."""

import sqlite3

import pytest

from repro.obs.regress import compare_against_window
from repro.obs.warehouse import WAREHOUSE_SCHEMA, Warehouse


def _summary(makespan=1.0, tflops=10.0, *, policy="panel-first", run_id=None,
             n=8192, nb=512, config="FP64/FP16"):
    return {
        "schema": "repro.obs.run_summary/1",
        "manifest": {
            "run_id": run_id,
            "command": "simulate",
            "policy": policy,
            "cache_schema": 4,
            "git_revision": "deadbeef",
            "config": {"n": n, "nb": nb, "config": config, "gpu": "V100"},
        },
        "stats": {
            "makespan_seconds": makespan,
            "tflops": tflops,
            "h2d_bytes": 1000,
            "nic_bytes": 0,
        },
        "metrics": {},
    }


def _bench():
    return {
        "schema": "repro.bench/1",
        "cache_schema": 4,
        "n_runs": 2,
        "n_failed": 0,
        "aggregates": {"best_tflops": 12.0, "total_sim_makespan_seconds": 0.5},
        "runs": [
            {
                "key": "k1",
                "cached": True,
                "failed": False,
                "attempts": 1,
                "spec": {"config": "FP64", "strategy": "auto", "n": 4096,
                         "nb": 512, "gpu": "V100"},
                "metrics": {"makespan_seconds": 0.2, "tflops": 11.0},
            },
            {
                "key": "k2",
                "cached": False,
                "failed": True,
                "attempts": 2,
                "spec": {"config": "FP32", "strategy": "auto", "n": 4096,
                         "nb": 512, "gpu": "V100"},
                "metrics": {},
            },
        ],
    }


def _profile_doc(rate=50_000.0):
    return {
        "schema": "repro.obs.profile/1",
        "interval_seconds": 0.005,
        "wall_seconds": 1.0,
        "n_samples": 200,
        "overhead_seconds": 0.01,
        "overhead_fraction": 0.01,
        "tasks_per_second": rate,
        "top_frames": [],
        "hot_regions": [{"name": "sim.ready_heap_loop", "calls": 1,
                         "seconds": 0.6, "fraction": 0.6}],
        "manifest": {"run_id": None, "command": "profile",
                     "policy": "critical-path",
                     "config": {"n": 8192, "nb": 512, "config": "FP64/FP16",
                                "gpu": "V100"}},
    }


@pytest.fixture
def wh(tmp_path):
    with Warehouse(tmp_path / "wh.db") as wh:
        yield wh


class TestIngest:
    def test_run_summary_columns(self, wh):
        res = wh.ingest(_summary(run_id="abc123"))
        assert res.kind == "run_summary"
        assert res.run_key == "abc123"
        assert res.n_metrics > 0 and res.n_points == 0
        (row,) = wh.runs()
        assert row.policy == "panel-first"
        assert (row.n, row.nb, row.nt) == (8192, 512, 16)
        assert row.config == "FP64/FP16"
        assert row.gpu == "V100"
        assert row.cache_schema == 4
        assert row.git_revision == "deadbeef"

    def test_content_key_is_stable_without_run_id(self, wh):
        doc = _summary()
        r1, r2 = wh.ingest(doc), wh.ingest(doc)
        assert r1.run_key == r2.run_key
        assert r1.seq != r2.seq

    def test_bench_points(self, wh):
        res = wh.ingest(_bench())
        assert res.kind == "bench"
        assert res.n_points == 2
        (row,) = wh.runs()
        assert row.cache_schema == 4  # top-level fallback for BENCH docs
        points = {p["key"]: p for p in wh.bench_points(res.seq)}
        assert points["k1"]["cached"] and not points["k1"]["failed"]
        assert points["k2"]["failed"] and points["k2"]["attempts"] == 2
        assert points["k1"]["label"] == "FP64/auto/4096/512/V100"

    def test_profile_scope(self, wh):
        res = wh.ingest(_profile_doc())
        assert res.kind == "profile"
        scopes = wh.metric_scopes(res.seq)
        assert scopes["profile"]["tasks_per_second"] == 50_000.0
        assert scopes["profile"]["region_seconds[sim.ready_heap_loop]"] == 0.6
        (row,) = wh.runs()
        assert row.policy == "critical-path"

    def test_bare_stats_doc(self, wh):
        res = wh.ingest({"makespan_seconds": 2.0, "tflops": 5.0})
        assert res.kind == "stats"

    def test_unknown_doc_rejected(self, wh):
        with pytest.raises(ValueError, match="cannot ingest"):
            wh.ingest({"schema": "something/else"})

    def test_ingest_file(self, wh, tmp_path):
        import json

        path = tmp_path / "run.json"
        path.write_text(json.dumps(_summary()), encoding="utf-8")
        res = wh.ingest_file(path)
        assert res.kind == "run_summary"
        (row,) = wh.runs()
        assert row.source == str(path)


class TestQueries:
    def test_filters(self, wh):
        wh.ingest(_summary(policy="panel-first", n=8192, nb=512))
        wh.ingest(_summary(policy="critical-path", n=8192, nb=512))
        wh.ingest(_summary(policy="panel-first", n=16384, nb=512,
                           config="FP64"))
        assert len(wh.runs()) == 3
        assert len(wh.runs(policy="panel-first")) == 2
        assert len(wh.runs(nt=32)) == 1
        assert len(wh.runs(config="FP64")) == 1
        assert len(wh.runs(kind="run_summary")) == 3
        assert len(wh.runs(policy="panel-first", nt=16)) == 1

    def test_limit_keeps_newest(self, wh):
        for makespan in (1.0, 2.0, 3.0):
            wh.ingest(_summary(makespan))
        rows = wh.runs(limit=2)
        assert [r.seq for r in rows] == [2, 3]

    def test_window_scopes_oldest_first(self, wh):
        for makespan in (1.0, 2.0, 3.0, 4.0):
            wh.ingest(_summary(makespan))
        window = wh.window_scopes(3)
        assert [s["run"]["makespan_seconds"] for s in window] == [2.0, 3.0, 4.0]
        with pytest.raises(ValueError):
            wh.window_scopes(0)

    def test_metric_history(self, wh):
        for makespan in (1.0, 1.5):
            wh.ingest(_summary(makespan, run_id=f"r{makespan}"))
        series = wh.metric_history("makespan_seconds")
        assert [(seq, value) for seq, _key, value in series] == [(1, 1.0), (2, 1.5)]
        assert wh.metric_history("makespan_seconds", policy="nope") == []

    def test_document_roundtrip(self, wh):
        doc = _summary(run_id="roundtrip")
        res = wh.ingest(doc)
        assert wh.document(res.seq)["manifest"]["run_id"] == "roundtrip"
        with pytest.raises(KeyError):
            wh.document(999)

    def test_counts(self, wh):
        wh.ingest(_summary())
        wh.ingest(_bench())
        counts = wh.counts()
        assert counts["runs"] == 2
        assert counts["bench_points"] == 2
        assert counts["metrics"] > 0


class TestRendering:
    def test_history_table(self, wh):
        wh.ingest(_summary(run_id="tbl1"))
        wh.ingest(_profile_doc())
        text = wh.history_table()
        assert "tbl1" in text
        assert "2 runs" in text
        assert "panel-first" in text

    def test_history_table_labels_throughput_metric(self, wh):
        # the throughput column mixes metrics per run kind; each row
        # must say which one it is showing (regression: tasks/sec rows
        # used to print under a column headed "tflops/rate")
        wh.ingest(_summary(run_id="tfl"))
        wh.ingest(_profile_doc())
        text = wh.history_table()
        assert "tflops/rate" not in text
        assert " tflops" in text
        assert "tasks/s" in text

    def test_history_table_empty(self, wh):
        assert "(no matching runs)" in wh.history_table()

    def test_history_json(self, wh):
        wh.ingest(_summary(run_id="js1"))
        doc = wh.history_json()
        assert doc["schema"] == WAREHOUSE_SCHEMA
        assert doc["counts"]["runs"] == 1
        (run,) = doc["runs"]
        assert run["run_key"] == "js1"
        assert run["metrics"]["run"]["makespan_seconds"] == 1.0


class TestSchemaGuard:
    def test_reopen_same_schema(self, tmp_path):
        path = tmp_path / "wh.db"
        Warehouse(path).close()
        with Warehouse(path) as wh:
            assert wh.counts()["runs"] == 0

    def test_reopen_mismatched_schema(self, tmp_path):
        path = tmp_path / "wh.db"
        Warehouse(path).close()
        db = sqlite3.connect(str(path))
        with db:
            db.execute("UPDATE meta SET value='repro.obs.warehouse/999'"
                       " WHERE key='schema'")
        db.close()
        with pytest.raises(ValueError, match="schema"):
            Warehouse(path)


class TestWindowedSentinel:
    """Acceptance: the trend sentinel over warehouse history."""

    def test_flat_history_passes(self, wh):
        for _ in range(5):
            wh.ingest(_summary(1.0, 10.0))
        report = compare_against_window(wh.window_scopes(5), _summary(1.0, 10.0))
        assert report.verdict == "ok"
        assert report.regressions == []
        assert report.drifts == []

    def test_twenty_percent_drift_is_flagged(self, wh):
        # 20 % synthetic makespan drift across a 5-run history
        for makespan in (1.00, 1.04, 1.08, 1.12, 1.16):
            wh.ingest(_summary(makespan))
        report = compare_against_window(wh.window_scopes(5), _summary(1.20))
        assert report.verdict == "regressed"
        drifting = {(t.scope, t.metric) for t in report.drifts}
        assert ("run", "makespan_seconds") in drifting
        (trend,) = [t for t in report.trends
                    if t.metric == "makespan_seconds" and t.drifting]
        assert trend.rel_drift == pytest.approx(0.20, abs=0.01)

    def test_slow_drift_missed_by_pairwise_gate(self, wh):
        # each 1.5 % step is under the 2 % pairwise threshold, but the
        # compounded trend over the window is not
        makespans = [1.0 * (1.015 ** k) for k in range(5)]
        for makespan in makespans:
            wh.ingest(_summary(makespan))
        candidate = _summary(makespans[-1] * 1.015)
        report = compare_against_window(wh.window_scopes(5), candidate)
        assert any(t.metric == "makespan_seconds" and t.drifting
                   for t in report.trends)

    def test_improving_trend_not_flagged(self, wh):
        for tflops in (10.0, 10.5, 11.0, 11.5, 12.0):
            wh.ingest(_summary(1.0, tflops))
        report = compare_against_window(wh.window_scopes(5), _summary(1.0, 12.5))
        assert not any(t.metric == "tflops" and t.drifting for t in report.trends)

    def test_empty_history_raises(self, wh):
        with pytest.raises(ValueError):
            compare_against_window(wh.window_scopes(5), _summary())

    def test_report_document_and_table(self, wh):
        for makespan in (1.0, 1.1, 1.2, 1.3, 1.4):
            wh.ingest(_summary(makespan))
        report = compare_against_window(wh.window_scopes(5), _summary(1.5))
        doc = report.to_dict()
        assert doc["schema"] == "repro.obs.regress/1"
        assert doc["verdict"] == "regressed"
        assert doc["window"] == 5
        text = report.table()
        assert "DRIFTING" in text
        assert "makespan_seconds" in text
