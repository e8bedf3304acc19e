"""CLI coverage for the observability verbs added with the warehouse:
``history``, ``merge-shards``, ``compare --against-history``,
``report --format prom`` and the ``--profile-out`` flags."""

import json

from repro.cli import main


def _summary(makespan=1.0, tflops=10.0, policy="panel-first"):
    return {
        "schema": "repro.obs.run_summary/1",
        "manifest": {
            "run_id": None,
            "command": "simulate",
            "policy": policy,
            "cache_schema": 4,
            "config": {"n": 8192, "nb": 512, "config": "FP64/FP16",
                       "gpu": "V100"},
        },
        "stats": {"makespan_seconds": makespan, "tflops": tflops},
        "metrics": {},
    }


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestProfileVerb:
    """``--profile-out`` on ``simulate`` and ``sweep``: the hottest-frames
    table on stdout plus the ``repro.obs.profile/1`` document."""

    def test_profile_prints_frames_and_rate(self, tmp_path, capsys):
        assert main(["simulate", "--n", str(8 * 256), "--nb", "256",
                     "--profile-out", str(tmp_path / "prof.json")]) == 0
        out = capsys.readouterr().out
        assert "tasks/s" in out
        assert "measured overhead" in out
        assert "n=2048, nb=256" in out

    def test_profile_out_document(self, tmp_path, capsys):
        out_path = tmp_path / "prof.json"
        assert main(["simulate", "--n", str(8 * 256), "--nb", "256",
                     "--policy", "critical-path",
                     "--profile-out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.obs.profile/1"
        assert doc["tasks_per_second"] > 0
        assert doc["manifest"]["policy"] == "critical-path"
        assert doc["manifest"]["config"]["n"] == 8 * 256

    def test_simulate_profile_out(self, tmp_path, capsys):
        out_path = tmp_path / "prof.json"
        assert main(["simulate", "--n", "4096", "--nb", "1024",
                     "--profile-out", str(out_path)]) == 0
        assert "profile →" in capsys.readouterr().out
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.obs.profile/1"
        assert doc["manifest"]["command"] == "simulate"

    def test_sweep_profile_out(self, tmp_path, capsys):
        out_path = tmp_path / "prof.json"
        assert main(["sweep", "--n", "2048", "--nb", "512",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--profile-out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.obs.profile/1"
        assert doc["manifest"]["command"] == "sweep"
        # the campaign's planned tasks over the profiled wall time
        assert doc["tasks_per_second"] > 0


class TestHistoryVerb:
    def test_ingest_and_list(self, tmp_path, capsys):
        db = str(tmp_path / "wh.db")
        runs = [_write(tmp_path / f"run{i}.json", _summary(1.0 + i * 0.1))
                for i in range(3)]
        args = ["history", db]
        for r in runs:
            args += ["--ingest", r]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        assert "3 runs" in out
        assert "panel-first" in out

    def test_filters_and_json_out(self, tmp_path, capsys):
        db = str(tmp_path / "wh.db")
        a = _write(tmp_path / "a.json", _summary(policy="panel-first"))
        b = _write(tmp_path / "b.json", _summary(policy="critical-path"))
        assert main(["history", db, "--ingest", a, "--ingest", b]) == 0
        capsys.readouterr()
        json_out = tmp_path / "hist.json"
        assert main(["history", db, "--policy", "critical-path",
                     "--json-out", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "(1 shown)" in out
        doc = json.loads(json_out.read_text(encoding="utf-8"))
        assert len(doc["runs"]) == 1
        assert doc["runs"][0]["policy"] == "critical-path"
        assert doc["counts"]["runs"] == 2

    def test_missing_ingest_file(self, tmp_path, capsys):
        assert main(["history", str(tmp_path / "wh.db"),
                     "--ingest", str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestCompareAgainstHistory:
    def _seed(self, tmp_path, makespans):
        db = str(tmp_path / "wh.db")
        args = ["history", db]
        for i, makespan in enumerate(makespans):
            args += ["--ingest",
                     _write(tmp_path / f"h{i}.json", _summary(makespan))]
        assert main(args) == 0
        return db

    def test_flat_history_passes(self, tmp_path, capsys):
        db = self._seed(tmp_path, [1.0] * 5)
        candidate = _write(tmp_path / "cand.json", _summary(1.0))
        assert main(["compare", candidate, "--against-history", db,
                     "--window", "5", "--fail-on-regress"]) == 0
        assert "verdict OK" in capsys.readouterr().out

    def test_drift_fails_gate(self, tmp_path, capsys):
        db = self._seed(tmp_path, [1.00, 1.04, 1.08, 1.12, 1.16])
        candidate = _write(tmp_path / "cand.json", _summary(1.20))
        report_out = tmp_path / "verdict.json"
        assert main(["compare", candidate, "--against-history", db,
                     "--window", "5", "--fail-on-regress",
                     "--report-out", str(report_out)]) == 1
        captured = capsys.readouterr()
        assert "DRIFTING" in captured.out
        doc = json.loads(report_out.read_text(encoding="utf-8"))
        assert doc["verdict"] == "regressed"

    def test_rejects_extra_candidates(self, tmp_path, capsys):
        db = self._seed(tmp_path, [1.0] * 2)
        c1 = _write(tmp_path / "c1.json", _summary())
        c2 = _write(tmp_path / "c2.json", _summary())
        assert main(["compare", c1, c2, "--against-history", db]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_compare_without_candidates_errors(self, tmp_path, capsys):
        doc = _write(tmp_path / "base.json", _summary())
        assert main(["compare", doc]) == 2
        assert "at least one candidate" in capsys.readouterr().err


class TestReportProm:
    def test_prom_exposition(self, tmp_path, capsys):
        metrics_doc = {
            "schema": "repro.obs.run_summary/1",
            "metrics": {
                "sim_bytes_moved": {
                    "name": "sim_bytes_moved", "type": "counter",
                    "help": "bytes moved per link",
                    "series": [{"labels": {"link": "h2d", "precision": "FP64"},
                                "value": 1024}],
                },
                "sim_task_seconds": {
                    "name": "sim_task_seconds", "type": "timer", "help": "",
                    "series": [{"labels": {},
                                "value": {"count": 4, "sum": 0.4, "p50": 0.1,
                                          "p90": 0.15, "p99": 0.2}}],
                },
            },
        }
        path = _write(tmp_path / "metrics.json", metrics_doc)
        assert main(["report", "--metrics", path, "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert 'sim_bytes_moved_total{link="h2d",precision="FP64"} 1024' in out
        assert "# TYPE sim_task_seconds summary" in out
        assert 'sim_task_seconds{quantile="0.5"} 0.1' in out
        assert "sim_task_seconds_count 4" in out

    def test_prom_needs_metrics(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text("", encoding="utf-8")
        assert main(["report", "--events", str(events),
                     "--format", "prom"]) == 2
        assert "--format prom needs --metrics" in capsys.readouterr().err


class TestMergeShardsVerb:
    def test_missing_dir(self, tmp_path, capsys):
        assert main(["merge-shards", str(tmp_path)]) == 2
        assert "shard-manifest" in capsys.readouterr().err

    def test_merge_and_default_out(self, tmp_path, capsys):
        from repro.obs.merge import SHARDS_SCHEMA

        (tmp_path / "shard-manifest.json").write_text(json.dumps({
            "schema": SHARDS_SCHEMA, "wall_time": 10.0, "n_ranks": 1,
            "policy": "panel-first", "run_id": "cli-merge"}), encoding="utf-8")
        records = [
            {"run_id": "cli-merge", "seq": 0, "ts": 0.0, "type": "shard.open",
             "attrs": {"rank": 0, "wall_time": 10.25, "pid": 1,
                       "policy": "panel-first"}},
            {"run_id": "cli-merge", "seq": 1, "ts": 0.2, "type": "rank.task",
             "attrs": {"tid": "POTRF:0", "kind": "POTRF", "precision": "FP64",
                       "flops": 1e9, "t_start": 0.1, "t_end": 0.2}},
        ]
        with open(tmp_path / "events-rank0.jsonl", "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        assert main(["merge-shards", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "merged 1 shard(s)" in out
        assert (tmp_path / "merged" / "trace.json").is_file()
        assert (tmp_path / "merged" / "summary.json").is_file()
