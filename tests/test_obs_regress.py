"""The regression sentinel: metric diffing, thresholds, compare CLI."""

import json

import pytest

from repro.obs.regress import (
    DEFAULT_THRESHOLDS,
    Threshold,
    compare_docs,
    compare_files,
    load_metric_scopes,
    parse_threshold_args,
)


def _stats(**overrides) -> dict:
    doc = {
        "makespan_seconds": 1.0,
        "tflops": 20.0,
        "h2d_bytes": 1_000_000,
        "d2h_bytes": 500_000,
        "nic_bytes": 0,
        "n_conversions": 40,
        "conversion_seconds": 0.01,
        "n_evictions": 0,
        "plan_seconds": 0.3,  # noisy: never compared
    }
    doc.update(overrides)
    return doc


def _stats_doc(**overrides) -> dict:
    """The run summary ``--metrics-out`` writes, around ``_stats(**overrides)``."""
    return {"schema": "repro.obs.run_summary/1", "stats": _stats(**overrides)}


def _sweep_doc(makespan=1.0, tflops=20.0, failed=False) -> dict:
    """A one-point campaign's run summary, as ``sweep --metrics-out`` writes it."""
    return {
        "schema": "repro.obs.run_summary/1",
        "stats": {
            "best_tflops": 0.0 if failed else tflops,
            "makespan_seconds": 0.0 if failed else makespan,
            "total_plan_seconds": 0.2,
            "n_runs": 1,
            "n_failed": int(failed),
        },
        "runs": [
            {
                "key": "abc",
                "cached": False,
                "failed": failed,
                "attempts": 1,
                "spec": {"config": "FP64", "strategy": "auto", "n": 1024,
                         "nb": 256, "gpu": "V100"},
                "metrics": ({"failed": True, "error": "boom", "attempts": 1} if failed
                            else {"makespan_seconds": makespan, "tflops": tflops}),
            }
        ],
    }


class TestLoadScopes:
    def test_sweep_doc_scopes(self):
        scopes = load_metric_scopes(_sweep_doc())
        assert scopes["run"]["best_tflops"] == 20.0
        assert scopes["run"]["n_failed"] == 0
        assert "total_plan_seconds" not in scopes["run"]  # noisy
        label = "config=FP64,gpu=V100,n=1024,nb=256,strategy=auto"
        assert scopes[label]["makespan_seconds"] == 1.0

    def test_failed_runs_are_skipped(self):
        scopes = load_metric_scopes(_sweep_doc(failed=True))
        assert list(scopes) == ["run"]

    def test_run_summary_doc(self):
        scopes = load_metric_scopes(_stats_doc())
        assert scopes["run"]["makespan_seconds"] == 1.0
        assert "plan_seconds" not in scopes["run"]

    def test_bare_stats_doc(self):
        """A bare ``RunStats.to_dict()`` is not a document the sentinel reads."""
        with pytest.raises(ValueError, match="unsupported document"):
            load_metric_scopes(_stats())

    def test_unsupported_doc_raises(self):
        with pytest.raises(ValueError, match="unsupported document: expected "
                                             "repro.obs.run_summary/1, got 'x/1'"):
            load_metric_scopes({"schema": "x/1", "stats": _stats()})

    def test_summary_without_stats_or_runs_says_so(self):
        """A run summary of the right tag that holds nothing to compare
        is named as such, not as an unsupported document."""
        doc = {"schema": "repro.obs.run_summary/1", "manifest": {}, "metrics": {}}
        with pytest.raises(ValueError, match="neither a stats nor a runs section"):
            load_metric_scopes(doc)

    def test_runs_only_summary(self):
        """An ``mle`` summary has fits and no stats: one scope per fit, a
        bool read as 0/1."""
        doc = {"schema": "repro.obs.run_summary/1",
               "runs": [{"spec": {"label": "1e-04", "accuracy": 1e-4},
                         "metrics": {"loglik": -12.5, "n_evals": 30, "converged": True}}]}
        assert load_metric_scopes(doc) == {
            "accuracy=0.0001,label=1e-04": {"loglik": -12.5, "n_evals": 30.0, "converged": 1.0}}


class TestCompare:
    def test_identical_docs_have_zero_regressions(self):
        report = compare_docs(_stats_doc(), _stats_doc())
        assert report.verdict == "ok"
        assert report.n_regressions == 0
        assert report.improvements == []
        assert all(d.rel_delta == 0.0 for d in report.deltas)

    def test_makespan_increase_regresses(self):
        report = compare_docs(_stats_doc(), _stats_doc(makespan_seconds=1.05))
        assert report.verdict == "regressed"
        (delta,) = report.regressions
        assert delta.metric == "makespan_seconds"
        assert delta.rel_delta == pytest.approx(0.05)

    def test_makespan_decrease_improves_without_failing(self):
        report = compare_docs(_stats_doc(), _stats_doc(makespan_seconds=0.9))
        assert report.verdict == "ok"
        assert [d.metric for d in report.improvements] == ["makespan_seconds"]

    def test_tflops_drop_regresses_higher_is_better(self):
        report = compare_docs(_stats_doc(), _stats_doc(tflops=18.0))
        assert [d.metric for d in report.regressions] == ["tflops"]

    def test_within_threshold_is_ok(self):
        report = compare_docs(_stats_doc(), _stats_doc(makespan_seconds=1.01))
        assert report.verdict == "ok"

    def test_zero_tolerance_bytes_regress_on_any_increase(self):
        report = compare_docs(_stats_doc(), _stats_doc(h2d_bytes=1_000_001))
        assert [d.metric for d in report.regressions] == ["h2d_bytes"]
        report = compare_docs(_stats_doc(), _stats_doc(h2d_bytes=999_999))
        assert report.verdict == "ok"
        assert [d.metric for d in report.improvements] == ["h2d_bytes"]

    def test_out_of_core_traffic_gates(self):
        base = dict(disk_write_bytes=4_096, disk_read_bytes=0, n_spills=1, n_host_evictions=2)
        report = compare_docs(_stats_doc(**base), _stats_doc(**{**base, "disk_write_bytes": 8_192}))
        assert [d.metric for d in report.regressions] == ["disk_write_bytes"]

    def test_every_link_total_gates(self):
        from repro.runtime.tracing import LINKS

        for metric in [f"{link}_bytes" for link in LINKS] + ["n_spills", "n_host_evictions"]:
            assert DEFAULT_THRESHOLDS[metric] == Threshold(0.0, "lower")

    def test_joules_gate_like_makespan(self):
        base = _stats_doc(joules=1_000.0)
        assert compare_docs(base, _stats_doc(joules=1_015.0)).regressions == []
        report = compare_docs(base, _stats_doc(joules=1_030.0))
        assert [d.metric for d in report.regressions] == ["joules"]

    def test_zero_baseline_increase_is_infinite_regression(self):
        report = compare_docs(_stats_doc(), _stats_doc(nic_bytes=100))
        (delta,) = report.regressions
        assert delta.metric == "nic_bytes"
        assert delta.to_dict()["rel_delta"] is None  # inf sanitized for JSON

    def test_threshold_override_tolerates(self):
        report = compare_docs(
            _stats_doc(), _stats_doc(makespan_seconds=1.05),
            thresholds={**DEFAULT_THRESHOLDS,
                        "makespan_seconds": Threshold(0.10, "lower")},
        )
        assert report.verdict == "ok"

    def test_unthresholded_metrics_never_gate(self):
        report = compare_docs(_stats_doc(custom=1.0), _stats_doc(custom=99.0))
        assert "custom" not in {d.metric for d in report.deltas}

    def test_scope_drift_is_reported(self):
        base = _sweep_doc()
        cand = _sweep_doc()
        cand["runs"][0]["spec"]["n"] = 2048
        report = compare_docs(base, cand)
        assert report.missing_in_candidate == ["config=FP64,gpu=V100,n=1024,nb=256,strategy=auto"]
        assert report.added_in_candidate == ["config=FP64,gpu=V100,n=2048,nb=256,strategy=auto"]

    def test_sweep_points_differing_only_in_policy_are_separate_scopes(self, tmp_path):
        """A policy axis used to collapse into one scope holding whichever
        run came last, so ``compare`` silently diffed one point of three."""
        import copy

        from repro.sweep import SweepGrid, run_sweep

        from repro.obs import run_summary

        grid = SweepGrid.from_axes(n=1024, nb=256, config="FP64/FP16_32",
                                   policy=["panel-first", "fifo", "critical-path"])
        result = run_sweep(grid, cache_dir=tmp_path, progress_seconds=None)
        base = run_summary(stats=result.summary_stats(), runs=result.summary_runs())
        scopes = load_metric_scopes(base)
        runs = [s for s in scopes if s != "run"]
        assert len(runs) == 3
        (fifo,) = [s for s in runs if "policy=fifo" in s]

        cand = copy.deepcopy(base)
        for run in cand["runs"]:
            if run["spec"]["policy"] == "fifo":
                run["metrics"]["makespan_seconds"] *= 1.05
        report = compare_docs(base, cand)
        assert [(d.scope, d.metric) for d in report.regressions] == [
            (fifo, "makespan_seconds")]

    def test_table_renders_verdict(self):
        report = compare_docs(_stats_doc(), _stats_doc(makespan_seconds=2.0))
        text = report.table()
        assert "verdict REGRESSED" in text and "makespan_seconds" in text
        ok = compare_docs(_stats_doc(), _stats_doc())
        assert "verdict OK" in ok.table()

    def test_to_dict_is_the_regress_section(self):
        doc = compare_docs(_stats_doc(), _stats_doc(tflops=10.0)).to_dict()
        assert "schema" not in doc  # the report-out run summary carries the tag
        assert doc["verdict"] == "regressed"
        assert doc["n_regressions"] == 1
        json.dumps(doc)  # strictly serialisable


class TestThresholdParsing:
    def test_defaults_pass_through(self):
        assert parse_threshold_args(None) == DEFAULT_THRESHOLDS

    def test_override_and_new_metric(self):
        thresholds = parse_threshold_args(
            ["makespan_seconds=0.5", "my_metric=0.1:higher"]
        )
        assert thresholds["makespan_seconds"] == Threshold(0.5, "lower")
        assert thresholds["my_metric"] == Threshold(0.1, "higher")

    def test_spaces_keep_the_default_direction(self):
        """A padded metric name still finds its default direction: a
        ``tflops`` drop must stay a regression, not turn into a gain."""
        for spec in ("tflops =0.10", "tflops=0.10: higher"):
            assert parse_threshold_args([spec])["tflops"] == Threshold(0.1, "higher")

    def test_bad_spec_raises(self):
        with pytest.raises(ValueError, match="METRIC=REL"):
            parse_threshold_args(["nonsense"])
        with pytest.raises(ValueError, match="direction"):
            parse_threshold_args(["m=0.1:sideways"])
        with pytest.raises(ValueError, match="non-negative"):
            parse_threshold_args(["m=-0.1"])


class TestCompareFilesAndCLI:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_compare_files(self, tmp_path):
        base = self._write(tmp_path / "base.json", _stats_doc())
        cand = self._write(tmp_path / "cand.json", _stats_doc(makespan_seconds=2.0))
        report = compare_files(base, cand)
        assert report.verdict == "regressed"
        assert report.baseline == base and report.candidate == cand

    def test_cli_identical_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        base = self._write(tmp_path / "base.json", _stats_doc())
        cand = self._write(tmp_path / "cand.json", _stats_doc())
        rc = main(["compare", base, cand, "--fail-on-regress"])
        assert rc == 0
        assert "verdict OK" in capsys.readouterr().out

    def test_cli_regression_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        base = self._write(tmp_path / "base.json", _stats_doc())
        cand = self._write(tmp_path / "cand.json", _stats_doc(makespan_seconds=2.0))
        report_out = tmp_path / "verdict.json"
        rc = main(["compare", base, cand, "--fail-on-regress",
                   "--report-out", str(report_out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "regression(s) beyond threshold" in captured.err
        doc = json.loads(report_out.read_text())
        assert doc["schema"] == "repro.obs.run_summary/1"
        assert doc["manifest"]["command"] == "compare"
        assert doc["regress"]["verdict"] == "regressed"
        assert doc["stats"] == {"n_compared": doc["regress"]["n_compared"],
                                "n_regressions": 1, "n_improvements": 0}

    def test_cli_regression_without_gate_exits_zero(self, tmp_path):
        from repro.cli import main

        base = self._write(tmp_path / "base.json", _stats_doc())
        cand = self._write(tmp_path / "cand.json", _stats_doc(makespan_seconds=2.0))
        assert main(["compare", base, cand]) == 0

    def test_cli_threshold_override(self, tmp_path):
        from repro.cli import main

        base = self._write(tmp_path / "base.json", _stats_doc())
        cand = self._write(tmp_path / "cand.json", _stats_doc(makespan_seconds=1.05))
        assert main(["compare", base, cand, "--fail-on-regress"]) == 1
        assert main(["compare", base, cand, "--fail-on-regress",
                     "--threshold", "makespan_seconds=0.10"]) == 0

    def test_cli_missing_file_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        base = self._write(tmp_path / "base.json", _stats_doc())
        rc = main(["compare", base, str(tmp_path / "nope.json")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_cli_multiple_candidates(self, tmp_path, capsys):
        """``compare`` judges one candidate; a second is a usage error."""
        from repro.cli import main

        base = self._write(tmp_path / "base.json", _stats_doc())
        cand = self._write(tmp_path / "cand.json", _stats_doc())
        with pytest.raises(SystemExit) as exc:
            main(["compare", base, cand, cand])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSweepSummaryStats:
    def test_summary_stats_feed_the_sentinel(self):
        from repro.obs import run_summary
        from repro.sweep.engine import SweepResult, SweepRun
        from repro.sweep.grid import RunSpec

        spec = RunSpec(n=1024, nb=256)
        run = SweepRun(spec=spec, key=spec.cache_key(), cached=False,
                       result={"makespan_seconds": 1.0, "tflops": 5.0,
                               "h2d_bytes": 10, "d2h_bytes": 4, "nic_bytes": 0,
                               "n_conversions": 2, "n_tasks": 3})
        result = SweepResult(name="t", runs=[run])
        stats = result.summary_stats()
        assert stats["makespan_seconds"] == 1.0
        assert stats["total_h2d_bytes"] == 10
        assert stats["n_runs"] == 1 and stats["n_failed"] == 0
        # two identical campaigns diff clean through the sentinel, as the
        # run summary ``sweep --metrics-out`` writes
        doc = run_summary(stats=stats, runs=result.summary_runs())
        report = compare_docs(doc, doc)
        assert report.verdict == "ok"
        label = ",".join(f"{k}={v}" for k, v in sorted(spec.to_dict().items()))
        assert {d.scope for d in report.deltas} == {"run", label}

    def test_cold_and_warm_campaigns_compare_point_by_point(self, tmp_path, capsys):
        """``sweep --metrics-out`` run cold then warm: ``compare`` reads both
        summaries point by point and finds nothing to flag."""
        from repro.cli import main

        argv = ["sweep", "--n", "1024", "--nb", "256", "--config", "FP64",
                "--config", "FP64/FP16_32", "--cache-dir", str(tmp_path / "cache"),
                "--progress-every", "-1"]
        assert main([*argv, "--metrics-out", str(tmp_path / "cold.json")]) == 0
        assert main([*argv, "--metrics-out", str(tmp_path / "warm.json")]) == 0
        assert "cache: 2/2 hits (100.0%)" in capsys.readouterr().out
        report_out = tmp_path / "verdict.json"
        assert main(["compare", str(tmp_path / "cold.json"), str(tmp_path / "warm.json"),
                     "--fail-on-regress", "--all-metrics",
                     "--report-out", str(report_out)]) == 0
        assert "verdict OK" in capsys.readouterr().out
        report = json.loads(report_out.read_text())["regress"]
        scopes = {d["scope"] for d in report["deltas"]}
        points = sorted(s for s in scopes if s != "run")
        assert "run" in scopes and len(points) == 2
        assert "config=FP64," in points[0] and "config=FP64/FP16_32," in points[1]
        assert {d["metric"] for d in report["deltas"] if d["scope"] in points} >= {
            "makespan_seconds", "tflops", "h2d_bytes"}
        assert report["missing_in_candidate"] == report["added_in_candidate"] == []
