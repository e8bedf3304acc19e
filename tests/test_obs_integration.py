"""End-to-end telemetry: instrumented hot paths, CLI capture, report."""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.geostats import SyntheticField, fit_mle
from repro.geostats.optimizer import maximize_bounded, nelder_mead_bounded


@pytest.fixture(autouse=True)
def clean_state():
    assert obs.get_event_log() is None
    yield
    obs.set_event_log(None)
    obs.reset_metrics()


class TestSimulatorMetrics:
    def test_live_metrics_populated(self, tmp_path):
        from repro.core import two_precision_map
        from repro.core.solver import simulate_cholesky
        from repro.perfmodel.gpus import V100
        from repro.precision import Precision
        from repro.runtime import Platform

        obs.reset_metrics()
        with obs.event_log(tmp_path / "run.jsonl"):
            rep = simulate_cholesky(8 * 512, 512, two_precision_map(8, Precision.FP16),
                                    Platform.single_gpu(V100))
        reg = obs.get_registry()
        assert reg.counter("sim.conversions").value() == rep.stats.n_conversions
        spans = [e["span"] for e in obs.read_events(tmp_path / "run.jsonl")
                 if e["type"] == "span"]
        assert spans.count("sim.run") == 1

    def test_counters_tick_per_beat_stride_and_match_stats(self, monkeypatch):
        """``sim.evictions`` / ``sim.conversions`` move every
        ``BEAT_STRIDE`` executed tasks — a live plane sees them rise
        mid-run — and land on the ``RunStats`` totals at the finish."""
        from dataclasses import replace

        from repro.core import two_precision_map
        from repro.core.solver import simulate_cholesky
        from repro.obs.live import BEAT_STRIDE, live_plane
        from repro.perfmodel.gpus import V100
        from repro.precision import Precision
        from repro.runtime import Platform

        nt, nb = 16, 128
        platform = Platform.of_gpus(replace(V100, memory_bytes=12 * nb * nb * 8),
                                    host_memory=32 * nb * nb * 8)
        obs.reset_metrics()
        reg = obs.get_registry()
        seen = []
        with live_plane(interval=30.0) as plane:
            begin = plane.progress.begin

            def spying_begin(total, phase):
                beat = begin(total, phase)

                def spy(done, live):
                    seen.append((done, reg.counter("sim.evictions").value(),
                                 reg.counter("sim.conversions").value()))
                    beat(done, live)

                return spy

            monkeypatch.setattr(plane.progress, "begin", spying_begin)
            rep = simulate_cholesky(nt * nb, nb, two_precision_map(nt, Precision.FP16_32),
                                    platform, record_events=False)
        assert rep.stats.n_tasks > 2 * BEAT_STRIDE
        assert [done for done, _, _ in seen] == list(
            range(BEAT_STRIDE, rep.stats.n_tasks + 1, BEAT_STRIDE))
        # before run_finished: already non-zero, not yet the total
        assert 0 < seen[0][1] < rep.stats.n_evictions
        assert 0 < seen[0][2] < rep.stats.n_conversions
        assert reg.counter("sim.evictions").value() == rep.stats.n_evictions
        assert reg.counter("sim.conversions").value() == rep.stats.n_conversions


class TestExecutorSpans:
    def test_sequential_executor_emits_task_spans(self, tmp_path, tiled_96):
        from repro.core import MPCholeskySolver, MPConfig

        solver = MPCholeskySolver(MPConfig(accuracy=1e-6, tile_size=16))
        with obs.event_log(tmp_path / "run.jsonl"):
            solver.factorize_via_runtime(tiled_96)
        events = obs.read_events(tmp_path / "run.jsonl")
        tasks = [e for e in events if e["type"] == "span" and e["span"].endswith("/task")]
        assert tasks, "expected per-task spans"
        kinds = {e["attrs"]["kind"] for e in tasks}
        assert {"POTRF", "TRSM", "SYRK", "GEMM"} <= kinds
        assert all(e["span"].startswith("executor.sequential/") for e in tasks)

    def test_parallel_executor_emits_task_spans(self, tmp_path, tiled_96):
        from repro.core import MPCholeskySolver, MPConfig
        from repro.runtime.parallel_executor import execute_numeric_parallel

        solver = MPCholeskySolver(MPConfig(accuracy=1e-6, tile_size=16))
        plan = solver.plan(tiled_96)
        dag = solver._dag(tiled_96.n, tiled_96.nb, plan, None)
        with obs.event_log(tmp_path / "run.jsonl"):
            execute_numeric_parallel(dag.graph, tiled_96, n_threads=2)
        events = obs.read_events(tmp_path / "run.jsonl")
        task_spans = [e for e in events if e["type"] == "span" and e["span"] == "task"]
        outer = [e for e in events if e["type"] == "span"
                 and e["span"] == "executor.parallel"]
        assert task_spans and outer
        assert task_spans[0]["attrs"]["duration_seconds"] >= 0.0


class TestOptimizerCallback:
    def test_on_iteration_called_each_iteration(self):
        seen = []

        def quad(x):
            return float((x[0] - 0.5) ** 2)

        res = nelder_mead_bounded(
            quad, [0.1], [(0.0, 1.0)], max_evals=60,
            on_iteration=lambda k, x, fx: seen.append((k, x.copy(), fx)),
        )
        assert len(seen) == res.n_iters
        assert [k for k, _x, _f in seen] == list(range(1, res.n_iters + 1))
        # best-so-far objective values are non-increasing
        fs = [f for _k, _x, f in seen]
        assert all(b <= a + 1e-15 for a, b in zip(fs, fs[1:]))

    def test_default_none_keeps_existing_behaviour(self):
        def quad(x):
            return float((x[0] - 0.5) ** 2)

        a = nelder_mead_bounded(quad, [0.1], [(0.0, 1.0)], max_evals=60)
        b = nelder_mead_bounded(quad, [0.1], [(0.0, 1.0)], max_evals=60,
                                on_iteration=lambda *args: None)
        assert a.n_evals == b.n_evals
        assert a.fun == b.fun

    def test_maximize_flips_sign_for_callback(self):
        seen = []
        maximize_bounded(
            lambda x: -float((x[0] - 0.5) ** 2), [0.1], [(0.0, 1.0)], max_evals=40,
            on_iteration=lambda k, x, fx: seen.append(fx),
        )
        # callback sees the maximisation objective (≤ 0, approaching 0)
        assert all(f <= 1e-12 for f in seen)
        assert seen[-1] >= seen[0]


class TestMLEEvents:
    def test_fit_emits_per_iteration_jsonl(self, tmp_path):
        field = SyntheticField.matern_2d(n=64, variance=1.0, range_=0.1,
                                         smoothness=0.5, seed=3)
        ds = field.sample()
        with obs.event_log(tmp_path / "mle.jsonl", run_id="mle-test"):
            res = fit_mle(ds, accuracy=1e-4, max_evals=40, xtol=1e-5, restarts=0)
        events = obs.read_events(tmp_path / "mle.jsonl")
        iters = [e for e in events if e["type"] == "mle.iteration"]
        assert iters, "expected mle.iteration events"
        ks = [e["attrs"]["k"] for e in iters]
        assert ks == list(range(1, len(ks) + 1))
        last = iters[-1]["attrs"]
        assert len(last["theta"]) == 3
        assert last["n_evals"] > 0
        assert last["eval_seconds"] > 0.0
        assert all(e["span"] == "mle.fit" for e in iters)
        # the fit span closes with the result attached
        fit_spans = [e for e in events if e["type"] == "span" and e["span"] == "mle.fit"]
        assert fit_spans and fit_spans[-1]["attrs"]["loglik"] == pytest.approx(res.loglik)
        # planning decision logs rode along
        assert any(e["type"] == "precision_map.built" for e in events)
        assert any(e["type"] == "comm_map.built" for e in events)

    def test_likelihood_layers_are_spans_analyze_reads(self, tmp_path, capsys):
        """The layers come from the real call path: one
        ``geostats.log_likelihood`` span per evaluation the fit counts,
        each layer under it, and self times that add up to the roots."""
        field = SyntheticField.matern_2d(n=64, variance=1.0, range_=0.1,
                                         smoothness=0.5, seed=3)
        with obs.event_log(tmp_path / "events.jsonl"):
            res = fit_mle(field.sample(), accuracy=1e-4, tile_size=16, max_evals=30,
                          restarts=0)
        spans = [e for e in obs.read_events(tmp_path / "events.jsonl") if e["type"] == "span"]
        evals = "mle.fit/geostats.log_likelihood"
        assert sum(e["span"] == evals for e in spans) == res.n_evals
        inner = {e["span"].rpartition("/")[2] for e in spans
                 if e["span"].rpartition("/")[0] == evals}
        assert inner == {"geostats.cov_build", "tiles.tile_norms", "core.plan",
                         "core.mp_cholesky", "core.solve"}

        out_json = tmp_path / "analysis.json"
        assert main(["analyze", str(tmp_path), "--json-out", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "time by layer" in out and "core.mp_cholesky" in out
        layers = json.loads(out_json.read_text())["layers"]
        assert layers["geostats.log_likelihood"]["calls"] == res.n_evals
        roots = sum(e["attrs"]["duration_seconds"] for e in spans if "/" not in e["span"])
        self_total = sum(row["self_seconds"] for row in layers.values())
        assert self_total == pytest.approx(roots, rel=1e-9)

    def test_precision_decision_log_contents(self, tmp_path):
        from repro.core import build_precision_map

        norms = np.array([[10.0, 1e-7, 1e-9],
                          [1e-7, 10.0, 1e-7],
                          [1e-9, 1e-7, 10.0]])
        with obs.event_log(tmp_path / "plan.jsonl"):
            build_precision_map(norms, 1e-4)
        events = obs.read_events(tmp_path / "plan.jsonl")
        built = [e for e in events if e["type"] == "precision_map.built"]
        assert len(built) == 1
        attrs = built[0]["attrs"]
        assert attrs["nt"] == 3
        assert attrs["accuracy"] == 1e-4
        assert "FP64" in attrs["fractions"]
        tiles = {tuple(t["tile"]): t for t in attrs["tiles"]}
        assert tiles[(0, 0)]["kernel"] == "FP64"
        assert tiles[(2, 0)]["kernel"] != "FP64"
        assert "rel_norm" in tiles[(1, 0)]


class TestCliTelemetry:
    def test_simulate_capture_and_report(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        metrics = tmp_path / "metrics.json"
        events = tmp_path / "run.jsonl"
        assert main(["simulate", "--n", "4096", "--nb", "512",
                     "--trace-out", str(trace), "--metrics-out", str(metrics),
                     "--events-out", str(events), "--run-id", "cli-test"]) == 0
        capsys.readouterr()

        payload = json.loads(trace.read_text())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"X", "C", "M"} <= phases  # slices, counters, metadata

        doc = json.loads(metrics.read_text())
        assert doc["manifest"]["run_id"] == "cli-test"
        assert doc["manifest"]["command"] == "simulate"
        assert doc["stats"]["n_tasks"] > 0
        assert doc["trace"]["n_events"] > 0
        assert "sim.evictions" in doc["metrics"]

        recs = obs.read_events(events)
        assert any(e["type"] == "sim.complete" for e in recs)
        assert all(e["run_id"] == "cli-test" for e in recs)

        # the one run reader: header, event counts, ledger, critical path
        assert main(["analyze", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run cli-test: command simulate" in out
        assert doc["manifest"]["git_revision"] in out
        assert "sim.complete" in out
        assert "reconciles exactly" in out
        assert "critical path" in out

    def test_analyze_exits_1_on_reconciliation_mismatch(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        metrics = tmp_path / "metrics.json"
        assert main(["simulate", "--n", "4096", "--nb", "512",
                     "--trace-out", str(trace), "--metrics-out", str(metrics)]) == 0
        doc = json.loads(metrics.read_text())
        doc["stats"]["h2d_bytes_by_precision"]["FP64"] += 8
        metrics.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["analyze", str(tmp_path)]) == 1
        assert "RECONCILIATION FAILED" in capsys.readouterr().out

    def test_mle_events_out_flag(self, tmp_path, capsys):
        events = tmp_path / "mle.jsonl"
        assert main(["mle", "--model", "2d-matern", "--n", "64",
                     "--accuracy", "1e-4", "--events-out", str(events),
                     "--metrics-out", str(tmp_path / "mle.json")]) == 0
        capsys.readouterr()
        recs = obs.read_events(events)
        assert any(e["type"] == "mle.iteration" for e in recs)
        assert main(["analyze", str(events)]) == 0
        out = capsys.readouterr().out
        assert "mle.iteration" in out
        assert "last MLE iteration" in out
        # a capture without simulator stats is a header and an event census
        out_json = tmp_path / "analysis.json"
        assert main(["analyze", str(tmp_path), "--json-out", str(out_json)]) == 0
        assert "command mle, seed 0" in capsys.readouterr().out
        analysis = json.loads(out_json.read_text())
        assert analysis["run"]["command"] == "mle"
        n_iter = sum(e["type"] == "mle.iteration" for e in recs)
        assert analysis["event_log"]["by_type"]["mle.iteration"] == n_iter
        assert analysis["event_log"]["last_mle_iteration"]["k"] == n_iter

    def test_report_without_inputs_errors(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert "nothing analyzable" in capsys.readouterr().err

    def test_simulate_without_flags_unchanged(self, capsys):
        assert main(["simulate", "--n", "4096", "--nb", "512"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "Tflop/s" in out
