"""End-to-end telemetry: instrumented hot paths, CLI capture, report."""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.geostats import SyntheticField, fit_mle
from repro.geostats.optimizer import maximize_bounded, nelder_mead_bounded
from repro.precision import Precision


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

    def test_counters_tick_per_publish_stride_and_match_stats(self, monkeypatch):
        """``sim.evictions`` / ``sim.conversions`` move every
        ``PUBLISH_STRIDE`` executed tasks — a mid-run scrape sees them
        rise — and land on the ``RunStats`` totals at the finish."""
        from dataclasses import replace

        from repro.core import two_precision_map
        from repro.core.solver import simulate_cholesky
        from repro.perfmodel.gpus import V100
        from repro.precision import Precision
        from repro.runtime import Platform, simulator
        from repro.runtime.simulator import PUBLISH_STRIDE
        from repro.runtime.tracing import Trace

        nt, nb = 16, 128
        platform = Platform.of_gpus(replace(V100, memory_bytes=12 * nb * nb * 8),
                                    host_memory=32 * nb * nb * 8)
        obs.reset_metrics()
        reg = obs.get_registry()
        runs = []  # the RunStats of each simulated run, counting executed tasks

        def recording_trace():
            trace = Trace()
            runs.append(trace.stats)
            return trace

        seen = []  # (tasks executed, counter, its value) at every tick
        inc = obs.Counter.inc

        def spying_inc(counter, amount=1.0, **labels):
            inc(counter, amount, **labels)
            if counter.name in ("sim.evictions", "sim.conversions"):
                seen.append((runs[-1].n_tasks, counter.name, counter.value()))

        monkeypatch.setattr(simulator, "Trace", recording_trace)
        monkeypatch.setattr(obs.Counter, "inc", spying_inc)
        rep = simulate_cholesky(nt * nb, nb, two_precision_map(nt, Precision.FP16_32),
                                platform, record_events=False)
        n = rep.stats.n_tasks
        assert n > 2 * PUBLISH_STRIDE
        strides = list(range(PUBLISH_STRIDE, n + 1, PUBLISH_STRIDE))
        totals = {"sim.evictions": rep.stats.n_evictions,
                  "sim.conversions": rep.stats.n_conversions}
        for name, total in totals.items():
            ticks = [(done, value) for done, metric, value in seen if metric == name]
            # one tick per stride (each moved), then the remainder at the finish
            assert [done for done, _ in ticks] == strides + [n]
            # mid-run: already non-zero, not yet the total
            assert 0 < ticks[0][1] < total
            assert ticks[-1][1] == reg.counter(name).value() == total


class TestExecutorSpans:
    @staticmethod
    def _graph(mat):
        from repro.core import build_cholesky_dag, build_precision_map
        from repro.tiles import tile_norms

        kmap = build_precision_map(tile_norms(mat), 1e-6)
        return build_cholesky_dag(mat.n, mat.nb, kmap).graph

    def test_sequential_executor_emits_task_spans(self, tmp_path, tiled_96):
        from repro.runtime import execute_numeric

        graph = self._graph(tiled_96)
        with obs.event_log(tmp_path / "run.jsonl"):
            execute_numeric(graph, tiled_96)
        events = obs.read_events(tmp_path / "run.jsonl")
        tasks = [e for e in events if e["type"] == "span" and e["span"].endswith("/task")]
        assert tasks, "expected per-task spans"
        kinds = {e["attrs"]["kind"] for e in tasks}
        assert {"POTRF", "TRSM", "SYRK", "GEMM"} <= kinds
        assert all(e["span"].startswith("executor.sequential/") for e in tasks)

    def test_parallel_executor_emits_task_spans(self, tmp_path, tiled_96):
        from repro.runtime.parallel_executor import execute_numeric_parallel

        graph = self._graph(tiled_96)
        with obs.event_log(tmp_path / "run.jsonl"):
            execute_numeric_parallel(graph, tiled_96, n_threads=2)
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
        il, jl = np.tril_indices(3)
        tiles = {(i, j): (Precision(k), r) for i, j, k, r
                 in zip(il, jl, attrs["kernel"], attrs["rel_norm"])}
        assert tiles[(0, 0)][0] == Precision.FP64
        assert tiles[(2, 0)][0] != Precision.FP64
        assert tiles[(1, 0)][1] > 0.0

    def test_plan_columns_once_per_map_at_nt_40(self, tmp_path):
        """Past the old NT ≤ 32 cut-off the plan is still logged, as
        lower-triangle columns on the first event of each ``map``."""
        from repro.core import build_comm_precision_map, build_precision_map
        from repro.precision import get_storage_precision

        nt = 40
        i, j = np.indices((nt, nt))
        norms = 10.0 ** -(np.abs(i - j) * 0.5)  # decays off the diagonal
        tril = np.tril_indices(nt)

        def plan(path, accuracy=1e-6):
            with obs.event_log(path):
                kmap = build_precision_map(norms, accuracy)
                cmap = build_comm_precision_map(kmap)
            k_ev, c_ev = (e["attrs"] for e in obs.read_events(path)
                          if e["type"] in ("precision_map.built", "comm_map.built"))
            return kmap, cmap, k_ev, c_ev

        kmap, cmap, k_ev, c_ev = plan(tmp_path / "a.jsonl")
        assert "tiles" not in k_ev and "tiles" not in c_ev
        kernel, comm = np.array(k_ev["kernel"]), np.array(c_ev["comm"])
        assert len(kernel) == len(comm) == len(k_ev["rel_norm"]) == nt * (nt + 1) // 2
        assert np.array_equal(kernel, kmap.codes[tril])
        assert np.array_equal(comm, cmap.comm_codes[tril])
        assert len(set(kernel)) > 2  # a mixed map, not a trivial one
        # STC exactly when comm < storage; POTRF(NT-1) issues no broadcast
        storage = np.array([get_storage_precision(Precision(int(k))) for k in kernel])
        last = (tril[0] == nt - 1) & (tril[1] == nt - 1)
        assert int(np.count_nonzero((comm < storage) & ~last)) == c_ev["n_stc"] > 0
        assert len(comm) - 1 == c_ev["n_broadcasts"]

        # the same plan again in the same log: the key, no columns
        path = tmp_path / "b.jsonl"
        with obs.event_log(path):
            for _ in range(2):
                build_comm_precision_map(build_precision_map(norms, 1e-6))
        again = [e["attrs"] for e in obs.read_events(path)]
        assert [a["map"] for a in again] == [k_ev["map"], c_ev["map"]] * 2
        assert ["kernel" in a or "comm" in a for a in again] == [True, True, False, False]

        # a fresh log starts empty: the columns come back
        assert "kernel" in plan(tmp_path / "c.jsonl")[2]

        # the same codes under other bounds are another key
        kmap2, _, k_ev2, c_ev2 = plan(tmp_path / "d.jsonl", accuracy=1.01e-6)
        assert np.array_equal(kmap2.codes, kmap.codes)
        assert k_ev2["map"] != k_ev["map"] and "kernel" in k_ev2
        assert c_ev2["map"] == c_ev["map"]

    def test_zero_norm_fallback_is_logged(self, tmp_path):
        from repro.core import build_comm_precision_map, build_precision_map

        with obs.event_log(tmp_path / "zero.jsonl"):
            kmap = build_precision_map(np.zeros((3, 3)), 1e-4)
            build_comm_precision_map(kmap)
        events = obs.read_events(tmp_path / "zero.jsonl")
        assert [e["type"] for e in events] == ["precision_map.built", "comm_map.built"]
        attrs = events[0]["attrs"]
        assert attrs["kernel"] == [int(Precision.FP64)] * 6
        assert attrs["rel_norm"] == [0.0] * 6

    def test_fit_logs_each_distinct_plan_once(self, tmp_path):
        field = SyntheticField.matern_2d(n=64, variance=1.0, range_=0.1,
                                         smoothness=0.5, seed=3)
        with obs.event_log(tmp_path / "fit.jsonl"):
            res = fit_mle(field.sample(), accuracy=1e-9, tile_size=16, max_evals=30,
                          restarts=0)
        events = obs.read_events(tmp_path / "fit.jsonl")
        for kind, column in (("precision_map.built", "kernel"), ("comm_map.built", "comm")):
            plans = [e["attrs"] for e in events if e["type"] == kind]
            assert len(plans) == res.n_evals
            keys = {a["map"] for a in plans}
            assert len(keys) > 1
            assert sum(column in a for a in plans) == len(keys)


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
        assert "sim.evictions" in doc["metrics"]

        recs = obs.read_events(events)
        assert any(e["type"] == "sim.complete" for e in recs)
        assert all(e["run_id"] == "cli-test" for e in recs)

        # the one run reader: header, event counts, ledger, critical path
        assert main(["analyze", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run cli-test: command simulate" in out
        # the revision is None outside a git checkout (a `git archive` export)
        assert f"git rev {doc['manifest']['git_revision']}" in out
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
