"""Tests for the sweep/campaign engine (grid, cache, pool, CLI)."""

import json

import pytest

from repro.cli import main
from repro.sweep import KERNEL_CONFIGS, RunSpec, SweepGrid, execute_spec, run_sweep

TINY = dict(n=1024, nb=256)  # nt=4 — fast enough for unit tests


class TestRunSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec(n=0, nb=256)
        with pytest.raises(ValueError):
            RunSpec(n=1024, nb=256, config="FP8")
        with pytest.raises(ValueError):
            RunSpec(n=1024, nb=256, strategy="both")
        with pytest.raises(ValueError):
            RunSpec(n=1024, nb=256, n_nodes=0)

    def test_nt_ceil_division(self):
        assert RunSpec(n=1024, nb=256).nt == 4
        assert RunSpec(n=1025, nb=256).nt == 5

    def test_roundtrip(self):
        spec = RunSpec(**TINY, config="adaptive", accuracy=1e-6, seed=3)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_cache_key_deterministic(self):
        a = RunSpec(**TINY, config="FP64/FP16", seed=1)
        b = RunSpec(**TINY, config="FP64/FP16", seed=1)
        assert a.cache_key() == b.cache_key()
        assert len(a.cache_key()) == 16
        int(a.cache_key(), 16)  # hex

    def test_cache_key_and_result_pinned_across_refactors(self):
        # literals computed before the one-builder refactor of
        # execute_spec: a cache written then must still hit, and hold
        # the numbers a fresh run produces
        spec = RunSpec(n=2048, nb=256, config="FP64/FP16_32")
        assert spec.cache_key() == "911e1962141b0f67"
        result = execute_spec(spec.to_dict())
        assert result["makespan_seconds"] == 0.0011489401721384125
        assert (result["n_tasks"], result["n_conversions"]) == (120, 63)
        assert result["h2d_bytes"] == 11534336

    def test_cache_key_sensitive_to_every_field(self):
        base = RunSpec(**TINY)
        variants = [
            RunSpec(n=2048, nb=256),
            RunSpec(n=1024, nb=512),
            RunSpec(**TINY, config="FP32"),
            RunSpec(**TINY, strategy="ttc"),
            RunSpec(**TINY, gpu="A100"),
            RunSpec(**TINY, gpus_per_node=2),
            RunSpec(**TINY, n_nodes=2),
            RunSpec(**TINY, app="3d-exponential"),
            RunSpec(**TINY, accuracy=1e-4),
            RunSpec(**TINY, seed=7),
            RunSpec(**TINY, policy="critical-path"),
            RunSpec(**TINY, enforce_memory=False),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1


class TestSweepGrid:
    def test_from_axes_lifts_scalars(self):
        grid = SweepGrid.from_axes(n=1024, nb=[256, 512], config="FP32")
        assert grid.n == (1024,) and grid.nb == (256, 512)
        assert len(grid) == 2

    def test_expansion_order_and_len(self):
        grid = SweepGrid.from_axes(
            n=[1024, 2048], nb=256, config=["FP64", "FP32"], seed=[0, 1]
        )
        specs = grid.expand()
        assert len(specs) == len(grid) == 8
        # documented field order: n varies slowest, seed fastest
        assert [s.n for s in specs[:4]] == [1024] * 4
        assert [s.seed for s in specs[:2]] == [0, 1]
        assert specs[0].config == specs[1].config == "FP64"

    def test_all_configs_known(self):
        for config in KERNEL_CONFIGS:
            SweepGrid.from_axes(n=1024, nb=256, config=config)  # no raise


class TestExecuteSpec:
    def test_fixed_config(self):
        result = execute_spec(RunSpec(**TINY, config="FP64/FP16_32").to_dict())
        assert result["n_tasks"] == 20  # nt=4 tile Cholesky
        assert result["makespan_seconds"] > 0
        assert result["plan_seconds"] > 0 and result["sim_seconds"] > 0
        assert 0.0 <= result["stc_fraction"] <= 1.0

    def test_adaptive_config(self):
        result = execute_spec(
            RunSpec(**TINY, config="adaptive", accuracy=1e-4, seed=1).to_dict()
        )
        assert result["n_tasks"] == 20
        assert "FP64" in result["tile_fractions"]

    def test_picklable_payload(self):
        import pickle

        payload = RunSpec(**TINY).to_dict()
        assert pickle.loads(pickle.dumps(payload)) == payload


class TestRunSweep:
    def grid(self, **kw):
        axes = dict(n=1024, nb=256, config=["FP64", "FP64/FP16"], strategy=["auto", "ttc"])
        axes.update(kw)
        return SweepGrid.from_axes(**axes)

    def test_miss_then_hit(self, tmp_path):
        first = run_sweep(self.grid(), cache_dir=tmp_path)
        assert first.n_runs == 4
        assert first.n_cache_hits == 0 and first.n_cache_misses == 4
        second = run_sweep(self.grid(), cache_dir=tmp_path)
        assert second.n_cache_hits == 4 and second.cache_hit_fraction == 1.0
        for a, b in zip(first.runs, second.runs):
            assert a.key == b.key
            assert a.result == b.result

    def test_force_reexecutes(self, tmp_path):
        run_sweep(self.grid(), cache_dir=tmp_path)
        forced = run_sweep(self.grid(), cache_dir=tmp_path, force=True)
        assert forced.n_cache_hits == 0

    def test_duplicate_specs_run_once(self, tmp_path):
        spec = RunSpec(**TINY)
        result = run_sweep([spec, spec, spec], cache_dir=tmp_path)
        assert result.n_runs == 3
        assert result.n_cache_misses == 1  # one execution, two shared
        assert result.runs[1].result == result.runs[0].result

    def test_parallel_matches_sequential(self, tmp_path):
        seq = run_sweep(self.grid(), cache_dir=tmp_path / "a")
        par = run_sweep(self.grid(), cache_dir=tmp_path / "b", workers=2)
        assert [r.key for r in seq.runs] == [r.key for r in par.runs]
        for a, b in zip(seq.runs, par.runs):
            assert a.result["makespan_seconds"] == b.result["makespan_seconds"]
            assert a.result["tflops"] == b.result["tflops"]

    def test_cache_entry_has_manifest(self, tmp_path):
        result = run_sweep([RunSpec(**TINY)], cache_dir=tmp_path)
        doc = json.loads((tmp_path / f"{result.runs[0].key}.json").read_text())
        assert doc["spec"] == RunSpec(**TINY).to_dict()
        assert doc["manifest"]["run_id"] == result.runs[0].key

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = RunSpec(**TINY)
        run_sweep([spec], cache_dir=tmp_path)
        (tmp_path / f"{spec.cache_key()}.json").write_text("{not json")
        again = run_sweep([spec], cache_dir=tmp_path)
        assert again.n_cache_misses == 1

    def test_table_and_bench_json(self, tmp_path):
        result = run_sweep(self.grid(name="unit"), cache_dir=tmp_path / "c", name="unit")
        table = result.table()
        assert "tflops" in table and "miss" in table
        path = result.write_bench_json(tmp_path)
        assert path.name == "BENCH_unit.json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.bench/1"
        assert doc["n_runs"] == 4
        assert doc["axes"]["config"] == ["FP64", "FP64/FP16"]
        assert doc["aggregates"]["best_tflops"] > 0
        assert len(doc["runs"]) == 4


class TestSweepCli:
    def test_sweep_command_hits_on_rerun(self, tmp_path, capsys):
        argv = [
            "sweep", "--n", "1024", "--nb", "256",
            "--config", "FP64", "--config", "FP64/FP16",
            "--cache-dir", str(tmp_path / "cache"),
            "--bench-out", str(tmp_path),
            "--name", "cli-smoke",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 0/2 hits (0.0%)" in out
        assert (tmp_path / "BENCH_cli-smoke.json").exists()

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 2/2 hits (100.0%)" in out


class TestPolicyAxis:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling policy|unknown policy"):
            RunSpec(**TINY, policy="random")

    def test_policy_in_label_when_non_default(self):
        assert "[critical-path]" in RunSpec(**TINY, policy="critical-path").label
        assert "[" not in RunSpec(**TINY).label

    def test_policy_axis_expands(self):
        grid = SweepGrid.from_axes(**TINY, policy=["panel-first", "fifo"])
        specs = grid.expand()
        assert len(specs) == 2
        assert [s.policy for s in specs] == ["panel-first", "fifo"]
        assert grid.axes_dict()["policy"] == ["panel-first", "fifo"]

    def test_execute_spec_honours_policy(self):
        base = execute_spec(RunSpec(n=2048, nb=128, config="FP64/FP16_32").to_dict())
        cp = execute_spec(
            RunSpec(n=2048, nb=128, config="FP64/FP16_32", policy="critical-path").to_dict()
        )
        assert base["policy"] == "panel-first" and cp["policy"] == "critical-path"
        assert cp["makespan_seconds"] != base["makespan_seconds"]

    def test_policy_column_in_table(self, tmp_path):
        result = run_sweep(
            SweepGrid.from_axes(**TINY, policy=["panel-first", "critical-path"]),
            cache_dir=tmp_path,
        )
        table = result.table()
        assert "policy" in table and "critical-path" in table


class TestSweepProgress:
    """Periodic completed/total progress from run_sweep (ISSUE 9)."""

    def grid(self):
        axes = dict(n=1024, nb=256, config=["FP64", "FP64/FP16"], strategy=["auto", "ttc"])
        return SweepGrid.from_axes(**axes)

    def test_progress_lines_on_stderr(self, tmp_path, capsys):
        run_sweep(self.grid(), cache_dir=tmp_path, progress_seconds=0)
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if "points" in ln]
        assert lines, f"no progress lines in stderr: {err!r}"
        assert any("4/4 points" in ln for ln in lines)
        # rerun: all four points served from cache, reported up front
        run_sweep(self.grid(), cache_dir=tmp_path, progress_seconds=0)
        err = capsys.readouterr().err
        assert any("4 cached" in ln for ln in err.splitlines())

    def test_silent_when_disabled(self, tmp_path, capsys):
        run_sweep(self.grid(), cache_dir=tmp_path, progress_seconds=None)
        assert "points" not in capsys.readouterr().err

    def test_progress_events_and_campaign_gauges(self, tmp_path):
        import json

        from repro.obs import event_log
        from repro.obs.live import LivePlane

        plane = LivePlane(interval=30.0)
        from repro.obs.live import install_plane

        events_path = tmp_path / "events.jsonl"
        previous = install_plane(plane)
        try:
            with event_log(events_path, run_id="sp"):
                run_sweep(self.grid(), cache_dir=tmp_path / "c",
                          progress_seconds=0, name="prog")
            snap = plane.progress.snapshot()
        finally:
            install_plane(previous)
        assert snap["done"] == 4 and snap["total"] == 4
        assert snap["complete"]
        assert snap["gauges"]["sweep_cache_hits"] == 0
        records = [json.loads(ln) for ln in events_path.read_text().splitlines() if ln]
        progress = [r for r in records if r["type"] == "sweep.progress"]
        assert progress and progress[-1]["attrs"]["completed"] == 4
