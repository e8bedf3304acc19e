"""Tests for the sweep/campaign engine (grid, cache, pool, CLI)."""

import json

import pytest

from repro.cli import main
from repro.sweep import KERNEL_CONFIGS, RunSpec, SweepGrid, execute_spec, run_sweep
from repro.sweep.grid import AXES

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

    @pytest.mark.parametrize("host_memory_gb", [-1.0, float("nan")])
    def test_host_memory_must_be_non_negative(self, host_memory_gb):
        with pytest.raises(ValueError, match="host_memory_gb must be non-negative"):
            RunSpec(**TINY, host_memory_gb=host_memory_gb)

    @pytest.mark.parametrize("accuracy", [-1.0, 0.0, 2.0, float("nan")])
    def test_accuracy_follows_mpconfigs_rule(self, accuracy):
        """An out-of-range u_req is rejected, not priced as all-FP64."""
        with pytest.raises(ValueError, match=r"accuracy must be in \(0, 1\]"):
            RunSpec(**TINY, config="adaptive", accuracy=accuracy)

    def test_app_checked_where_adaptive_reads_it(self):
        with pytest.raises(ValueError, match="unknown application 'bogus'"):
            RunSpec(**TINY, config="adaptive", app="bogus")
        RunSpec(**TINY, config="FP64", app="bogus")  # a fixed config never reads it

    def test_valid_adaptive_key_unchanged_by_validation(self):
        # taken before RunSpec checked accuracy and app: no schema bump
        spec = RunSpec(**TINY, config="adaptive", accuracy=1e-6, seed=3)
        assert spec.cache_key() == "ad4096df98af55c6"

    def test_zero_host_memory_is_a_host_with_no_room(self):
        """The engine's rule: a 0-byte host prices as a one-byte host."""
        assert RunSpec(**TINY, host_memory_gb=0.0).platform == "1x1xV100 host=0GB"

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
        # the numbers a fresh run produces (the key was re-taken when
        # CACHE_SCHEMA went 5 -> 6, 6 -> 7 and 7 -> 8; the results are
        # the same literals)
        spec = RunSpec(n=2048, nb=256, config="FP64/FP16_32")
        assert spec.cache_key() == "91495f407efc4bde"
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
            RunSpec(**TINY, host_memory_gb=2063.0),
            RunSpec(**TINY, app="3d-exponential"),
            RunSpec(**TINY, accuracy=1e-4),
            RunSpec(**TINY, seed=7),
            RunSpec(**TINY, policy="critical-path"),
            RunSpec(**TINY, ordering="hilbert"),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1
        assert len(variants) == len(AXES)  # one variant per field


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

    def test_axes_are_the_spec_fields(self):
        from dataclasses import fields

        assert [f.name for f in fields(SweepGrid)] == [*AXES, "name"]
        assert list(SweepGrid().axes_dict()) == list(AXES)

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

    def test_host_memory_reaches_the_platform(self):
        """A starved host spills, and prices what ``of_gpus`` prices."""
        from repro.core import fixed_config_map, simulate_cholesky
        from repro.perfmodel import V100
        from repro.runtime import Platform

        spec = RunSpec(n=8192, nb=1024, host_memory_gb=0.1)
        assert "host=0.1GB" in spec.label
        result = execute_spec(spec.to_dict())
        rep = simulate_cholesky(8192, 1024, fixed_config_map(8, "FP64"),
                                Platform.of_gpus(V100, host_memory=0.1e9),
                                record_events=False)
        assert result["makespan_seconds"] == rep.makespan
        assert result["n_host_evictions"] == rep.stats.n_host_evictions > 0
        roomy = execute_spec(RunSpec(n=8192, nb=1024).to_dict())
        assert roomy["n_host_evictions"] == 0

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
        assert first.n_cache_hits == 0 and first.n_runs - first.n_cache_hits == 4
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
        assert result.n_runs - result.n_cache_hits == 1  # one execution, two shared
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
        assert again.n_runs - again.n_cache_hits == 1

    def test_table_and_summary_sections(self, tmp_path):
        result = run_sweep(self.grid(name="unit"), cache_dir=tmp_path / "c", name="unit")
        table = result.table()
        assert "tflops" in table and "miss" in table
        stats, runs = result.summary_stats(), result.summary_runs()
        assert stats["n_runs"] == 4
        assert stats["best_tflops"] > 0
        assert [run["spec"]["config"] for run in runs] == ["FP64", "FP64", "FP64/FP16", "FP64/FP16"]
        # every point reports its energy; the totals sum it
        joules = [run["metrics"]["joules"] for run in runs]
        assert all(j > 0 for j in joules)
        assert all(run["metrics"]["gflops_per_watt"] > 0 for run in runs)
        assert stats["total_joules"] == sum(joules)


class TestSweepCli:
    def test_sweep_command_hits_on_rerun(self, tmp_path, capsys):
        summary = tmp_path / "cli-smoke.json"
        argv = [
            "sweep", "--n", "1024", "--nb", "256",
            "--config", "FP64", "--config", "FP64/FP16",
            "--cache-dir", str(tmp_path / "cache"),
            "--metrics-out", str(summary),
            "--name", "cli-smoke",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 0/2 hits (0.0%)" in out
        doc = json.loads(summary.read_text())
        assert doc["schema"] == "repro.obs.run_summary/1"
        assert [run["cached"] for run in doc["runs"]] == [False, False]

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 2/2 hits (100.0%)" in out
        doc = json.loads(summary.read_text())
        assert [run["cached"] for run in doc["runs"]] == [True, True]
        assert doc["stats"]["cache_hit_fraction"] == 1.0

    def test_axis_flags_fill_the_grid(self, tmp_path, capsys):
        """Each axis flag lands on its RunSpec field; one never passed keeps
        SweepGrid's default, and the manifest records the expanded grid."""
        summary = tmp_path / "axes.json"
        assert main(["sweep", "--n", "1024", "--nb", "256", "--gpus", "2", "--nodes", "2",
                     "--strategy", "ttc", "--cache-dir", str(tmp_path / "cache"),
                     "--metrics-out", str(summary), "--name", "axes"]) == 0
        capsys.readouterr()
        config = json.loads(summary.read_text())["manifest"]["config"]
        expected = {**SweepGrid().axes_dict(), "n": [1024], "nb": [256],
                    "gpus_per_node": [2], "n_nodes": [2], "strategy": ["ttc"]}
        assert {axis: config[axis] for axis in AXES} == expected
        assert config["name"] == "axes"

    def test_host_memory_axis(self, tmp_path, capsys):
        """``--host-memory-gb`` is a repeatable axis, as simulate's flag;
        a value the spec rejects is a usage error before any point runs."""
        base = ["sweep", "--n", "8192", "--nb", "1024", "--cache-dir", str(tmp_path / "cache")]
        summary = tmp_path / "host.json"
        assert main([*base, "--host-memory-gb", "0.1", "--host-memory-gb", "256",
                     "--metrics-out", str(summary), "--name", "host"]) == 0
        assert "1x1xV100 host=0.1GB" in capsys.readouterr().out
        doc = json.loads(summary.read_text())
        assert doc["manifest"]["config"]["host_memory_gb"] == [0.1, 256.0]
        evictions = [r["metrics"]["n_host_evictions"] for r in doc["runs"]]
        assert evictions[0] > 0 and evictions[1] == 0

        assert main([*base, "--host-memory-gb", "-1"]) == 2
        assert "host_memory_gb must be non-negative" in capsys.readouterr().err

    def test_out_of_range_accuracy_is_a_usage_error(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["sweep", "--n", "1024", "--nb", "256", "--config", "adaptive",
                     "--accuracy", "-1", "--cache-dir", str(cache)]) == 2
        err = capsys.readouterr().err
        assert err == "sweep: accuracy must be in (0, 1], got -1.0\n"
        assert not cache.exists() or not any(cache.iterdir())


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

    @staticmethod
    def _counters_at_completions(monkeypatch, specs, cache_dir):
        """``(runs, misses)`` as a scrape reads them at each completion."""
        from repro import obs
        from repro.sweep import engine

        obs.reset_metrics()
        reg = obs.get_registry()
        seen = []
        done = engine._ProgressTracker.point_done

        def spying(tracker, envelope, points=1):
            seen.append((reg.counter("sweep.runs").value(),
                         reg.counter("sweep.cache_misses").value()))
            done(tracker, envelope, points)

        monkeypatch.setattr(engine._ProgressTracker, "point_done", spying)
        run_sweep(specs, cache_dir=cache_dir, progress_seconds=None)
        return seen, (reg.counter("sweep.runs").value(),
                      reg.counter("sweep.cache_misses").value())

    def test_counters_tick_per_completed_point(self, tmp_path, monkeypatch):
        seen, end = self._counters_at_completions(monkeypatch, self.grid(), tmp_path)
        assert seen == [(1, 1), (2, 2), (3, 3), (4, 4)]
        assert end == (4, 4)

    def test_hits_tick_up_front_and_sharers_with_their_owner(self, tmp_path, monkeypatch):
        a, b, hit = (RunSpec(**TINY, config=c) for c in ("FP64", "FP32", "FP64/FP16"))
        run_sweep([hit], cache_dir=tmp_path, progress_seconds=None)
        seen, end = self._counters_at_completions(monkeypatch, [hit, a, a, b], tmp_path)
        # the hit before any completion; a's sharer with a; then b
        assert seen == [(3, 1), (4, 2)]
        assert end == (4, 2)

    def test_deduplicated_points_count_as_done(self, tmp_path, capsys):
        a, b = (RunSpec(**TINY, config=c) for c in ("FP64", "FP32"))
        result = run_sweep([a, a, b], cache_dir=tmp_path, progress_seconds=0)
        lines = [ln for ln in capsys.readouterr().err.splitlines() if "points" in ln]
        assert result.n_runs == 3
        # up front, a with its sharer, b, and the final line
        assert [ln.split()[2] for ln in lines] == ["0/3", "2/3", "3/3", "3/3"], lines

    def test_silent_when_disabled(self, tmp_path, capsys):
        run_sweep(self.grid(), cache_dir=tmp_path, progress_seconds=None)
        assert "points" not in capsys.readouterr().err

    def test_progress_events(self, tmp_path):
        import json

        from repro.obs import event_log

        events_path = tmp_path / "events.jsonl"
        with event_log(events_path, run_id="sp"):
            run_sweep(self.grid(), cache_dir=tmp_path / "c",
                      progress_seconds=0, name="prog")
        records = [json.loads(ln) for ln in events_path.read_text().splitlines() if ln]
        progress = [r for r in records if r["type"] == "sweep.progress"]
        assert progress and progress[-1]["attrs"]["completed"] == 4
        assert progress[-1]["attrs"]["total"] == 4
        assert progress[-1]["attrs"]["cache_hits"] == 0
