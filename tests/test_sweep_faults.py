"""Resilience tests for the sweep engine: faults, retries, cache quarantine."""

import json

from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.obs import event_log, get_registry, read_events
from repro.sweep import RunSpec, run_sweep

TINY = dict(n=1024, nb=256)  # nt=4 — fast enough for unit tests


def _specs():
    return [
        RunSpec(**TINY, config="FP64"),
        RunSpec(**TINY, config="FP32"),
        RunSpec(**TINY, config="FP64/FP16"),
    ]


def _crash_plan(spec: RunSpec, times=None) -> FaultPlan:
    """A plan that crashes exactly the given spec's point."""
    return FaultPlan((FaultSpec("crash_point", point=spec.cache_key(), times=times),))


class TestSweepFaults:
    def test_crashed_point_does_not_sink_campaign(self, tmp_path):
        """Acceptance: a crashed point is marked failed, the rest complete."""
        specs = _specs()
        result = run_sweep(specs, cache_dir=tmp_path,
                           fault_plan=_crash_plan(specs[1], times=None))
        assert result.n_runs == 3
        assert result.n_failed == 1
        assert [r.failed for r in result.runs] == [False, True, False]
        ok = [r for r in result.runs if not r.failed]
        assert all(r.result["makespan_seconds"] > 0 for r in ok)
        assert "FaultInjectedError" in result.runs[1].result["error"]

    def test_transient_fault_recovered_by_retry(self, tmp_path):
        """One injected blip + retry policy: the point succeeds on attempt 2."""
        reg = get_registry()
        before = reg.counter("retry.attempts").value(op="sweep.point")
        specs = _specs()[:2]
        result = run_sweep(
            specs, cache_dir=tmp_path,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.0),
            fault_plan=_crash_plan(specs[0], times=1),
        )
        assert result.n_failed == 0
        assert result.runs[0].attempts == 2
        assert result.runs[1].attempts == 1
        assert result.total_retries == 1
        # acceptance: retried points land in retry.attempts telemetry
        assert reg.counter("retry.attempts").value(op="sweep.point") == before + 1

    def test_permanent_fault_exhausts_retries(self, tmp_path):
        reg = get_registry()
        gave_up_before = reg.counter("retry.gave_up").value(op="sweep.point")
        failed_before = reg.counter("sweep.failed").total()
        specs = _specs()[:1]
        result = run_sweep(
            specs, cache_dir=tmp_path,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.0),
            fault_plan=_crash_plan(specs[0], times=None),
        )
        assert result.n_failed == 1
        assert result.runs[0].attempts == 3  # 1 try + 2 retries
        assert result.total_retries == 2
        assert reg.counter("retry.gave_up").value(op="sweep.point") == gave_up_before + 1
        assert reg.counter("sweep.failed").total() == failed_before + 1

    def test_failed_point_not_cached_and_retried_next_campaign(self, tmp_path):
        specs = _specs()[:1]
        plan = _crash_plan(specs[0], times=1)  # fires once per campaign's injector
        first = run_sweep(specs, cache_dir=tmp_path, fault_plan=plan)
        assert first.n_failed == 1
        assert not list(tmp_path.glob("*.json"))  # nothing cached
        second = run_sweep(specs, cache_dir=tmp_path, fault_plan=plan)
        # a fresh campaign re-arms the plan, the blip fires again: still
        # failed — but with a retry budget the same plan is absorbed
        assert second.n_failed == 1
        third = run_sweep(specs, cache_dir=tmp_path, fault_plan=plan,
                          retry_policy=RetryPolicy(max_retries=1, base_delay=0.0))
        assert third.n_failed == 0
        assert list(tmp_path.glob("*.json"))  # success is cached now

    def test_failed_row_and_bench_json(self, tmp_path):
        specs = _specs()[:2]
        result = run_sweep(specs, cache_dir=tmp_path,
                           fault_plan=_crash_plan(specs[1], times=None))
        table = result.table()
        assert "1 failed" in table
        assert "yes" in table
        doc = result.to_bench_json()
        assert doc["n_failed"] == 1
        assert doc["runs"][1]["failed"] is True
        assert doc["aggregates"]["best_tflops"] > 0  # from the surviving point
        json.dumps(doc)  # still serializable with failure payloads inside

    def test_parallel_workers_fault_isolation(self, tmp_path):
        """A crash inside a pool worker must not break the pool."""
        specs = _specs()
        result = run_sweep(specs, workers=2, cache_dir=tmp_path,
                           fault_plan=_crash_plan(specs[0], times=None))
        assert result.n_failed == 1
        assert [r.failed for r in result.runs] == [True, False, False]

    def test_faults_injected_counter(self, tmp_path):
        reg = get_registry()
        before = reg.counter("faults.injected").value(kind="crash_point")
        specs = _specs()[:1]
        run_sweep(specs, cache_dir=tmp_path,
                  retry_policy=RetryPolicy(max_retries=1, base_delay=0.0),
                  fault_plan=_crash_plan(specs[0], times=None))
        # fired on the first try and on the retry
        assert reg.counter("faults.injected").value(kind="crash_point") == before + 2

    def test_fired_faults_are_logged_by_the_parent(self, tmp_path):
        """Two transients absorbed by two retries: one ``fault`` event each
        in the campaign's log (the per-attempt ``retry`` event is gone)."""
        specs = _specs()[:2]
        with event_log(tmp_path / "run.jsonl"):
            result = run_sweep(specs, cache_dir=tmp_path / "cache",
                               retry_policy=RetryPolicy(max_retries=2, base_delay=0.0),
                               fault_plan=FaultPlan((FaultSpec("transient", point=""),)))
        assert (result.n_failed, result.total_retries) == (0, 2)
        events = read_events(tmp_path / "run.jsonl")
        faults = [e["attrs"] for e in events if e["type"] == "fault"]
        assert faults == [{"kind": "transient", "op": "sweep.point", "label": s.label}
                          for s in specs]
        assert not any(e["type"].startswith("retry") for e in events)


class TestCacheQuarantine:
    def _prime(self, tmp_path):
        spec = RunSpec(**TINY, config="FP64")
        run_sweep([spec], cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.json")
        return spec, path

    def test_truncated_json_is_miss_and_quarantined(self, tmp_path):
        spec, path = self._prime(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        reg = get_registry()
        before = reg.counter("sweep.cache_corrupt").total()
        result = run_sweep([spec], cache_dir=tmp_path)
        assert result.n_cache_hits == 0
        assert result.n_failed == 0  # re-executed, not aborted
        assert reg.counter("sweep.cache_corrupt").total() == before + 1
        assert path.with_suffix(".json.corrupt").exists()
        assert path.exists()  # fresh result stored back

    def test_json_array_regression(self, tmp_path):
        """A JSON array used to raise AttributeError out of the campaign."""
        spec, path = self._prime(tmp_path)
        path.write_text(json.dumps([1, 2, 3]))
        result = run_sweep([spec], cache_dir=tmp_path)
        assert result.n_failed == 0
        assert result.n_cache_misses == 1
        assert path.with_suffix(".json.corrupt").exists()

    def test_binary_garbage_is_miss(self, tmp_path):
        """Non-UTF-8 bytes used to raise UnicodeDecodeError."""
        spec, path = self._prime(tmp_path)
        path.write_bytes(b"\xff\xfe\x00garbage")
        result = run_sweep([spec], cache_dir=tmp_path)
        assert result.n_failed == 0
        assert path.with_suffix(".json.corrupt").exists()

    def test_non_dict_result_quarantined(self, tmp_path):
        spec, path = self._prime(tmp_path)
        doc = json.loads(path.read_text())
        doc["result"] = "not a dict"
        path.write_text(json.dumps(doc))
        result = run_sweep([spec], cache_dir=tmp_path)
        assert result.n_cache_hits == 0
        assert path.with_suffix(".json.corrupt").exists()

    def test_schema_mismatch_is_plain_miss_no_quarantine(self, tmp_path):
        spec, path = self._prime(tmp_path)
        doc = json.loads(path.read_text())
        doc["schema"] = "repro.sweep/0-ancient"
        path.write_text(json.dumps(doc))
        result = run_sweep([spec], cache_dir=tmp_path)
        assert result.n_cache_hits == 0
        assert not path.with_suffix(".json.corrupt").exists()  # well-formed: overwrite
        # and the point re-cached under the current schema
        assert json.loads(path.read_text())["schema"] != "repro.sweep/0-ancient"

    def test_quarantined_entry_recovers_on_rerun(self, tmp_path):
        spec, path = self._prime(tmp_path)
        path.write_text("{truncated")
        run_sweep([spec], cache_dir=tmp_path)
        result = run_sweep([spec], cache_dir=tmp_path)  # cache is healthy again
        assert result.n_cache_hits == 1
