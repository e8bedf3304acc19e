"""Unit tests for the fault-injection & retry subsystem (repro.faults)."""

import json

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultInjectedError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryError,
    RetryPolicy,
    call_with_retry,
    record_faults,
)
from repro.obs import event_log, get_registry, read_events
from repro.runtime.distributed import _RollingDeadline


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("meteor_strike")
        with pytest.raises(ValueError, match="rank and task"):
            FaultSpec("kill_rank", rank=1)
        with pytest.raises(ValueError, match="rank and message"):
            FaultSpec("drop_message", rank=1)
        with pytest.raises(ValueError, match="point"):
            FaultSpec("crash_point")
        with pytest.raises(ValueError, match="mode"):
            FaultSpec("kill_rank", rank=0, task=0, mode="gently")
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("transient", point="", probability=1.5)
        with pytest.raises(ValueError, match="times"):
            FaultSpec("transient", point="", times=0)

    def test_all_kinds_constructible(self):
        FaultSpec("kill_rank", rank=0, task=3)
        FaultSpec("drop_message", rank=0, message=2)
        FaultSpec("delay_message", rank=1, message=0, delay_s=0.1)
        FaultSpec("crash_point", point="abc")
        FaultSpec("transient", point="")
        assert len(FAULT_KINDS) == 5


class TestFaultPlan:
    def plan(self) -> FaultPlan:
        return FaultPlan(
            (
                FaultSpec("kill_rank", rank=1, task=3, mode="exit0"),
                FaultSpec("transient", point="xyz", times=2, note="blip"),
            ),
            seed=7,
        )

    def test_roundtrip_dict_and_json(self):
        plan = self.plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan

    def test_save_load(self, tmp_path):
        plan = self.plan()
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_picklable(self):
        import pickle

        plan = self.plan()
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestFaultInjector:
    def test_kill_matching_and_times(self):
        inj = FaultInjector(FaultPlan((FaultSpec("kill_rank", rank=1, task=3),)))
        assert inj.kill_at(0, 3) is None
        assert inj.kill_at(1, 2) is None
        assert inj.kill_at(1, 3) is not None
        assert inj.kill_at(1, 3) is None  # times=1 exhausted

    def test_unlimited_times(self):
        inj = FaultInjector(FaultPlan((FaultSpec("crash_point", point="", times=None),)))
        for _ in range(5):
            assert inj.point_fault("anything") is not None

    def test_point_substring_match(self):
        inj = FaultInjector(FaultPlan((FaultSpec("crash_point", point="deadbeef", times=None),)))
        assert inj.point_fault("key-deadbeef-1", "label") is not None
        assert inj.point_fault("other", "label") is None

    def test_message_fault(self):
        inj = FaultInjector(FaultPlan((FaultSpec("drop_message", rank=0, message=2),)))
        assert inj.message_fault(0, 0) is None
        assert inj.message_fault(1, 2) is None
        assert inj.message_fault(0, 2) is not None

    def test_probability_deterministic(self):
        plan = FaultPlan(
            (FaultSpec("transient", point="", times=None, probability=0.5),), seed=11
        )
        fires = [FaultInjector(plan).point_fault("x") is not None for _ in range(1)]
        pattern = [
            [inj.point_fault("x") is not None for _ in range(20)]
            for inj in (FaultInjector(plan), FaultInjector(plan))
        ]
        assert pattern[0] == pattern[1]  # same seed, same occasions, same coins
        assert any(pattern[0]) and not all(pattern[0])
        assert fires is not None

    def test_fire_counts_and_metric(self, tmp_path):
        """The injector lists what fired; the parent's record_faults counts
        each kind and logs one ``fault`` event per fire."""
        inj = FaultInjector(FaultPlan((FaultSpec("transient", point="", times=2),)))
        for _ in range(3):
            inj.point_fault("x")
        assert inj.fired == ["transient", "transient"]
        reg = get_registry()
        before = reg.counter("faults.injected").value(kind="transient")
        with event_log(tmp_path / "run.jsonl"):
            record_faults(inj.fired, op="unit")
        assert reg.counter("faults.injected").value(kind="transient") == before + 2
        faults = [e for e in read_events(tmp_path / "run.jsonl") if e["type"] == "fault"]
        assert [e["attrs"] for e in faults] == [{"kind": "transient", "op": "unit"}] * 2

    def test_injector_writes_no_telemetry(self):
        reg = get_registry()
        before = reg.counter("faults.injected").total()
        inj = FaultInjector(FaultPlan((FaultSpec("crash_point", point="", times=2),)))
        with pytest.raises(FaultInjectedError):
            inj.raise_fault(inj.point_fault("x"), where="unit")
        assert reg.counter("faults.injected").total() == before

    def test_raise_fault(self):
        inj = FaultInjector(FaultPlan((FaultSpec("crash_point", point="", note="kaboom"),)))
        with pytest.raises(FaultInjectedError, match="kaboom"):
            inj.raise_fault(inj.point_fault("x"), where="test")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)

    def test_exponential_capped(self):
        pol = RetryPolicy(max_retries=6, base_delay=0.1, multiplier=2.0,
                          max_delay=0.5, jitter=0.0)
        assert pol.delays() == [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]

    def test_jitter_bounded_and_deterministic(self):
        pol = RetryPolicy(max_retries=4, base_delay=0.1, jitter=0.25, seed=3)
        delays = pol.delays()
        assert delays == RetryPolicy(max_retries=4, base_delay=0.1, jitter=0.25,
                                     seed=3).delays()
        for k, d in enumerate(delays, start=1):
            base = min(pol.max_delay, pol.base_delay * pol.multiplier ** (k - 1))
            assert base <= d <= base * 1.25

    def test_different_seed_different_jitter(self):
        a = RetryPolicy(max_retries=3, seed=1).delays()
        b = RetryPolicy(max_retries=3, seed=2).delays()
        assert a != b

    def test_roundtrip(self):
        """A policy crosses into pool workers pickled, as it is."""
        import pickle

        pol = RetryPolicy(max_retries=5, base_delay=0.2, seed=9)
        assert pickle.loads(pickle.dumps(pol)) == pol


class TestCallWithRetry:
    def test_success_first_try(self):
        slept = []
        assert call_with_retry(lambda: 42, RetryPolicy(), sleep=slept.append) == 42
        assert slept == []

    def test_transient_failure_recovers(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ValueError("boom")
            return "ok"

        pol = RetryPolicy(max_retries=3, base_delay=0.1, jitter=0.0)
        slept = []  # fake clock: record the schedule instead of sleeping
        assert call_with_retry(flaky, pol, sleep=slept.append) == "ok"
        assert slept == [0.1, 0.2]

    def test_gave_up_raises_retry_error(self):
        def always():
            raise KeyError("nope")

        with pytest.raises(RetryError, match="unit: gave up after 3") as err:
            call_with_retry(always, RetryPolicy(max_retries=2, base_delay=0.0),
                            op="unit", sleep=lambda s: None)
        assert err.value.attempts == 3
        assert isinstance(err.value.last, KeyError)

    def test_attempts_counted(self):
        """The loop counts attempts for its caller and writes no telemetry:
        run_batch's parent counts ``retry.attempts`` from the envelopes."""
        reg = get_registry()
        before = reg.counter("retry.attempts").value(op="unit2")
        calls, retried = [], []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise ValueError("boom")
            return 1

        call_with_retry(flaky, RetryPolicy(max_retries=2, base_delay=0.0),
                        op="unit2", sleep=lambda s: None,
                        on_retry=lambda attempt, _exc: retried.append(attempt))
        assert (len(calls), retried) == (2, [1])
        assert reg.counter("retry.attempts").value(op="unit2") == before

    def test_retry_on_filters_exceptions(self):
        with pytest.raises(ZeroDivisionError):  # not retried, propagates raw
            call_with_retry(lambda: 1 / 0, RetryPolicy(max_retries=5),
                            retry_on=(KeyError,), sleep=lambda s: None)

    def test_on_retry_callback(self):
        seen = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise ValueError("boom")
            return 1

        call_with_retry(flaky, RetryPolicy(max_retries=1, base_delay=0.0),
                        sleep=lambda s: None,
                        on_retry=lambda attempt, exc: seen.append((attempt, type(exc))))
        assert seen == [(1, ValueError)]


class TestRollingDeadline:
    def test_refresh_extends_the_window(self):
        now = [0.0]
        dl = _RollingDeadline(10.0, clock=lambda: now[0])
        now[0] = 9.0
        assert not dl.expired()
        dl.refresh()  # a result arrived: the next wait gets the full window
        now[0] = 18.0
        assert not dl.expired()
        now[0] = 19.1
        assert dl.expired()

    def test_without_refresh_expires(self):
        now = [0.0]
        dl = _RollingDeadline(5.0, clock=lambda: now[0])
        now[0] = 5.1
        assert dl.expired()
        assert dl.remaining() == 0.0
