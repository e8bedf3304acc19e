"""The one batch runner behind both campaign layers (repro.faults.run_batch).

A two-point sweep and a two-cell Monte Carlo study, handed the same
:class:`FaultPlan` and :class:`RetryPolicy`, must come back with the same
envelopes and the same telemetry up to the ``op`` label: item 0 meets a
transient blip and recovers on its second attempt, item 1 crashes on
every attempt and exhausts the policy.
"""

import functools

import pytest

import repro.faults.batch as batch
from repro.faults import FaultPlan, FaultSpec, RetryPolicy, call_with_retry
from repro.geostats import SyntheticField
from repro.geostats.montecarlo import run_monte_carlo
from repro.obs import get_registry
from repro.sweep import RunSpec, run_sweep

POLICY = RetryPolicy(max_retries=2, base_delay=0.001, seed=5)
#: one plan for both callers: sweep labels are "<config>/<strategy> n=…",
#: Monte Carlo labels "<accuracy>:<replica>"
PLAN = FaultPlan((
    FaultSpec("transient", point="FP64/", times=1),
    FaultSpec("transient", point="exact:0", times=1),
    FaultSpec("crash_point", point="FP32/", times=None),
    FaultSpec("crash_point", point="exact:1", times=None),
))


def _sweep(tmp_path, workers):
    specs = [RunSpec(n=1024, nb=256, config="FP64"), RunSpec(n=1024, nb=256, config="FP32")]
    result = run_sweep(specs, cache_dir=tmp_path / f"w{workers}", workers=workers,
                       retry_policy=POLICY, fault_plan=PLAN, progress_seconds=None)
    assert [(r.failed, r.attempts) for r in result.runs] == [(False, 2), (True, 3)]


def _monte_carlo(tmp_path, workers):
    field = SyntheticField.matern_2d(n=36, range_=0.1, smoothness=0.5, seed=4)
    study = run_monte_carlo(field, ["exact"], replicas=2, tile_size=18, max_evals=10,
                            restarts=0, workers=workers, retry_policy=POLICY, fault_plan=PLAN)
    assert [e.replica for e in study.estimates] == [0]
    assert [(f.replica, f.attempts) for f in study.failures] == [(1, 3)]


CALLERS = {
    "sweep": (_sweep, "repro.sweep.engine", "sweep.point"),
    "montecarlo": (_monte_carlo, "repro.geostats.montecarlo", "montecarlo.replica"),
}


def _counters(op):
    reg = get_registry()
    return {
        "retry.attempts": reg.counter("retry.attempts").value(op=op),
        "retry.gave_up": reg.counter("retry.gave_up").value(op=op),
        "transient": reg.counter("faults.injected").value(kind="transient"),
        "crash_point": reg.counter("faults.injected").value(kind="crash_point"),
    }


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_both_callers_get_the_same_envelopes_and_telemetry(caller, tmp_path, monkeypatch):
    run, module, op = CALLERS[caller]
    seen: list[list[dict]] = []

    def spy(*args, **kwargs):
        assert kwargs["op"] == op
        seen.append(batch.run_batch(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(f"{module}.run_batch", spy)
    slept: list[float] = []
    monkeypatch.setattr(batch, "call_with_retry",
                        functools.partial(call_with_retry, sleep=slept.append))

    before = _counters(op)
    run(tmp_path, workers=1)
    delta = {k: v - before[k] for k, v in _counters(op).items()}
    assert delta == {"retry.attempts": 3, "retry.gave_up": 1, "transient": 1, "crash_point": 3}
    # the backoff runs through call_with_retry's sleep: one delay for the
    # blip, the policy's whole schedule for the item that gave up
    assert slept == [POLICY.delay(1), *POLICY.delays()]

    (inline,) = seen
    assert [(e["ok"], e["attempts"], e["faults"]) for e in inline] == [
        (True, 2, ["transient"]),
        (False, 3, ["crash_point"] * 3),
    ]
    assert inline[0]["error"] is None and inline[0]["result"] is not None
    assert "FaultInjectedError" in inline[1]["error"] and inline[1]["result"] is None

    run(tmp_path, workers=2)
    pooled = seen[1]
    for key in ("ok", "attempts", "faults", "error"):
        assert [e[key] for e in pooled] == [e[key] for e in inline]
    if caller == "montecarlo":
        assert pooled[0]["result"].theta_hat == inline[0]["result"].theta_hat
    else:
        assert pooled[0]["result"]["makespan_seconds"] == inline[0]["result"]["makespan_seconds"]
