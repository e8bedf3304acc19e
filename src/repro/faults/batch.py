"""The one batch runner: independent items, retried, fault-injected, pooled.

A sweep campaign and a Monte Carlo study are the same job — apply a
picklable function to independent items, inline or across a process
pool, each item re-attempted under a :class:`RetryPolicy` and checked
against a :class:`FaultPlan` before every attempt.  :func:`run_batch` is
that job, once.  A worker never raises: each item comes back as an
envelope ``{ok, result, attempts, faults, error}``, so one poisoned item
cannot abort the batch (or, through a ``BrokenProcessPool``, sink every
other in-flight item).  Workers write no telemetry; the parent counts
``retry.attempts{op}``, ``faults.injected{kind}`` (one ``fault`` event
each) and ``retry.gave_up{op}`` from the envelopes, exactly once, in one
registry and one event log.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Mapping, Sequence

from ..obs import get_registry
from .plan import FaultInjector, FaultPlan, record_faults
from .retry import RetryError, RetryPolicy, call_with_retry

__all__ = ["pick_mp_context", "run_batch"]

#: start methods in preference order: cheapest/most-inheriting first
_START_METHODS = ("fork", "forkserver", "spawn")


def pick_mp_context() -> mp.context.BaseContext:
    """The best available multiprocessing context for worker processes.

    Prefers ``fork``, falls back to ``forkserver`` then ``spawn``;
    raises a clear :class:`RuntimeError` when the platform supports no
    usable start method (so callers can skip cleanly).  Shared by the
    batch pool and the SPMD ranks of :mod:`repro.runtime.distributed`.
    """
    available = mp.get_all_start_methods()
    for method in _START_METHODS:
        if method in available:
            return mp.get_context(method)
    raise RuntimeError(
        "no usable multiprocessing start method: platform offers "
        f"{available or 'none'}, need one of {list(_START_METHODS)}"
    )


def _run_item(payload: tuple) -> dict:
    """One item under retry + fault injection; module-level so pools can pickle it.

    Each item gets its own :class:`FaultInjector`: a spec's ``times`` caps
    its fires per item, whichever process runs it.
    """
    fn, item, labels, policy, plan, op = payload
    injector = FaultInjector(plan)
    retried: list[int] = []  # the failed attempts call_with_retry went on from

    def attempt():
        fault = injector.point_fault(*labels)
        if fault is not None:
            injector.raise_fault(fault, where=f"{op}:{labels[-1]}")
        return fn(item)

    try:
        result = call_with_retry(attempt, policy or RetryPolicy(max_retries=0), op=op,
                                 on_retry=lambda n, _exc: retried.append(n))
    except RetryError as exc:
        return {"ok": False, "result": None, "attempts": exc.attempts,
                "faults": injector.fired, "error": repr(exc.last)}
    return {"ok": True, "result": result, "attempts": len(retried) + 1,
            "faults": injector.fired, "error": None}


def run_batch(
    fn: Callable,
    items: Sequence,
    labels: Sequence[Sequence[str]],
    *,
    op: str,
    workers: int = 1,
    retry_policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | Mapping | None = None,
    on_done: Callable[[int, dict], None] | None = None,
) -> list[dict]:
    """Apply ``fn`` to every item; return one envelope per item, in item order.

    ``labels[i]`` are the identifiers ``fault_plan`` matches item ``i``
    against (:meth:`FaultInjector.point_fault`); ``op`` labels the retry
    counters.  ``workers > 1`` fans the items across a process pool, and
    ``on_done(i, envelope)`` observes item ``i``'s completion as it happens.
    """
    payloads = [(fn, item, tuple(lab), retry_policy, fault_plan, op)
                for item, lab in zip(items, labels)]
    envelopes: list[dict | None] = [None] * len(payloads)

    def done(pos: int, env: dict) -> None:
        envelopes[pos] = env
        if on_done is not None:
            on_done(pos, env)

    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(min(workers, len(payloads)),
                                 mp_context=pick_mp_context()) as pool:
            futures = {pool.submit(_run_item, p): pos for pos, p in enumerate(payloads)}
            for fut in as_completed(futures):
                done(futures[fut], fut.result())
    else:
        for pos, payload in enumerate(payloads):
            done(pos, _run_item(payload))

    registry = get_registry()
    retries = registry.counter("retry.attempts", "re-attempts performed by retry policies")
    gave_up = registry.counter("retry.gave_up", "calls that exhausted their retry policy")
    for env, lab in zip(envelopes, labels):
        retries.inc(env["attempts"] - 1, op=op)
        record_faults(env["faults"], op=op, label=lab[-1])
        if not env["ok"]:
            gave_up.inc(op=op)
    return envelopes
