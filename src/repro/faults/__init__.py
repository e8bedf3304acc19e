"""repro.faults — deterministic fault injection, retry, and the batch runner.

Production-scale runs lose ranks, drop messages, and straggle; this
package makes those failures *schedulable* so the recovery paths of the
execution layers are tested code instead of hope:

* **fault plans** (:mod:`repro.faults.plan`) — a seeded, picklable
  script of failures (:class:`FaultPlan` of :class:`FaultSpec`) that
  :mod:`repro.runtime.distributed` and :func:`run_batch` consult at
  their injection points, with per-process runtime state in a
  :class:`FaultInjector`;
* **retry** (:mod:`repro.faults.retry`) — :class:`RetryPolicy`
  (exponential backoff, capped, seeded jitter) driven through
  :func:`call_with_retry`, the one retry loop;
* **the batch runner** (:mod:`repro.faults.batch`) — :func:`run_batch`
  applies a function to independent items, inline or across a process
  pool, each under the retry policy and the fault plan; the sweep
  engine and the Monte Carlo driver are its two callers.

Injectors and retry loops write no telemetry: they run in workers whose
registry and log die with them.  The parent process counts
``faults.injected{kind}`` (emitting one ``fault`` event per fired fault,
:func:`record_faults`), ``retry.attempts{op}`` and ``retry.gave_up{op}``
from what its workers report.  See ``docs/RESILIENCE.md``.
"""

from .batch import pick_mp_context, run_batch
from .plan import (
    FAULT_KINDS,
    FAULT_MODES,
    FaultInjectedError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    record_faults,
)
from .retry import RetryError, RetryPolicy, call_with_retry

__all__ = [
    "FAULT_KINDS",
    "FAULT_MODES",
    "FaultInjectedError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryError",
    "RetryPolicy",
    "call_with_retry",
    "pick_mp_context",
    "record_faults",
    "run_batch",
]
