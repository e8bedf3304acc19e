"""Retry with exponential backoff and deterministic jitter.

The execution layers retry *transient* failures — a worker process that
died on one sweep point, an injected blip from a
:class:`~repro.faults.plan.FaultPlan`, a flaky replicate fit — with the
classic policy: delay ``base * multiplier**k``, capped at ``max_delay``,
plus seeded jitter so a fleet of workers does not retry in lock-step.
Jitter is drawn from :class:`random.Random` keyed on ``(seed, attempt)``
— the same policy produces the same delays on every run, which keeps
recovery tests deterministic.

The loop writes no telemetry: it runs inside worker processes, whose
registry dies with them.  :func:`repro.faults.run_batch` reports each
item's attempt count back to the parent, which counts
``retry.attempts{op}`` and ``retry.gave_up{op}`` exactly once.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["RetryError", "RetryPolicy", "call_with_retry"]


class RetryError(RuntimeError):
    """Raised when a policy is exhausted; chains the last failure."""

    def __init__(self, message: str, attempts: int, last: BaseException) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded, seeded jitter.

    ``max_retries`` counts *re*-attempts: a policy with ``max_retries=2``
    makes at most three calls.  ``jitter`` is the fraction of each delay
    drawn uniformly at random (seeded) on top of the deterministic part.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must lie in [0, 1], got {self.jitter}")

    def delay(self, attempt: int) -> float:
        """Backoff before re-attempt ``attempt`` (1-based), jitter included."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        base = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter == 0.0 or base == 0.0:
            return base
        frac = random.Random(f"retry:{self.seed}:{attempt}").random()
        return base * (1.0 + self.jitter * frac)

    def delays(self) -> list[float]:
        """The full deterministic backoff schedule."""
        return [self.delay(k) for k in range(1, self.max_retries + 1)]


def call_with_retry(
    fn: Callable,
    policy: RetryPolicy | None = None,
    *,
    op: str = "call",
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> object:
    """Call ``fn()`` under ``policy``; raise :class:`RetryError` when exhausted.

    ``sleep`` is injectable so tests run the schedule against a fake
    clock; ``on_retry(attempt, exc)`` observes each failure before the
    backoff.
    """
    policy = policy or RetryPolicy()
    attempts = 0
    while True:
        attempts += 1
        try:
            return fn()
        except retry_on as exc:
            if attempts > policy.max_retries:
                raise RetryError(
                    f"{op}: gave up after {attempts} attempt(s): {exc!r}",
                    attempts=attempts,
                    last=exc,
                ) from exc
            if on_retry is not None:
                on_retry(attempts, exc)
            sleep(policy.delay(attempts))

