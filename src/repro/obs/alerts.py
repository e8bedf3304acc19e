"""Declarative alert rules and the run watchdog.

The live telemetry plane (:mod:`repro.obs.live`) captures a progress
snapshot every bus interval; this module is what *judges* those
snapshots.  An :class:`AlertRule` states one invariant a healthy run
keeps — the heartbeat stays fresh, the tasks/sec rate stays above a
floor, a memory-pressure gauge stays below a ceiling, no distributed
rank goes silent — and the :class:`Watchdog` evaluates every rule
against every snapshot, emitting a ``live.<rule>`` obs-event (at alert
severity, which the :class:`~repro.obs.events.EventLog` flushes to disk
immediately) on the rising edge of each breach, and optionally aborting
the run.

Rules reuse the :class:`~repro.obs.regress.Threshold` machinery of the
regression sentinel: a metric rule is "candidate value vs a fixed
baseline bound, in the metric's bad direction", exactly how ``repro
compare`` judges a perf trajectory — the only difference is that here
the candidate is a live snapshot instead of a finished BENCH document.

CLI syntax (``repro simulate/sweep --alert RULE``)::

    stall=SECONDS             no heartbeat for SECONDS (run hung)
    rank-silent=SECONDS       a live distributed rank is SECONDS silent
    METRIC<FLOOR              snapshot metric dropped below FLOOR
    METRIC>CEILING            snapshot metric rose above CEILING
    ...:abort                 suffix: also abort the run when fired

``METRIC`` names a top-level snapshot field (``tasks_per_second``,
``live_tasks``, ``heartbeat_age_seconds``…), a gauge set through
:func:`repro.obs.live.set_live_gauge` (``host_pressure``…), or a
registry counter's per-second rate (``sim.evictions``…).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ._runtime import emit_event, get_registry
from .regress import Threshold, _compare_metric

__all__ = [
    "AlertRule",
    "Watchdog",
    "WatchdogAbort",
    "parse_alert_arg",
]

_RULE_KINDS = ("stall", "metric", "rank-silent")

#: gauge-name prefix the distributed parent uses for per-rank heartbeat
#: ages; the ``rank-silent`` rule scans these (see runtime/distributed.py)
RANK_AGE_GAUGE = "rank_heartbeat_age"


class WatchdogAbort(RuntimeError):
    """Raised into the run's hot loop when an ``abort`` rule fires."""


@dataclass(frozen=True)
class AlertRule:
    """One invariant a healthy run keeps, stated declaratively.

    ``kind`` picks the evaluation: ``stall`` and ``rank-silent`` compare
    heartbeat ages against ``max_age_seconds``; ``metric`` compares a
    snapshot value against ``bound`` under ``threshold`` (direction
    ``higher`` = alert when the value falls below the bound, ``lower`` =
    alert when it rises above — same semantics as the regression
    sentinel's bad-direction check).  ``grace_seconds`` suppresses the
    rule early in the run (rates need a few samples to settle);
    ``abort`` additionally raises :class:`WatchdogAbort` in the run.
    """

    name: str
    kind: str = "metric"
    metric: str | None = None
    bound: float | None = None
    max_age_seconds: float | None = None
    threshold: Threshold = field(default=Threshold(0.0, "higher"))
    grace_seconds: float = 0.0
    abort: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _RULE_KINDS:
            raise ValueError(f"alert kind must be one of {_RULE_KINDS}, got {self.kind!r}")
        if self.kind in ("stall", "rank-silent"):
            if self.max_age_seconds is None or self.max_age_seconds <= 0.0:
                raise ValueError(f"{self.kind} rule needs max_age_seconds > 0")
        else:
            if not self.metric:
                raise ValueError("metric rule needs a metric name")
            if self.bound is None:
                raise ValueError("metric rule needs a bound")
        if self.grace_seconds < 0.0:
            raise ValueError("grace_seconds must be non-negative")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "bound": self.bound,
            "max_age_seconds": self.max_age_seconds,
            "rel_tol": self.threshold.rel_tol,
            "direction": self.threshold.direction,
            "grace_seconds": self.grace_seconds,
            "abort": self.abort,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "AlertRule":
        return cls(
            name=str(doc["name"]),
            kind=str(doc.get("kind", "metric")),
            metric=doc.get("metric"),
            bound=doc.get("bound"),
            max_age_seconds=doc.get("max_age_seconds"),
            threshold=Threshold(
                float(doc.get("rel_tol", 0.0)), str(doc.get("direction", "higher"))
            ),
            grace_seconds=float(doc.get("grace_seconds", 0.0)),
            abort=bool(doc.get("abort", False)),
        )


def parse_alert_arg(spec: str) -> AlertRule:
    """Parse one ``--alert`` argument into an :class:`AlertRule`.

    Forms: ``stall=10``, ``rank-silent=5``, ``tasks_per_second<1000``,
    ``host_pressure>0.9`` — each optionally suffixed ``:abort``.
    """
    text = spec.strip()
    abort = False
    if text.endswith(":abort"):
        abort = True
        text = text[: -len(":abort")]
    if not text:
        raise ValueError(f"empty alert rule in {spec!r}")

    for kind in ("stall", "rank-silent"):
        if text.startswith(kind + "="):
            try:
                seconds = float(text[len(kind) + 1:])
            except ValueError:
                raise ValueError(f"bad {kind} seconds in alert rule {spec!r}") from None
            return AlertRule(name=kind, kind=kind, max_age_seconds=seconds, abort=abort)

    for op, direction in (("<", "higher"), (">", "lower")):
        if op in text:
            metric, _, bound_s = text.partition(op)
            metric = metric.strip()
            try:
                bound = float(bound_s)
            except ValueError:
                raise ValueError(f"bad bound in alert rule {spec!r}") from None
            if not metric:
                raise ValueError(f"missing metric name in alert rule {spec!r}")
            return AlertRule(
                name=metric,
                kind="metric",
                metric=metric,
                bound=bound,
                threshold=Threshold(0.0, direction),
                # rates need at least one bus interval to exist at all
                grace_seconds=2.0 if direction == "higher" else 0.0,
                abort=abort,
            )
    raise ValueError(
        f"cannot parse alert rule {spec!r}: expected stall=SECONDS, "
        "rank-silent=SECONDS, METRIC<FLOOR, or METRIC>CEILING "
        "(optionally suffixed :abort)"
    )


def _snapshot_value(snap: Mapping, metric: str) -> float | None:
    """Resolve a metric-rule name against one snapshot document."""
    for source in (snap, snap.get("gauges") or {}, snap.get("counter_rates") or {}):
        value = source.get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return None


class Watchdog:
    """Evaluates alert rules against live snapshots; fires on rising edges.

    One event per incident: a rule that stays breached across many
    snapshots emits once, re-arming only after the condition clears.
    Fired alerts bump the ``live.alerts`` counter (labelled by rule) and
    emit ``live.<rule>`` at alert severity; an ``abort`` rule also calls
    ``abort_hook`` (the live plane wires this to the progress state, so
    the next heartbeat in the run's hot loop raises
    :class:`WatchdogAbort`).
    """

    def __init__(
        self,
        rules: Iterable[AlertRule],
        *,
        abort_hook: Callable[[str], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rules = list(rules)
        self._abort_hook = abort_hook
        self._clock = clock
        self._active: set[str] = set()
        self._fired: list[dict] = []

    @property
    def active(self) -> list[str]:
        """Names of the rules currently breached (sorted)."""
        return sorted(self._active)

    @property
    def fired(self) -> list[dict]:
        """Every alert fired so far (rising edges), oldest first."""
        return list(self._fired)

    def observe(self, snap: Mapping) -> list[str]:
        """Evaluate every rule against ``snap``; returns active rule names."""
        if snap.get("complete"):
            # a finished run cannot stall or run slow; clear and re-arm
            self._active.clear()
            return []
        elapsed = snap.get("elapsed_seconds")
        for rule in self.rules:
            breached, value, detail = self._evaluate(rule, snap)
            if breached and isinstance(elapsed, (int, float)):
                breached = elapsed >= rule.grace_seconds
            if not breached:
                self._active.discard(rule.name)
                continue
            if rule.name in self._active:
                continue  # still the same incident — already reported
            self._active.add(rule.name)
            self._fire(rule, value, detail, snap)
        return self.active

    # -- internals --------------------------------------------------------
    def _evaluate(self, rule: AlertRule, snap: Mapping) -> tuple[bool, float | None, str]:
        if rule.kind == "stall":
            if snap.get("phase") in (None, "idle"):
                return False, None, ""
            age = snap.get("heartbeat_age_seconds")
            if not isinstance(age, (int, float)):
                return False, None, ""
            return (
                float(age) > rule.max_age_seconds,
                float(age),
                f"no heartbeat for {age:.2f} s (limit {rule.max_age_seconds:g} s)",
            )
        if rule.kind == "rank-silent":
            gauges = snap.get("gauges") or {}
            prefix = f"{RANK_AGE_GAUGE}["
            silent = {
                name[len(prefix):-1]: float(age)
                for name, age in gauges.items()
                if name.startswith(prefix) and name.endswith("]")
                and isinstance(age, (int, float)) and age > rule.max_age_seconds
            }
            if not silent:
                return False, None, ""
            worst = max(silent.values())
            ranks = ", ".join(sorted(silent))
            return True, worst, (
                f"rank(s) {ranks} silent for up to {worst:.2f} s "
                f"(limit {rule.max_age_seconds:g} s)"
            )
        # metric rule: live value vs fixed bound, regression-sentinel style
        value = _snapshot_value(snap, rule.metric or "")
        if value is None:
            return False, None, ""
        delta = _compare_metric("live", rule.metric or "", rule.bound or 0.0,
                                value, rule.threshold)
        side = "below floor" if rule.threshold.direction == "higher" else "above ceiling"
        return (
            delta.regressed,
            value,
            f"{rule.metric} = {value:g} {side} {rule.bound:g}",
        )

    def _fire(self, rule: AlertRule, value: float | None, detail: str, snap: Mapping) -> None:
        record = {
            "rule": rule.name,
            "kind": rule.kind,
            "value": value,
            "detail": detail,
            "abort": rule.abort,
            "phase": snap.get("phase"),
            "done": snap.get("done"),
            "total": snap.get("total"),
            "elapsed_seconds": snap.get("elapsed_seconds"),
        }
        self._fired.append(record)
        get_registry().counter(
            "live.alerts", "watchdog alerts fired (rising edges)"
        ).inc(rule=rule.name)
        emit_event(f"live.{rule.name}", record, severity="alert")
        if rule.abort and self._abort_hook is not None:
            self._abort_hook(f"watchdog alert {rule.name!r}: {detail}")
