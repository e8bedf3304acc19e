"""Deterministic fault plans: *which* failure happens *where*, on purpose.

The paper's runs survive Summit-scale realities — ranks die, links
stall, workers straggle — and a reproduction that only ever executes on
a healthy laptop never exercises the recovery paths it claims to have.
A :class:`FaultPlan` is a declarative, seeded script of failures that
the execution layers (:mod:`repro.runtime.distributed`, and
:func:`repro.faults.batch.run_batch` for the sweep engine and the Monte
Carlo driver) consult at well-defined points: *kill rank 2 when it
reaches task 17*, *drop the third message rank 0 sends*, *crash the sweep worker on point X twice*,
*fail the first attempt of every matching point with probability 0.5*.

Determinism is the design constraint: the same plan with the same seed
fires the same faults in the same places on every run, so a recovery
test is a regression test rather than a flake generator.  Probabilistic
faults draw from a :class:`random.Random` keyed on ``(seed, spec index,
occasion index)`` — no global RNG state, no cross-run drift.

Runtime state (how many times each fault has fired) lives in a
:class:`FaultInjector`, one per process; plans themselves are frozen and
picklable so they cross process boundaries with the work.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from ..obs import emit_event, get_registry, write_json

__all__ = [
    "FAULT_KINDS",
    "FAULT_MODES",
    "FaultInjectedError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "record_faults",
]

#: supported fault kinds
FAULT_KINDS = ("kill_rank", "drop_message", "delay_message", "crash_point", "transient")

#: how a ``kill_rank`` fault terminates the rank: ``sigkill`` (hard kill,
#: non-zero exit), ``exit0`` (exits cleanly without reporting — the
#: nastiest case for a parent that only checks non-zero exit codes), or
#: ``exception`` (raises, so the rank reports its own failure)
FAULT_MODES = ("sigkill", "exit0", "exception")


class FaultInjectedError(RuntimeError):
    """Raised (or reported) where an injected fault fires as an exception."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted failure.

    ``kind`` decides which fields matter:

    * ``kill_rank`` — kill ``rank`` when it is about to execute global
      task id ``task`` (``mode`` picks how it dies);
    * ``drop_message`` / ``delay_message`` — the ``message``-th outbound
      payload of ``rank`` is dropped / delayed by ``delay_s`` seconds;
    * ``crash_point`` — raise :class:`FaultInjectedError` when a sweep /
      Monte Carlo worker starts a point whose label or key contains
      ``point`` (empty string matches every point);
    * ``transient`` — like ``crash_point`` but framed as a recoverable
      blip: typically ``times=1`` so the first attempt fails and the
      retry succeeds.

    ``times`` caps how often the fault fires per process (``None`` means
    unlimited); ``probability`` < 1 makes each occasion a deterministic
    seeded coin flip.
    """

    kind: str
    rank: int | None = None
    task: int | None = None
    message: int | None = None
    point: str | None = None
    times: int | None = 1
    probability: float = 1.0
    delay_s: float = 0.05
    mode: str = "sigkill"
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; expected one of {FAULT_MODES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {self.probability}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be positive or None, got {self.times}")
        if self.delay_s < 0.0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")
        if self.kind == "kill_rank" and (self.rank is None or self.task is None):
            raise ValueError("kill_rank needs both rank and task")
        if self.kind in ("drop_message", "delay_message") and (
            self.rank is None or self.message is None
        ):
            raise ValueError(f"{self.kind} needs both rank and message")
        if self.kind in ("crash_point", "transient") and self.point is None:
            raise ValueError(f"{self.kind} needs point (use '' to match every point)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "FaultSpec":
        return cls(**dict(d))


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable script of :class:`FaultSpec` failures."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def to_dict(self) -> dict:
        return {
            "schema": "repro.faults/1",
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "FaultPlan":
        faults = tuple(FaultSpec.from_dict(f) for f in d.get("faults", ()))
        return cls(faults=faults, seed=int(d.get("seed", 0)))

    def save(self, path: str | Path) -> Path:
        return write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


class FaultInjector:
    """Per-process runtime state of a :class:`FaultPlan`.

    The execution layers ask it at their injection points (``kill_at``,
    ``message_fault``, ``point_fault``); a spec that matches, has fires
    left, and wins its seeded coin flip *fires*: it is returned, and its
    kind is appended to :attr:`fired`.  The caller then carries out the
    failure.  An injector writes no telemetry — it usually lives in a
    worker process whose registry and log die with it — so its owner
    ships :attr:`fired` back to the parent, which calls
    :func:`record_faults`.
    """

    def __init__(self, plan: FaultPlan | Mapping | None) -> None:
        if plan is not None and not isinstance(plan, FaultPlan):
            plan = FaultPlan.from_dict(plan)
        self.plan = plan or FaultPlan()
        self.fired: list[str] = []  # kinds, in firing order
        self._fired: dict[int, int] = {}   # spec index -> times fired
        self._occasions: dict[int, int] = {}  # spec index -> matches seen

    def _arm(self, idx: int, spec: FaultSpec) -> FaultSpec | None:
        """Decide whether occasion ``k`` of spec ``idx`` fires (deterministic)."""
        occasion = self._occasions.get(idx, 0)
        self._occasions[idx] = occasion + 1
        if spec.times is not None and self._fired.get(idx, 0) >= spec.times:
            return None
        if spec.probability < 1.0:
            coin = random.Random(f"fault:{self.plan.seed}:{idx}:{occasion}").random()
            if coin >= spec.probability:
                return None
        self._fired[idx] = self._fired.get(idx, 0) + 1
        self.fired.append(spec.kind)
        return spec

    def kill_at(self, rank: int, task: int) -> FaultSpec | None:
        """The armed ``kill_rank`` fault for (rank, task), if any."""
        for idx, spec in enumerate(self.plan.faults):
            if spec.kind == "kill_rank" and spec.rank == rank and spec.task == task:
                armed = self._arm(idx, spec)
                if armed is not None:
                    return armed
        return None

    def message_fault(self, rank: int, message: int) -> FaultSpec | None:
        """The armed drop/delay fault for the ``message``-th send of ``rank``."""
        for idx, spec in enumerate(self.plan.faults):
            if spec.kind in ("drop_message", "delay_message") and (
                spec.rank == rank and spec.message == message
            ):
                armed = self._arm(idx, spec)
                if armed is not None:
                    return armed
        return None

    def point_fault(self, *labels: str) -> FaultSpec | None:
        """The armed ``crash_point``/``transient`` fault matching any label.

        ``labels`` are the point's identifiers (cache key, human label);
        a spec matches when its ``point`` is a substring of any of them.
        """
        for idx, spec in enumerate(self.plan.faults):
            if spec.kind not in ("crash_point", "transient"):
                continue
            if any(spec.point in label for label in labels if label):
                armed = self._arm(idx, spec)
                if armed is not None:
                    return armed
        return None

    @staticmethod
    def raise_fault(spec: FaultSpec, where: str) -> None:
        """Carry out a fired ``spec`` as a :class:`FaultInjectedError`."""
        raise FaultInjectedError(
            f"injected {spec.kind} at {where}" + (f" ({spec.note})" if spec.note else "")
        )


def record_faults(kinds: Sequence[str], **attrs: object) -> None:
    """Count ``faults.injected{kind}`` and emit one ``fault`` event per kind.

    Called in the parent process with the :attr:`FaultInjector.fired`
    lists its workers report, so every fired fault lands exactly once in
    the registry and the event log that outlive the run.  ``attrs``
    (``rank``, ``op``, ``label``) ride on each event.
    """
    counter = get_registry().counter("faults.injected", "faults fired from the active fault plan")
    for kind in kinds:
        counter.inc(kind=kind)
        emit_event("fault", {"kind": kind, **attrs})
