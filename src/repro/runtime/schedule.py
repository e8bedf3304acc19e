"""Exported static schedules: serialise a committed task order, replay it.

The out-of-core line of work (arXiv 2410.09819) plans tile residency
*once* and then executes a static order with no runtime scheduling
overhead.  This module is the artifact half of that story: a
:class:`StaticSchedule` captures the ``commit_order`` of a simulated run
together with enough fingerprint to validate it against a rebuilt graph,
and round-trips through compact JSON.
:func:`repro.runtime.simulator.simulate_replay` executes the order with
no ready-heap or policy-key work and reproduces the original run
bit-identically — same makespan, same trace content hash
(property-tested across policies in ``tests/test_runtime_ooc.py``).

CLI: ``repro simulate --schedule-out plan.json`` exports, ``repro
simulate --replay plan.json`` replays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .platform import Platform
    from .simulator import SimReport

__all__ = ["StaticSchedule"]

#: on-disk schema tag; bump on incompatible changes
SCHEMA = "repro.schedule/2"


def _platform_fingerprint(platform: "Platform | None") -> dict:
    if platform is None:
        return {}
    node = platform.node
    return {
        "node": node.name,
        "gpu": node.gpu.name,
        "gpus_per_node": node.gpus_per_node,
        "n_nodes": platform.n_nodes,
    }


@dataclass(frozen=True)
class StaticSchedule:
    """A committed task order plus the fingerprint needed to replay it.

    ``order[i]`` is the task id committed at step ``i``; ids are the
    k-major emission ids every build of the same factorization mints,
    so the order replays whether it was recorded from a held graph or a
    streamed run.  ``makespan`` and ``trace_hash`` pin what the replay
    must reproduce.
    """

    policy: str
    order: tuple[int, ...]
    nb: int
    n: int = 0
    platform: dict = field(default_factory=dict)
    makespan: float = 0.0
    trace_hash: str | None = None

    @property
    def n_tasks(self) -> int:
        return len(self.order)

    @classmethod
    def from_report(
        cls,
        report: "SimReport",
        *,
        nb: int,
        n: int = 0,
        platform: "Platform | None" = None,
    ) -> "StaticSchedule":
        """Capture a finished run's committed order as a schedule."""
        if not report.commit_order:
            raise ValueError("report carries no commit_order (pre-schedule run?)")
        trace_hash = report.trace.content_hash() if report.trace.events else None
        return cls(
            policy=report.policy,
            order=tuple(report.commit_order),
            nb=nb,
            n=n,
            platform=_platform_fingerprint(platform),
            makespan=report.makespan,
            trace_hash=trace_hash,
        )

    def validate_against(self, n_tasks: int, platform: "Platform | None" = None) -> None:
        """Fail fast when the schedule cannot drive the rebuilt graph."""
        if self.n_tasks != n_tasks:
            raise ValueError(
                f"schedule covers {self.n_tasks} tasks but the graph has "
                f"{n_tasks}; was it exported from a different n/nb/config?"
            )
        want = _platform_fingerprint(platform)
        if self.platform and want and self.platform != want:
            raise ValueError(
                f"schedule was exported on platform {self.platform} but is "
                f"replaying on {want}; timings would not reproduce"
            )

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "policy": self.policy,
            "n_tasks": self.n_tasks,
            "nb": self.nb,
            "n": self.n,
            "platform": dict(self.platform),
            "makespan_seconds": self.makespan,
            "trace_hash": self.trace_hash,
            "order": list(self.order),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StaticSchedule":
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema != SCHEMA:
            raise ValueError(f"unsupported schedule schema {schema!r} (expected {SCHEMA!r})")
        order = tuple(int(t) for t in payload["order"])
        if len(order) != int(payload.get("n_tasks", len(order))):
            raise ValueError("schedule order length disagrees with its n_tasks header")
        return cls(
            policy=str(payload.get("policy", "panel-first")),
            order=order,
            nb=int(payload["nb"]),
            n=int(payload.get("n", 0)),
            platform=dict(payload.get("platform") or {}),
            makespan=float(payload.get("makespan_seconds", 0.0)),
            trace_hash=payload.get("trace_hash"),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "StaticSchedule":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
