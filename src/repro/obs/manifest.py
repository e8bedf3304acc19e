"""Run manifests: make every benchmark number attributable.

A manifest records everything needed to reproduce (or distrust) a run:
the resolved configuration, the RNG seed, package versions, the git
revision of the working tree, and the platform.  It deliberately
contains **no wall-clock timestamps** — two manifests built from the
same inputs on the same tree are equal dicts, which is what the
determinism tests assert and what makes manifests diff-able across runs.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import platform as _platform
import subprocess
from pathlib import Path
from typing import Mapping

__all__ = ["build_manifest", "git_revision"]

_SCHEMA_VERSION = 1


def _jsonable_config(config: object) -> object:
    """Normalise a config (dataclass, Namespace, mapping, …) to JSON form."""
    if isinstance(config, enum.Enum):  # before int/float — IntEnum subclasses both
        return config.name
    if config is None or isinstance(config, (bool, int, float, str)):
        return config
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config = dataclasses.asdict(config)
    if isinstance(config, Mapping):
        return {
            str(k): _jsonable_config(v)
            for k, v in sorted(config.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(config, (list, tuple, set, frozenset)):
        return [_jsonable_config(v) for v in config]
    if hasattr(config, "__dict__") and not isinstance(config, type):  # Namespace-like
        return _jsonable_config(dict(vars(config)))
    return repr(config)


def git_revision() -> str | None:
    """HEAD revision of the repository containing this package, asked of
    git once per process."""
    return _git_revision(Path(__file__).parent.resolve())


@functools.lru_cache(maxsize=None)
def _git_revision(cwd: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


@functools.lru_cache(maxsize=None)
def _installed_version(pkg: str) -> str | None:
    """``pkg``'s version from its installed metadata, without importing it."""
    import importlib.metadata

    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return None


def _package_versions() -> dict[str, str | None]:
    from .. import __version__ as repro_version

    return {"python": _platform.python_version(), "repro": repro_version,
            "numpy": _installed_version("numpy"), "scipy": _installed_version("scipy")}


def _cache_schema() -> int | None:
    # deferred: repro.sweep imports repro.obs at module level, so a
    # top-level import here would be circular
    try:
        from ..sweep.grid import CACHE_SCHEMA
    except ImportError:
        return None
    return CACHE_SCHEMA


def build_manifest(
    *,
    run_id: str | None = None,
    command: str | None = None,
    config: object = None,
    seed: int | None = None,
    policy: str | None = None,
) -> dict:
    """Build the manifest dict for one run.

    Deterministic given its inputs and the working tree: no timestamps,
    no RNG — ``run_id`` must be supplied by the caller if one is wanted.
    ``policy`` records the active :class:`SchedulePolicy` name; when not
    given it is recovered from ``config`` if the config names one.  The
    sweep ``CACHE_SCHEMA`` version always rides along so stored runs can
    be partitioned by result-layout generation.
    """
    if policy is None and isinstance(config, Mapping):
        maybe = config.get("policy")
        if isinstance(maybe, str):
            policy = maybe
    elif policy is None and hasattr(config, "policy"):
        maybe = getattr(config, "policy")
        if isinstance(maybe, str):
            policy = maybe
    return {
        "schema_version": _SCHEMA_VERSION,
        "run_id": run_id,
        "command": command,
        "seed": seed,
        "policy": policy,
        "cache_schema": _cache_schema(),
        "config": _jsonable_config(config),
        "versions": _package_versions(),
        "git_revision": git_revision(),
        "platform": {
            "system": _platform.system(),
            "machine": _platform.machine(),
            "python_implementation": _platform.python_implementation(),
        },
    }

