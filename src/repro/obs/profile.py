"""Low-overhead wall-clock profiling for the hot loops.

The ROADMAP's "simulator raw speed and million-task scale" item needs
*evidence*: which frames the event loop actually spends its wall time
in, at overheads small enough to leave the measured workload honest.
Two complementary instruments, both stdlib-only:

* :class:`SamplingProfiler` — a daemon thread that snapshots the target
  thread's stack via ``sys._current_frames()`` every ``interval``
  seconds (no ``sys.setprofile``/``signal`` hooks, so the profiled code
  runs at full speed between samples).  Each sample credits the top
  frame with *self* time and every frame on the stack with *cumulative*
  time; the profiler times its own sampling work and reports the
  measured overhead fraction, so "overhead < 5 %" is a checked number,
  not a promise.
* :func:`hot_region` — explicit named regions around the known hot
  loops (the simulator's ready-heap loop, the DAG unroll, the sweep
  pool dispatch).  When no profiler is active the call returns a shared
  no-op context manager — one global read and no allocation — so the
  instrumented paths cost effectively nothing in normal runs.

``repro simulate/sweep --profile-out`` wrap their normal work in the
profiler and print the hottest frames.  The report document (schema
``repro.obs.profile/1``) carries the run's ``tasks_per_second``.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Mapping

__all__ = [
    "PROFILE_SCHEMA",
    "SamplingProfiler",
    "active_profiler",
    "hot_region",
    "write_profile",
]

PROFILE_SCHEMA = "repro.obs.profile/1"

#: (function, filename, firstlineno) — the identity of one frame
FrameKey = tuple[str, str, int]


class _NullRegion:
    """Shared no-op context manager returned when no profiler is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullRegion":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_REGION = _NullRegion()
_active_profiler: "SamplingProfiler | None" = None
_active_lock = threading.Lock()


def active_profiler() -> "SamplingProfiler | None":
    """The profiler currently collecting hot-region timings (or None)."""
    return _active_profiler


def hot_region(name: str):
    """Context manager timing one named hot region.

    Free when no profiler is active (one global read, shared no-op
    object); while a :class:`SamplingProfiler` runs, enter/exit cost two
    ``perf_counter`` calls and a dict update.
    """
    prof = _active_profiler
    if prof is None:
        return _NULL_REGION
    return _Region(prof, name)


class _Region:
    __slots__ = ("_prof", "_name", "_t0")

    def __init__(self, prof: "SamplingProfiler", name: str) -> None:
        self._prof = prof
        self._name = name

    def __enter__(self) -> "_Region":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._prof._record_region(self._name, time.perf_counter() - self._t0)
        return False


class SamplingProfiler:
    """Sampling wall-clock profiler over ``sys._current_frames()``.

    Samples the thread that called :meth:`start` (typically the main
    thread driving the simulator) at ``interval`` seconds.  The sampler
    thread never touches interpreter hooks, so the profiled code pays
    only the GIL handoffs of the snapshot itself; the time the sampler
    spends capturing and aggregating is accumulated and reported as
    ``overhead_seconds`` / ``overhead_fraction``.
    """

    def __init__(
        self,
        interval: float = 0.005,
        *,
        max_stack_depth: int = 64,
    ) -> None:
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        self.interval = float(interval)
        self.max_stack_depth = int(max_stack_depth)
        self.n_samples = 0
        self.self_counts: dict[FrameKey, int] = {}
        self.cum_counts: dict[FrameKey, int] = {}
        self.regions: dict[str, list] = {}  # name -> [calls, seconds]
        self._region_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._target_tid: int | None = None
        self._t_start: float | None = None
        self._t_stop: float | None = None
        self._sample_seconds = 0.0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        """Begin sampling the calling thread; installs as the active profiler."""
        global _active_profiler
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._target_tid = threading.get_ident()
        self._t_start = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        with _active_lock:
            self._previous = _active_profiler
            _active_profiler = self
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        global _active_profiler
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._t_stop = time.perf_counter()
        with _active_lock:
            if _active_profiler is self:
                _active_profiler = self._previous
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- collection -------------------------------------------------------
    def _record_region(self, name: str, seconds: float) -> None:
        with self._region_lock:
            agg = self.regions.get(name)
            if agg is None:
                agg = self.regions[name] = [0, 0.0]
            agg[0] += 1
            agg[1] += seconds

    def _run(self) -> None:
        target = self._target_tid
        while not self._stop.wait(self.interval):
            t0 = time.perf_counter()
            frame = sys._current_frames().get(target)
            if frame is not None:
                self.n_samples += 1
                code = frame.f_code
                top: FrameKey = (code.co_name, code.co_filename, code.co_firstlineno)
                self.self_counts[top] = self.self_counts.get(top, 0) + 1
                seen: set[FrameKey] = set()
                depth = 0
                while frame is not None and depth < self.max_stack_depth:
                    code = frame.f_code
                    key: FrameKey = (code.co_name, code.co_filename, code.co_firstlineno)
                    if key not in seen:
                        seen.add(key)
                        self.cum_counts[key] = self.cum_counts.get(key, 0) + 1
                    frame = frame.f_back
                    depth += 1
                del frame
            self._sample_seconds += time.perf_counter() - t0

    # -- reporting --------------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        if self._t_start is None:
            return 0.0
        end = self._t_stop if self._t_stop is not None else time.perf_counter()
        return end - self._t_start

    @property
    def overhead_seconds(self) -> float:
        """Wall time the sampler itself spent capturing + aggregating."""
        return self._sample_seconds

    @property
    def overhead_fraction(self) -> float:
        wall = self.wall_seconds
        return self._sample_seconds / wall if wall > 0.0 else 0.0

    def top_frames(self, top: int = 10) -> list[dict]:
        """The hottest frames by self samples, cumulative split included."""
        n = max(1, self.n_samples)
        ranked = sorted(
            self.self_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[: max(0, top)]
        return [
            {
                "function": fn,
                "file": filename,
                "line": lineno,
                "self_samples": count,
                "cum_samples": self.cum_counts.get((fn, filename, lineno), count),
                "self_fraction": count / n,
                "cum_fraction": self.cum_counts.get((fn, filename, lineno), count) / n,
            }
            for (fn, filename, lineno), count in ranked
        ]

    def report(self, *, top: int = 10, extra: Mapping[str, object] | None = None) -> dict:
        """The machine-readable profile document (``repro.obs.profile/1``)."""
        wall = self.wall_seconds
        doc: dict[str, object] = {
            "schema": PROFILE_SCHEMA,
            "interval_seconds": self.interval,
            "wall_seconds": wall,
            "n_samples": self.n_samples,
            "overhead_seconds": self.overhead_seconds,
            "overhead_fraction": self.overhead_fraction,
            "top_frames": self.top_frames(top),
            "hot_regions": [
                {
                    "name": name,
                    "calls": calls,
                    "seconds": seconds,
                    "fraction": (seconds / wall) if wall > 0.0 else 0.0,
                }
                for name, (calls, seconds) in sorted(
                    self.regions.items(), key=lambda kv: -kv[1][1]
                )
            ],
        }
        if extra:
            doc.update({str(k): v for k, v in extra.items()})
        return doc

    def render(self, *, top: int = 10) -> str:
        """Human-readable top-frame table plus the overhead line."""
        from ..bench.reporting import format_table

        frames = self.top_frames(top)
        rows = [
            (
                f"{f['self_fraction'] * 100.0:5.1f}%",
                f"{f['cum_fraction'] * 100.0:5.1f}%",
                f["self_samples"],
                f["function"],
                f"{_short_path(f['file'])}:{f['line']}",
            )
            for f in frames
        ]
        title = (
            f"profile: {self.n_samples} samples over {self.wall_seconds:.3f} s "
            f"(interval {self.interval * 1e3:g} ms, measured overhead "
            f"{self.overhead_fraction * 100.0:.2f}%)"
        )
        lines = [format_table(["self", "cum", "samples", "function", "where"], rows,
                              title=title)]
        if self.regions:
            wall = self.wall_seconds or 1.0
            region_rows = [
                (name, calls, f"{seconds:.4f}", f"{seconds / wall * 100.0:5.1f}%")
                for name, (calls, seconds) in sorted(
                    self.regions.items(), key=lambda kv: -kv[1][1]
                )
            ]
            lines.append(format_table(
                ["hot region", "calls", "seconds", "of wall"], region_rows,
                title="instrumented hot regions",
            ))
        return "\n\n".join(lines)


def _short_path(path: str) -> str:
    """Trim a source path to its last three components for the table."""
    parts = Path(path).parts
    return "/".join(parts[-3:]) if len(parts) > 3 else path


def write_profile(path: str | Path, doc: Mapping[str, object]) -> Path:
    """Serialise a profile document to pretty JSON."""
    from .exporters import write_json

    return write_json(path, doc)
