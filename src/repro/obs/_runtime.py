"""Process-global observability state.

One :class:`~repro.obs.metrics.MetricsRegistry` and (optionally) one
active :class:`~repro.obs.events.EventLog` per process, plus the
per-thread stack of logged spans.  Instrumentation sites throughout the
codebase call :func:`emit_event` unconditionally — when no event log is
attached the call is a cheap no-op, so the hot paths pay nothing unless
a run is being captured.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Mapping

from .events import EventLog
from .metrics import MetricsRegistry

__all__ = [
    "current_span_path",
    "emit_event",
    "event_log",
    "get_event_log",
    "get_registry",
    "reset_metrics",
    "set_event_log",
]

_registry = MetricsRegistry()
_event_log: EventLog | None = None
_log_lock = threading.Lock()

_tls = threading.local()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def reset_metrics() -> None:
    """Clear every metric in the process registry."""
    _registry.reset()


def get_event_log() -> EventLog | None:
    return _event_log


def set_event_log(log: EventLog | None) -> EventLog | None:
    """Install ``log`` as the process event sink; returns the previous one."""
    global _event_log
    with _log_lock:
        previous = _event_log
        _event_log = log
    return previous


@contextmanager
def event_log(sink, *, run_id: str | None = None) -> Iterator[EventLog]:
    """Attach a JSONL event log for the duration of the ``with`` block.

    ``sink`` is a path or an open text file.  The previous sink (usually
    ``None``) is restored on exit and the log is closed if we opened it.
    """
    log = sink if isinstance(sink, EventLog) else EventLog(sink, run_id=run_id)
    previous = set_event_log(log)
    try:
        yield log
    finally:
        set_event_log(previous)
        log.close()


# -- span stack (per thread) -----------------------------------------------

def _stack() -> list[str]:
    stack = getattr(_tls, "spans", None)
    if stack is None:
        stack = _tls.spans = []
    return stack


def _push_span(path: str) -> None:
    _stack().append(path)


def _pop_span() -> None:
    stack = _stack()
    if stack:
        stack.pop()


def current_span_path() -> str | None:
    """Slash-joined path of the innermost active span on this thread.

    Only spans opened while an event log is attached are stacked: the
    path exists to label logged events.
    """
    stack = _stack()
    return stack[-1] if stack else None


def emit_event(
    type: str,
    attrs: Mapping[str, object] | None = None,
    *,
    span: str | None = None,
    severity: str | None = None,
) -> None:
    """Emit a structured event to the active log (no-op when none).

    The current span path is attached automatically unless ``span`` is
    given explicitly.  ``severity="alert"`` makes the log flush the
    record to disk immediately.
    """
    log = _event_log
    if log is None:
        return
    log.emit(
        type,
        span=span if span is not None else current_span_path(),
        attrs=attrs,
        severity=severity,
    )
