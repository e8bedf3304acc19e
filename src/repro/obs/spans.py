"""Span instrumentation: the one clock of the stack.

A *span* is one timed region of a run — a likelihood evaluation, one of
its layers, one task execution, one MLE fit.  Every span fills
:attr:`Span.duration`.  What else it does depends on whether an event
log is attached when it opens:

* **no log** — nothing else: one ``is None`` check and two
  ``perf_counter`` reads, no lock, no registry, no payload;
* **a log** — the span joins the per-thread span stack (its path is
  slash-joined, ``"mle.fit/geostats.log_likelihood"``) and its close
  emits one ``"span"`` event carrying the path, the user attributes and
  ``duration_seconds``.  That event is the only place a duration is
  kept; ``repro analyze`` reads them back as the "time by layer" table.

Use :func:`span` for ad-hoc regions and :func:`traced` for whole
functions.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Callable, TypeVar

from ._runtime import _pop_span, _push_span, current_span_path, emit_event, get_event_log

__all__ = ["Span", "span", "traced"]

F = TypeVar("F", bound=Callable)


class Span:
    """A timed region; the handle :func:`span` returns and ``with`` yields.

    Attributes may be added mid-flight with :meth:`set`; ``duration`` is
    the wall time in seconds once the region has closed.  This base
    class is the span with no event log attached.
    """

    __slots__ = ("name", "attrs", "path", "duration", "_t0")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.path: str | None = None
        self.duration: float | None = None

    def set(self, **attrs: object) -> "Span":
        """Attach extra attributes to the span's completion event."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = perf_counter() - self._t0


class _LoggedSpan(Span):
    """A span opened while an event log is attached: stacked and logged."""

    __slots__ = ()

    def __enter__(self) -> "Span":
        parent = current_span_path()
        self.path = f"{parent}/{self.name}" if parent else self.name
        _push_span(self.path)
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = perf_counter() - self._t0
        _pop_span()
        payload = dict(self.attrs, duration_seconds=self.duration)
        if exc_type is not None:
            payload["error"] = exc_type.__name__
        emit_event("span", payload, span=self.path)


def span(name: str, **attrs: object) -> Span:
    """A span named ``name``: ``with span("core.solve", n=n) as s: ...``.

    ``attrs`` become the attributes of the emitted span event (when a
    log is attached); the measured duration is appended as
    ``duration_seconds``.
    """
    if get_event_log() is None:
        return Span(name, attrs)
    return _LoggedSpan(name, attrs)


def traced(name: str | Callable | None = None, **attrs: object):
    """Decorator form of :func:`span`.

    Works bare (``@traced``) or parameterised
    (``@traced("core.dag_build")``); the span name defaults to the
    function's qualified name.
    """

    def decorate(fn: F, span_name: str | None = None) -> F:
        label = span_name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    if callable(name):  # @traced with no parentheses
        return decorate(name)
    return lambda fn: decorate(fn, name)
