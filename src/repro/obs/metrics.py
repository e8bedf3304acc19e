"""Metrics registry: counters and gauges with labels.

The paper's headline claims are measurements — bytes moved per link per
precision, conversion counts, busy time per engine — so the reproduction
needs a first-class place to accumulate them.  This module is a small,
dependency-free metrics substrate in the Prometheus idiom:

* a :class:`MetricsRegistry` owns named metrics;
* each metric holds *labeled series* (``counter.inc(3, engine="h2d")``
  and ``counter.inc(5, engine="nic")`` are independent series);
* everything snapshots to plain dicts via :meth:`MetricsRegistry.to_dict`
  for the JSON exporters.

Wall time is not a metric: a :func:`~repro.obs.spans.span` measures it,
and the ``span`` events of the run's event log keep it.
"""

from __future__ import annotations

import threading
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Metric",
    "MetricsRegistry",
]

#: canonical immutable form of a label set
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base class: one named metric holding labeled series."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: dict[LabelKey, float] = {}

    def to_dict(self) -> dict:
        with self._lock:
            series = [
                {"labels": dict(key), "value": val}
                for key, val in sorted(self._series.items())
            ]
        return {"name": self.name, "type": self.kind, "help": self.help, "series": series}


class Counter(Metric):
    """Monotonically increasing sum per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for signed values")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return float(sum(self._series.values()))


class Gauge(Metric):
    """Last-write-wins scalar per label set (can go up and down)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def add(self, delta: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + delta

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))


class MetricsRegistry:
    """Named metrics with create-or-fetch accessors.

    Fetching an existing name with a different metric type raises — a
    registry is a flat namespace shared by every layer of the stack.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _get(self, cls: type, name: str, help: str) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help)
            elif type(metric) is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.__name__.lower()}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)  # type: ignore[return-value]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        with self._lock:
            return iter(list(self._metrics.values()))

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        """Drop every metric (used between runs and by tests)."""
        with self._lock:
            self._metrics.clear()

    def to_dict(self) -> dict:
        """Snapshot every metric: ``{name: {type, help, series: [...]}}``."""
        return {m.name: m.to_dict() for m in sorted(self, key=lambda m: m.name)}
