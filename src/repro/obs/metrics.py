"""Metrics registry: counters, gauges, histograms, timers with labels.

The paper's headline claims are measurements — bytes moved per link per
precision, conversion counts, busy time per engine — so the reproduction
needs a first-class place to accumulate them.  This module is a small,
dependency-free metrics substrate in the Prometheus idiom:

* a :class:`MetricsRegistry` owns named metrics;
* each metric holds *labeled series* (``counter.inc(3, engine="h2d")``
  and ``counter.inc(5, engine="nic")`` are independent series);
* everything snapshots to plain dicts via :meth:`MetricsRegistry.to_dict`
  for the JSON exporters.

Histograms keep a bounded reservoir (deterministic stride-doubling
decimation, no RNG) so per-task observations stay O(1) memory even for
the quarter-million-task runs of Fig. 12.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "Timer",
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
        self._series: dict[LabelKey, object] = {}

    def labels_seen(self) -> list[dict[str, str]]:
        with self._lock:
            return [dict(key) for key in self._series]

    def _series_to_dict(self, value: object) -> object:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_dict(self) -> dict:
        with self._lock:
            series = [
                {"labels": dict(key), "value": self._series_to_dict(val)}
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

    def _series_to_dict(self, value: object) -> object:
        return value


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

    def _series_to_dict(self, value: object) -> object:
        return value


class _HistSeries:
    """Running stats plus a bounded deterministic reservoir."""

    __slots__ = ("count", "total", "min", "max", "samples", "stride", "_phase")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: list[float] = []
        self.stride = 1  # keep every stride-th observation
        self._phase = 0

    def observe(self, value: float, cap: int) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._phase += 1
        if self._phase >= self.stride:
            self._phase = 0
            self.samples.append(value)
            if len(self.samples) >= cap:
                # deterministic decimation: drop every other kept sample,
                # double the stride — memory stays bounded, the reservoir
                # remains a uniform systematic sample of the stream
                self.samples = self.samples[::2]
                self.stride *= 2


class Histogram(Metric):
    """Distribution of observations with quantile queries.

    ``max_samples`` bounds the per-series reservoir; count/sum/min/max
    are always exact.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", *, max_samples: int = 4096) -> None:
        super().__init__(name, help)
        self.max_samples = max(2, int(max_samples))

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistSeries()
            series.observe(float(value), self.max_samples)

    def count(self, **labels: object) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.total if series is not None else 0.0

    def mean(self, **labels: object) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or series.count == 0:
                return math.nan
            return series.total / series.count

    def quantile(self, q: float, **labels: object) -> float:
        """Empirical quantile (nearest-rank on the reservoir)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or not series.samples:
                return math.nan
            ordered = sorted(series.samples)
        idx = min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)
        return ordered[max(0, idx)]

    def _series_to_dict(self, value: object) -> object:
        series = value  # type: _HistSeries
        ordered = sorted(series.samples)

        def _q(q: float) -> float | None:
            if not ordered:
                return None
            idx = max(0, min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1))
            return ordered[idx]

        return {
            "count": series.count,
            "sum": series.total,
            "min": series.min if series.count else None,
            "max": series.max if series.count else None,
            "mean": (series.total / series.count) if series.count else None,
            "p50": _q(0.50),
            "p90": _q(0.90),
            "p99": _q(0.99),
        }


class Timer(Histogram):
    """Histogram of elapsed seconds with a context-manager front-end."""

    kind = "timer"

    class _Running:
        def __init__(self, timer: "Timer", labels: dict) -> None:
            self._timer = timer
            self._labels = labels
            self.elapsed = 0.0

        def __enter__(self) -> "Timer._Running":
            import time

            self._t0 = time.perf_counter()
            return self

        def __exit__(self, *exc) -> None:
            import time

            self.elapsed = time.perf_counter() - self._t0
            self._timer.observe(self.elapsed, **self._labels)

    def time(self, **labels: object) -> "Timer._Running":
        return Timer._Running(self, dict(labels))


class MetricsRegistry:
    """Named metrics with create-or-fetch accessors.

    Fetching an existing name with a different metric type raises — a
    registry is a flat namespace shared by every layer of the stack.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _get(self, cls: type, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, **kwargs)
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

    def histogram(self, name: str, help: str = "", *, max_samples: int = 4096) -> Histogram:
        return self._get(Histogram, name, help, max_samples=max_samples)  # type: ignore[return-value]

    def timer(self, name: str, help: str = "", *, max_samples: int = 4096) -> Timer:
        return self._get(Timer, name, help, max_samples=max_samples)  # type: ignore[return-value]

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
