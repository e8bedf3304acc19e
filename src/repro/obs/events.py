"""Structured JSONL run logs.

One JSON object per line, one line per event.  Every record carries the
run id, a monotonic timestamp (seconds since the log was opened — immune
to wall-clock jumps), a sequence number (total order even when two
events land in the same clock tick), the event type, the span path that
was active when the event fired, and a free-form attribute dict:

    {"run_id": "a1b2c3", "seq": 7, "ts": 0.0123, "type": "mle.iteration",
     "span": "mle.fit", "attrs": {"k": 3, "loglik": -512.4}}

The format is append-only and crash-tolerant: a truncated final line is
skipped on read, everything before it survives.  A bad line anywhere
else is an error, not an early end.
"""

from __future__ import annotations

import enum
import json
import threading
import time
import uuid
from pathlib import Path
from typing import IO, Iterator, Mapping

__all__ = ["EventLog", "iter_events", "read_events"]


def _jsonable(value: object) -> object:
    """Coerce arbitrary attribute values into JSON-encodable form."""
    if isinstance(value, enum.Enum):  # before int/float — IntEnum subclasses both
        return value.name
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "name") and not isinstance(value, type):  # enums, Precision
        return getattr(value, "name")
    if hasattr(value, "item"):  # numpy scalars
        try:
            return value.item()
        except Exception:
            pass
    if hasattr(value, "tolist"):  # numpy arrays
        try:
            return value.tolist()
        except Exception:
            pass
    return repr(value)


class EventLog:
    """Append-only JSONL sink for one run's telemetry events."""

    def __init__(
        self,
        sink: str | Path | IO[str],
        *,
        run_id: str | None = None,
    ) -> None:
        if hasattr(sink, "write"):
            self._fh: IO[str] = sink  # type: ignore[assignment]
            self._owns_fh = False
            self.path: Path | None = None
        else:
            self.path = Path(sink)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")
            self._owns_fh = True
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._seq = 0
        self._closed = False
        self._keys: set[object] = set()

    @property
    def n_events(self) -> int:
        return self._seq

    def emit(
        self,
        type: str,
        *,
        span: str | None = None,
        attrs: Mapping[str, object] | None = None,
        severity: str | None = None,
    ) -> None:
        """Append one event; thread-safe, silently dropped after close.

        ``severity="alert"`` flushes the sink immediately — a crash right
        after an alert (``distributed.rank_silent``) must still leave it
        on disk.
        """
        record: dict[str, object] = {
            "run_id": self.run_id,
            "ts": round(time.monotonic() - self._t0, 9),
            "type": type,
        }
        if span is not None:
            record["span"] = span
        if severity is not None:
            record["severity"] = severity
        record["attrs"] = {str(k): _jsonable(v) for k, v in (attrs or {}).items()}
        with self._lock:
            if self._closed:
                return
            # seq is stamped under the lock, giving events a total order
            record["seq"] = self._seq
            self._seq += 1
            self._fh.write(json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n")
            if severity == "alert":
                self._fh.flush()

    def first_time(self, key: object) -> bool:
        """True on the first call with ``key`` in this log, False after:
        a payload keyed by content rides on its key's first event only."""
        with self._lock:
            if key in self._keys:
                return False
            self._keys.add(key)
            return True

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.flush()
            if self._owns_fh:
                self._fh.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_events(path: str | Path) -> Iterator[dict]:
    """Yield the records of a JSONL event log, skipping a torn tail line.

    Only the last line may be torn (a crash mid-write); an unreadable
    line with records after it is corruption and raises ``ValueError``
    naming the path and line number.
    """
    torn = None  # number of the unreadable line, while it is the last one seen
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if torn is not None:
                raise ValueError(f"{path}: line {torn} is not a JSON event")
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                torn = number
                continue
            yield record


def read_events(path: str | Path) -> list[dict]:
    """Load a JSONL event log into memory."""
    return list(iter_events(path))
