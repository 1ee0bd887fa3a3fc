"""Versioned JSON-lines telemetry for the running fleet service.

``repro-qss serve --telemetry FILE`` appends one JSON object per line
while the service runs, one record per sampling tick: the shard's
instances, events (total and since the previous tick), throughput,
queue depth, budget stops and cycle percentiles, as its
:class:`~repro.service.messages.SnapshotReply` reports them.  Every
record carries the :data:`TELEMETRY_SCHEMA` tag so downstream consumers
can detect layout changes; :func:`validate_telemetry_record` is the
normative definition of the layout and is pinned by
``tests/test_service_layer.py``.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Mapping, Optional

from .messages import _finite_real

#: Version tag carried by every telemetry record.
TELEMETRY_SCHEMA = "repro-qss.telemetry/2"

#: Records a :class:`TelemetryWriter` buffers before it writes them
#: without waiting for :meth:`TelemetryWriter.flush`.
BUFFER_LIMIT = 256

_FIELDS = {
    "schema": str,
    "elapsed_seconds": (int, float),
    "instances": int,
    "events": int,
    "events_delta": int,
    "throughput_eps": (int, float),
    "queue_depth": int,
    "budget_stops": int,
    "cycle_percentiles": Mapping,
}


def validate_telemetry_record(record: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid telemetry line."""
    if not isinstance(record, Mapping):
        raise ValueError("telemetry record must be a JSON object")
    schema = record.get("schema")
    if schema != TELEMETRY_SCHEMA:
        raise ValueError(
            f"unsupported telemetry schema {schema!r} "
            f"(expected {TELEMETRY_SCHEMA!r})"
        )
    for name, types in _FIELDS.items():
        if name not in record:
            raise ValueError(f"telemetry record is missing field {name!r}")
        if not isinstance(record[name], types):  # type: ignore[arg-type]
            raise ValueError(
                f"telemetry field {name!r} has wrong type "
                f"{type(record[name]).__name__}"
            )
        if isinstance(record[name], bool):
            raise ValueError(f"telemetry field {name!r} has wrong type bool")
    # the wire codec's rule: strict JSON has no NaN or Infinity
    for name in ("elapsed_seconds", "throughput_eps"):
        if not _finite_real(record[name]):
            raise ValueError(
                f"telemetry field {name!r} must be a finite number, "
                f"got {record[name]!r}"
            )
    for key, value in record["cycle_percentiles"].items():
        if not isinstance(key, str) or not _finite_real(value):
            raise ValueError("cycle_percentiles must map strings to finite numbers")


class TelemetryWriter:
    """Append validated telemetry records to a JSON-lines file.

    Emits are **buffered**: each record is serialized into an in-memory
    list and the file sees one ``write`` + ``flush`` per :meth:`flush`
    call, which the sampling loop makes once per tick.
    :data:`BUFFER_LIMIT` bounds memory against callers that never
    flush; :meth:`close` always flushes what remains.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[IO[str]] = open(path, "a", encoding="utf-8")
        self._buffer: list = []

    def emit(self, record: Dict[str, Any]) -> None:
        record.setdefault("schema", TELEMETRY_SCHEMA)
        validate_telemetry_record(record)
        if self._fh is None:
            raise ValueError("telemetry writer is closed")
        self._buffer.append(json.dumps(record, sort_keys=True))
        if len(self._buffer) >= BUFFER_LIMIT:
            self.flush()

    def flush(self) -> None:
        """Write every buffered record in one call and flush the file."""
        if self._fh is None:
            raise ValueError("telemetry writer is closed")
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
