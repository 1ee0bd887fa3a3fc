"""Typed messages and the versioned JSON wire codec of the fleet service.

Every interaction with the service — socket ingest and in-process
callers — speaks the same protocol: frozen dataclass messages
serialized as one JSON object per line, each carrying the
:data:`WIRE_SCHEMA` version tag and a ``type`` discriminator.  The
codec is total in both directions
(``decode_message(encode_message(m)) == m``) and *strict*: unknown
schemas, unknown types, missing or extra fields, and inject fields of
the wrong type (an ``instance`` that is not an int64 integer, a
``source`` that is not a string, a ``time`` that is not a finite
number, ``choices`` that are not strings mapped to strings) all raise
:class:`ProtocolError` rather than guessing, so protocol drift between
endpoints fails loudly at the boundary.

Request/response pairing uses the optional ``request_id`` carried by
:class:`SnapshotRequest`/:class:`Reload`/:class:`Shutdown` and echoed
by the matching :class:`SnapshotReply`/:class:`Ack` — multiple requests
can be in flight on one connection.  An inject gets a reply only when it
is rejected: a not-ok :class:`Ack` with ``request_id`` 0.

One *internal* representation rides alongside the public JSON codec:
:class:`InjectBatchPacked`, the zero-copy inject batch of pre-interned
``(instance, source id, signature id)`` int64 ndarray columns,
produced once at the ingest boundary and consumed by the shard's
kernel without touching another Python object per event.  It never crosses
the socket (clients speak strings; ids are private to one supervisor's
intern tables), so it is deliberately **not** part of
:data:`MESSAGE_TYPES`.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Sequence, Tuple, Type, Union

import numpy as np

#: Version tag carried by every wire message.  Bump on any incompatible
#: change to the message set or field layout.
WIRE_SCHEMA = "repro-qss.service/2"


class ProtocolError(ValueError):
    """A wire line that does not decode to a known service message."""


@dataclass(frozen=True)
class InjectEvent:
    """Dispatch one environment event to one fleet instance.

    ``instance`` is the caller's stable instance key (unknown keys
    register fresh instances on first use).  ``source``/``time``/``choices`` mirror
    :class:`repro.runtime.events.Event`.
    """

    instance: int
    source: str
    time: float = 0.0
    choices: Mapping[str, str] = field(default_factory=dict)

    TYPE = "inject"


@dataclass(frozen=True)
class InjectBatch:
    """Dispatch many events in one message (amortizes codec + packing)."""

    events: Tuple[InjectEvent, ...]

    TYPE = "inject_batch"


@dataclass(frozen=True, eq=False)
class InjectBatchPacked:
    """Zero-copy inject batch: pre-interned int64 id columns.

    ``instances`` carries the callers' stable instance keys,
    ``sources`` compiled transition ids and ``signatures`` ids from the
    supervisor's shared :class:`~repro.runtime.fleet.SignatureTable`.
    The three arrays are index-aligned (event ``j`` is row ``j`` of
    each) and ordered — per-instance event order is their order here.
    Built once at the ingest boundary (:meth:`FleetSupervisor.pack`);
    the shard dispatches the columns straight into the kernel.
    """

    instances: np.ndarray
    sources: np.ndarray
    signatures: np.ndarray

    TYPE = "inject_batch_packed"

    def __len__(self) -> int:
        return len(self.sources)

    def take(self, index: np.ndarray) -> "InjectBatchPacked":
        """The sub-batch selected by ``index`` (order preserved)."""
        return InjectBatchPacked(
            instances=self.instances[index],
            sources=self.sources[index],
            signatures=self.signatures[index],
        )

    @staticmethod
    def concat(batches: Sequence["InjectBatchPacked"]) -> "InjectBatchPacked":
        """Coalesce several packed batches into one (order preserved)."""
        if len(batches) == 1:
            return batches[0]
        return InjectBatchPacked(
            instances=np.concatenate([b.instances for b in batches]),
            sources=np.concatenate([b.sources for b in batches]),
            signatures=np.concatenate([b.signatures for b in batches]),
        )


@dataclass(frozen=True)
class SnapshotRequest:
    """Ask for aggregate + per-shard statistics (reply: :class:`SnapshotReply`)."""

    request_id: int = 0

    TYPE = "snapshot"


@dataclass(frozen=True)
class ShardStats:
    """One shard's live statistics, embedded in :class:`SnapshotReply`."""

    shard: int
    instances: int
    events: int
    cycles: int
    queue_depth: int
    budget_stops: int
    throughput_eps: float
    percentiles: Mapping[str, float] = field(default_factory=dict)

    TYPE = "shard_stats"


@dataclass(frozen=True)
class SnapshotReply:
    """Aggregate fleet statistics plus the shard's own (a 1-tuple)."""

    request_id: int
    instances: int
    events: int
    cycles: int
    budget_stops: int
    shards: Tuple[ShardStats, ...] = ()

    TYPE = "snapshot_reply"


@dataclass(frozen=True)
class Shutdown:
    """Stop the service; ``drain=True`` serves queued events first."""

    drain: bool = True
    request_id: int = 0

    TYPE = "shutdown"


@dataclass(frozen=True)
class Reload:
    """Reset every instance to the initial marking without restarting.

    ``reset_stats=False`` keeps the accumulated accounting across the
    reload (markings restart, counters continue).
    """

    reset_stats: bool = True
    request_id: int = 0

    TYPE = "reload"


@dataclass(frozen=True)
class Ack:
    """Generic acknowledgement (shutdown confirmation, errors)."""

    request_id: int = 0
    ok: bool = True
    error: str = ""

    TYPE = "ack"


Message = Union[
    InjectEvent,
    InjectBatch,
    SnapshotRequest,
    ShardStats,
    SnapshotReply,
    Shutdown,
    Reload,
    Ack,
]

MESSAGE_TYPES: Dict[str, Type[Any]] = {
    cls.TYPE: cls
    for cls in (
        InjectEvent,
        InjectBatch,
        SnapshotRequest,
        ShardStats,
        SnapshotReply,
        Shutdown,
        Reload,
        Ack,
    )
}


def _to_payload(message: Message) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    for spec in fields(message):
        value = getattr(message, spec.name)
        if isinstance(value, tuple):
            value = [_to_payload(item) if hasattr(item, "TYPE") else item for item in value]
        elif isinstance(value, Mapping):
            value = dict(value)
        payload[spec.name] = value
    return payload


def encode_message(message: Message) -> str:
    """Serialize one message to its wire line (no trailing newline)."""
    payload = _to_payload(message)
    payload["schema"] = WIRE_SCHEMA
    payload["type"] = message.TYPE
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


#: The range of an inject's ``instance`` key: the kernels carry keys in
#: int64 columns.
INSTANCE_MIN, INSTANCE_MAX = -(2**63), 2**63 - 1


def _finite_real(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _check_inject(event: InjectEvent) -> None:
    """Refuse an inject whose fields do not have their wire types."""
    instance = event.instance
    if (
        isinstance(instance, bool)
        or not isinstance(instance, int)
        or not INSTANCE_MIN <= instance <= INSTANCE_MAX
    ):
        name, expected = "instance", "an integer within int64"
    elif not isinstance(event.source, str):
        name, expected = "source", "a string"
    elif not _finite_real(event.time):
        name, expected = "time", "a finite number"
    elif not isinstance(event.choices, dict) or not all(
        isinstance(place, str) and isinstance(chosen, str)
        for place, chosen in event.choices.items()
    ):
        name, expected = "choices", "an object mapping strings to strings"
    else:
        return
    raise ProtocolError(
        f"bad inject field {name!r}: expected {expected}, "
        f"got {reprlib.repr(getattr(event, name))}"
    )


def _from_payload(cls: Type[Any], payload: Mapping[str, Any]) -> Any:
    names = {spec.name for spec in fields(cls)}
    extra = set(payload) - names
    if extra:
        raise ProtocolError(
            f"unknown field(s) {sorted(extra)} for message type {cls.TYPE!r}"
        )
    kwargs = dict(payload)
    try:
        if cls is InjectBatch:
            kwargs["events"] = tuple(
                _from_payload(InjectEvent, item) for item in kwargs.get("events", ())
            )
        elif cls is SnapshotReply:
            kwargs["shards"] = tuple(
                _from_payload(ShardStats, item) for item in kwargs.get("shards", ())
            )
        message = cls(**kwargs)
    except TypeError as error:
        raise ProtocolError(
            f"bad payload for message type {cls.TYPE!r}: {error}"
        ) from None
    if cls is InjectEvent:
        _check_inject(message)
    return message


def decode_message(line: Union[str, bytes]) -> Message:
    """Parse one wire line back into its typed message (strict)."""
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ProtocolError(f"wire line is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("wire line must be a JSON object")
    schema = payload.pop("schema", None)
    if schema != WIRE_SCHEMA:
        raise ProtocolError(
            f"unsupported wire schema {schema!r} (expected {WIRE_SCHEMA!r})"
        )
    kind = payload.pop("type", None)
    cls = MESSAGE_TYPES.get(kind)
    if cls is None:
        raise ProtocolError(f"unknown message type {kind!r}")
    return _from_payload(cls, payload)
