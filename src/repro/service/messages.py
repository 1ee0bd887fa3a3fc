"""Typed messages and the versioned JSON wire codec of the fleet service.

Every interaction with the service — socket ingest, in-process callers,
the parent↔worker pipes of the process-backed shards — speaks the same
protocol: frozen dataclass messages serialized as one JSON
object per line, each carrying the :data:`WIRE_SCHEMA` version tag and
a ``type`` discriminator.  The codec is total in both directions
(``decode_message(encode_message(m)) == m``) and *strict*: unknown
schemas, unknown types, missing or extra fields all raise
:class:`ProtocolError` rather than guessing, so protocol drift between
endpoints fails loudly at the boundary.

Request/response pairing uses the optional ``request_id`` carried by
:class:`SnapshotRequest`/:class:`Shutdown` and echoed by the matching
:class:`SnapshotReply`/:class:`Ack` — multiple requests can be in
flight on one connection.

Two *internal* representations ride alongside the public JSON codec:

* :class:`InjectBatchPacked` — the zero-copy inject batch: pre-interned
  ``(instance, source id, signature id)`` int64 ndarray columns,
  produced once at the ingest boundary and consumed by the shard
  kernels without touching another Python object per event.  It never
  crosses the *public* socket (clients speak strings; ids are private
  to one supervisor's intern tables), so it is deliberately **not**
  part of :data:`MESSAGE_TYPES`.
* The **binary frame codec** (:func:`encode_frame` /
  :func:`decode_frame`) — what the process-backed shards speak over
  their pipes: length-prefixed raw ndarray buffers for packed inject
  batches, with control requests falling back to the JSON wire codec
  inside a ``control`` frame and every reply travelling back as one
  pickle frame.
"""

from __future__ import annotations

import json
import pickle
import struct
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Type, Union

import numpy as np

#: Version tag carried by every wire message.  Bump on any incompatible
#: change to the message set or field layout.
WIRE_SCHEMA = "repro-qss.service/1"


class ProtocolError(ValueError):
    """A wire line that does not decode to a known service message."""


@dataclass(frozen=True)
class InjectEvent:
    """Dispatch one environment event to one fleet instance.

    ``instance`` is the caller's stable instance key (the supervisor
    routes it to a shard; unknown keys register fresh instances on
    first use).  ``source``/``time``/``choices`` mirror
    :class:`repro.runtime.events.Event`.
    """

    instance: int
    source: str
    time: float = 0.0
    choices: Mapping[str, str] = field(default_factory=dict)

    TYPE = "inject"


@dataclass(frozen=True)
class InjectBatch:
    """Dispatch many events in one message (amortizes codec + routing)."""

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
    shards dispatch the columns straight into the kernel.
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
    """Aggregate fleet statistics plus the per-shard breakdown."""

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
        return cls(**kwargs)
    except TypeError as error:
        raise ProtocolError(
            f"bad payload for message type {cls.TYPE!r}: {error}"
        ) from None


def decode_message(line: Union[str, bytes]) -> Message:
    """Parse one wire line back into its typed message (strict)."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
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


# ----------------------------------------------------------------------
# Binary frame codec (process-backend pipes)
# ----------------------------------------------------------------------
#: Version tag of the binary frame layout.  Bump on any change to the
#: frame kinds or section layout.
FRAME_SCHEMA = "repro-qss.frame/1"

#: One-byte frame discriminators.
FRAME_CONTROL = 0x00  # JSON wire-codec line (the fallback for controls)
FRAME_PACKED = 0x01  # packed inject batch: raw int64 ndarray sections
FRAME_RESULT = 0x02  # pickled reply (stats, ack, failure or final result)

_FRAME_MAGIC = b"RQF1"
_U32 = struct.Struct("<I")

#: Signature definitions ride the packed frame as a compact JSON list —
#: ``[[place, chosen], ...]`` per signature, in table-id order starting
#: at the frame's ``sig_base``, so the receiving table replays them into
#: exactly the sender's ids (see ``SignatureTable.definitions``).
SigDefs = List[Tuple[Tuple[str, str], ...]]


def encode_frame_control(message: Message) -> bytes:
    """Wrap one JSON wire line in a control frame."""
    return (
        _FRAME_MAGIC
        + bytes([FRAME_CONTROL])
        + encode_message(message).encode("utf-8")
    )


def encode_frame_result(payload: Any) -> bytes:
    """Wrap one pickled shard reply (up to the final keys + FleetResult)."""
    return _FRAME_MAGIC + bytes([FRAME_RESULT]) + pickle.dumps(payload)


def encode_frame_packed(
    batch: InjectBatchPacked, sig_base: int = 0, sig_defs: Sequence = ()
) -> bytes:
    """Encode a packed inject batch as length-prefixed raw buffers.

    Layout after the magic + kind byte::

        u32 header_len | header JSON | instances | sources | signatures

    where each array section is ``len(batch) * 8`` bytes of little-endian
    int64 — ``ndarray.tobytes()`` of the columns, decoded zero-copy by
    ``np.frombuffer`` on the receiving side.  ``sig_defs`` carries the
    canonical signature definitions for table ids ``sig_base..`` that
    the receiver has not seen yet.
    """
    header = json.dumps(
        {
            "n": len(batch),
            "sig_base": sig_base,
            "sig_defs": [list(map(list, sig)) for sig in sig_defs],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    sections = [
        _FRAME_MAGIC,
        bytes([FRAME_PACKED]),
        _U32.pack(len(header)),
        header,
        np.ascontiguousarray(batch.instances, dtype="<i8").tobytes(),
        np.ascontiguousarray(batch.sources, dtype="<i8").tobytes(),
        np.ascontiguousarray(batch.signatures, dtype="<i8").tobytes(),
    ]
    return b"".join(sections)


def decode_frame(data: bytes) -> Tuple[int, Any]:
    """Decode one binary frame into ``(kind, payload)``.

    ``payload`` is the decoded :class:`Message` for control frames, a
    ``(batch, sig_base, sig_defs)`` triple for packed frames and the
    unpickled object for result frames.  Malformed frames raise
    :class:`ProtocolError` — same strictness contract as the JSON codec.
    """
    if len(data) < 5 or data[:4] != _FRAME_MAGIC:
        raise ProtocolError("binary frame is missing the RQF1 magic")
    kind = data[4]
    body = memoryview(data)[5:]
    if kind == FRAME_CONTROL:
        return kind, decode_message(bytes(body))
    if kind == FRAME_RESULT:
        return kind, pickle.loads(body)
    if kind != FRAME_PACKED:
        raise ProtocolError(f"unknown binary frame kind {kind!r}")
    if len(body) < _U32.size:
        raise ProtocolError("packed frame is truncated before its header")
    (header_len,) = _U32.unpack_from(body, 0)
    header_end = _U32.size + header_len
    try:
        header = json.loads(bytes(body[_U32.size : header_end]))
        n = int(header["n"])
        sig_base = int(header["sig_base"])
        sig_defs: SigDefs = [
            tuple(tuple(pair) for pair in sig) for sig in header["sig_defs"]
        ]
    except (ValueError, KeyError, TypeError) as error:
        raise ProtocolError(f"bad packed frame header: {error}") from None
    section = 8 * n
    if len(body) - header_end != 3 * section:
        raise ProtocolError(
            f"packed frame payload is {len(body) - header_end} bytes, "
            f"expected {3 * section} for {n} events"
        )
    def column(k: int) -> np.ndarray:
        lo = header_end + k * section
        return np.frombuffer(body[lo : lo + section], dtype="<i8")
    batch = InjectBatchPacked(
        instances=column(0), sources=column(1), signatures=column(2)
    )
    return kind, (batch, sig_base, sig_defs)
