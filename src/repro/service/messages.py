"""Typed messages and the versioned wire codecs of the fleet service.

The service speaks two wire forms, both tagged with :data:`WIRE_SCHEMA`:

- **JSON lines** carry single injects, the controls and every reply:
  frozen dataclass messages serialized as one JSON object per line,
  each with a ``type`` discriminator.  The codec is total in both
  directions (``decode_message(encode_message(m)) == m``) and *strict*:
  unknown schemas, unknown types, missing or extra fields, and fields
  of the wrong type (an ``instance``, count or ``request_id`` that is
  not an int64 integer, a ``drain``, ``reset_stats`` or ``ok`` that is
  not a boolean, a ``time`` that is not a finite number, ``choices``
  that are not strings mapped to strings, and so on for every field)
  all raise :class:`ProtocolError` rather than guessing, so protocol
  drift between endpoints fails loudly at the boundary.
- **Inject frames** carry batches of injects as binary columns
  (:class:`FrameEncoder` on the client, :class:`FrameDecoder` on the
  server): the magic byte :data:`FRAME_MAGIC`, which no JSON line
  starts with, then the header's length and the row count
  (:data:`FRAME_SIZES`), then a JSON header with the connection's new
  name-table entries, then the little-endian columns instance i64,
  time f64, source id u32 and choice id u32 — :data:`FRAME_ROW_BYTES`
  per event.  The ids index name tables that both ends of one
  connection grow in step: source names, and raw insertion-order
  ``choices.items()`` tuples whose id 0 is ``()``.  The client refuses
  what the JSON decoder refuses, field by field; nothing in a frame is
  ever unpickled or evaluated.  An :class:`InjectView` — the
  ``Sequence[InjectEvent]`` over :class:`EventColumns` that
  :func:`~repro.service.ingest.events_to_injects` returns — is framed
  straight from its columns, with no inject built.

Request/response pairing uses the optional ``request_id`` carried by
:class:`SnapshotRequest`/:class:`Reload`/:class:`Shutdown` and echoed
by the matching :class:`SnapshotReply`/:class:`Ack` — multiple requests
can be in flight on one connection.  An inject or a frame gets a reply
only when it is rejected: a not-ok :class:`Ack` with ``request_id`` 0.

One *internal* representation rides alongside the wire forms:
:class:`InjectBatchPacked`, the zero-copy inject batch of pre-interned
``(instance, source id, signature id)`` int64 ndarray columns,
produced once at the ingest boundary and consumed by the shard's
kernel without touching another Python object per event.  It never
crosses the socket (a frame's ids index its connection's tables;
kernel ids are private to one supervisor's intern tables), so it is
deliberately **not** part of :data:`MESSAGE_TYPES`.
"""

from __future__ import annotations

import json
import math
import operator
import reprlib
import struct
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NoReturn,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from ..runtime.events import EventColumns, RawChoices

#: Version tag carried by every wire message and frame header.  Bump on
#: any incompatible change to the message set, a field layout or the
#: frame layout.
WIRE_SCHEMA = "repro-qss.service/4"


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


#: Rows an :class:`InjectView` turns into injects per step of an iteration.
_VIEW_BATCH = 4096


class InjectView(SequenceABC):
    """Injects as a ``Sequence[InjectEvent]`` over one :class:`EventColumns`.

    The per-row counterpart of
    :class:`~repro.runtime.events.EventStreams`: row ``i`` of
    :attr:`columns` is inject ``i``, whose ``instance`` is the row's
    instance key.  ``view[i]`` builds that :class:`InjectEvent` on
    demand, its fields plain Python values and its ``choices`` a fresh
    dict; a slice, with any step, is again a view, over sliced column
    views that share the name tables; iteration builds the injects a
    batch of rows at a time.  Equality goes by content against any
    sequence, so a view equals the list of its injects.
    """

    def __init__(self, columns: EventColumns) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return InjectView(self.columns.take(index))
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("inject index out of range")
        return self._injects(index, index + 1)[0]

    def __iter__(self) -> Iterator[InjectEvent]:
        for lo in range(0, len(self), _VIEW_BATCH):
            yield from self._injects(lo, lo + _VIEW_BATCH)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return len(other) == len(self) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"InjectView({list(self)!r})"

    def _injects(self, lo: int, hi: int) -> List[InjectEvent]:
        columns = self.columns
        sources, choices = columns.sources, columns.choices
        return [
            InjectEvent(
                instance=instance, source=sources[s], time=t, choices=dict(choices[g])
            )
            for instance, s, t, g in zip(
                columns.instance[lo:hi].tolist(),
                columns.source[lo:hi].tolist(),
                columns.time[lo:hi].tolist(),
                columns.signature[lo:hi].tolist(),
            )
        ]


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
    """Ask for the fleet's statistics (reply: :class:`SnapshotReply`)."""

    request_id: int = 0

    TYPE = "snapshot"


@dataclass(frozen=True)
class SnapshotReply:
    """The fleet's live statistics, as its one shard reports them.

    ``queue_depth`` counts the inbox items queued behind the request,
    ``throughput_eps`` the events served per second since the shard
    started, and ``percentiles`` the per-instance cycle percentiles.
    """

    request_id: int
    instances: int
    events: int
    cycles: int
    budget_stops: int
    queue_depth: int
    throughput_eps: float
    percentiles: Mapping[str, float]

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
    SnapshotRequest,
    SnapshotReply,
    Shutdown,
    Reload,
    Ack,
]

MESSAGE_TYPES: Dict[str, Type[Any]] = {
    cls.TYPE: cls
    for cls in (
        InjectEvent,
        SnapshotRequest,
        SnapshotReply,
        Shutdown,
        Reload,
        Ack,
    )
}


def encode_message(message: Message) -> str:
    """Serialize one message to its wire line (no trailing newline)."""
    payload: Dict[str, Any] = {}
    for spec in fields(message):
        value = getattr(message, spec.name)
        payload[spec.name] = dict(value) if isinstance(value, Mapping) else value
    payload["schema"] = WIRE_SCHEMA
    payload["type"] = message.TYPE
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


#: The range of a wire integer: the kernels carry instance keys in int64
#: columns, and counts and request ids stay in the same range.
INSTANCE_MIN, INSTANCE_MAX = -(2**63), 2**63 - 1


def _int64(value: Any) -> bool:
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and INSTANCE_MIN <= value <= INSTANCE_MAX
    )


def _finite_real(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _strings_to(valid: Callable[[Any], bool]) -> Callable[[Any], bool]:
    """The check of a dict whose keys are strings and values ``valid``."""
    return lambda value: isinstance(value, dict) and all(
        isinstance(key, str) and valid(item) for key, item in value.items()
    )


def _is(kind: type) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, kind)


_INT64 = (_int64, "an integer within int64")
_BOOL = (_is(bool), "a boolean")
_STRING = (_is(str), "a string")
_FINITE = (_finite_real, "a finite number")

#: The wire type of every message field, by name: its check, and what a
#: refusal says it expected.
_WIRE_TYPES: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "instance": _INT64,
    "request_id": _INT64,
    "instances": _INT64,
    "events": _INT64,
    "cycles": _INT64,
    "budget_stops": _INT64,
    "queue_depth": _INT64,
    "drain": _BOOL,
    "reset_stats": _BOOL,
    "ok": _BOOL,
    "source": _STRING,
    "error": _STRING,
    "time": _FINITE,
    "throughput_eps": _FINITE,
    "choices": (_strings_to(_is(str)), "an object mapping strings to strings"),
    "percentiles": (
        _strings_to(_finite_real),
        "an object mapping strings to finite numbers",
    ),
}


def _check_fields(message: Message) -> None:
    """Refuse a message whose fields do not have their wire types."""
    for spec in fields(message):
        valid, expected = _WIRE_TYPES[spec.name]
        value = getattr(message, spec.name)
        if not valid(value):
            raise ProtocolError(
                f"bad {message.TYPE} field {spec.name!r}: expected {expected}, "
                f"got {reprlib.repr(value)}"
            )


def _from_payload(cls: Type[Any], payload: Mapping[str, Any]) -> Any:
    names = {spec.name for spec in fields(cls)}
    extra = set(payload) - names
    if extra:
        raise ProtocolError(
            f"unknown field(s) {sorted(extra)} for message type {cls.TYPE!r}"
        )
    try:
        message = cls(**payload)
    except TypeError as error:
        raise ProtocolError(
            f"bad payload for message type {cls.TYPE!r}: {error}"
        ) from None
    _check_fields(message)
    return message


def decode_message(line: Union[str, bytes]) -> Message:
    """Parse one wire line back into its typed message (strict)."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as error:
        # ValueError: bad JSON or bad UTF-8; RecursionError: nesting
        # deeper than the parser's stack
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
# Inject frames
# ----------------------------------------------------------------------
#: First byte of an inject frame.  No JSON line starts with it: it is
#: not ``{`` or whitespace, and it never occurs in UTF-8 text.
FRAME_MAGIC = b"\xfb"

#: The rest of a frame's prefix, after the magic byte: the header's
#: length in bytes and the row count (little-endian u32 each).
FRAME_SIZES = struct.Struct("<II")

#: The frame's columns after its header, in order, one value per row.
FRAME_COLUMNS = (
    ("instance", "<i8"),
    ("time", "<f8"),
    ("source", "<u4"),
    ("signature", "<u4"),
)

#: Bytes per frame row.
FRAME_ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in FRAME_COLUMNS)


def inject_columns(events: Iterable[InjectEvent]) -> EventColumns:
    """The columns of injects, each row keyed by its event's ``instance``.

    An :class:`InjectView` is columns already: its :attr:`InjectView.columns`
    are returned as they are, as :func:`~repro.runtime.events.as_columns`
    returns ``EventStreams.columns``.  Any other sequence is packed once,
    event by event (:meth:`EventColumns.pack`).
    """
    if isinstance(events, InjectView):
        return events.columns
    return EventColumns.pack((event.instance, event) for event in events)


#: Inject fields checked by the types their values have (``source`` and
#: the strings of ``choices`` are checked per name-table entry).
_FIELD_TYPES = (
    (
        attrgetter("instance"),
        lambda kind: issubclass(kind, int) and not issubclass(kind, bool),
    ),
    (
        attrgetter("time"),
        lambda kind: issubclass(kind, (int, float)) and not issubclass(kind, bool),
    ),
    (attrgetter("choices"), lambda kind: issubclass(kind, dict)),
)


def _refuse(events: Sequence[InjectEvent]) -> NoReturn:
    """Raise the error of the first inject the JSON decoder refuses.

    Reached only once a column check failed, to name the field as a
    JSON line would.
    """
    for event in events:
        _check_fields(event)
    raise ProtocolError("bad inject batch")


def _string_pairs(raw: Any) -> bool:
    return all(
        isinstance(pair, (list, tuple))
        and len(pair) == 2
        and isinstance(pair[0], str)
        and isinstance(pair[1], str)
        for pair in raw
    )


def _used(table: Sequence[Any], ids: np.ndarray) -> Tuple[List[Any], np.ndarray]:
    """The entries of ``table`` that ``ids`` name, in table order, and
    each id's index among them: one :func:`numpy.unique` over the ids,
    so the cost does not grow with the table."""
    used, rows = np.unique(ids, return_inverse=True)
    return [table[i] for i in used.tolist()], rows


class FrameEncoder:
    """The client end of one connection's inject frames.

    It keeps the connection's name tables — source names, and raw choice
    tuples whose id 0 is ``()`` — and sends each entry once, in the
    header of the first frame whose rows use it.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, int] = {}
        self._choices: Dict[RawChoices, int] = {(): 0}

    def encode(self, events: Sequence[InjectEvent]) -> bytes:
        """One frame of ``events``, over their :func:`inject_columns`.

        An :class:`InjectView`'s columns are framed as they are, with a
        few vector operations; any other sequence is checked per field
        type and packed once, event by event.  Either way the times are
        checked to be finite and every table entry new to the connection
        to be a string or a tuple of string pairs.  A refused field
        raises :class:`ProtocolError` naming it, as a JSON line would,
        before the tables advance, so the refused events never reach the
        wire.  The entries the rows use are found with one
        :func:`numpy.unique` per id column, so the header carries only
        new entries that the rows use, and a chunk's cost does not grow
        with a view's whole-stream tables.
        """
        if not isinstance(events, InjectView):
            # a view's int64 and float64 columns hold these types already
            for field_of, allowed in _FIELD_TYPES:
                if not all(map(allowed, set(map(type, map(field_of, events))))):
                    _refuse(events)
        try:
            columns = inject_columns(events)
            row_sources, source_rows = _used(columns.sources, columns.source)
            row_choices, choice_rows = _used(columns.choices, columns.signature)
            sources = [name for name in row_sources if name not in self._sources]
            choices = [raw for raw in row_choices if raw not in self._choices]
        except (OverflowError, TypeError):
            # an instance beyond int64 or a time beyond float; an
            # unhashable source or choice
            _refuse(events)
        if (
            not all(isinstance(name, str) for name in sources)
            or not all(map(_string_pairs, choices))
            or not np.isfinite(columns.time).all()
        ):
            _refuse(events)
        header = json.dumps(
            {"schema": WIRE_SCHEMA, "sources": sources, "choices": choices},
            separators=(",", ":"),
        ).encode()
        header += b" " * (-len(header) % 8)  # aligns the 8-byte columns
        for name in sources:
            self._sources[name] = len(self._sources)
        for raw in choices:
            self._choices[raw] = len(self._choices)
        source_ids = np.array([self._sources[name] for name in row_sources], "<u4")
        choice_ids = np.array([self._choices[raw] for raw in row_choices], "<u4")
        return b"".join(
            (
                FRAME_MAGIC,
                FRAME_SIZES.pack(len(header), len(columns)),
                header,
                columns.instance.astype("<i8", copy=False).tobytes(),
                columns.time.astype("<f8", copy=False).tobytes(),
                source_ids[source_rows].tobytes(),
                choice_ids[choice_rows].tobytes(),
            )
        )


class FrameDecoder:
    """The server end of one connection's inject frames: the client's
    name tables, grown by each frame's header."""

    def __init__(self) -> None:
        self.sources: Tuple[str, ...] = ()
        self.choices: Tuple[RawChoices, ...] = ((),)

    def add_tables(self, header: bytes) -> None:
        """Append a frame header's new name-table entries.

        A header that is not the expected JSON shape raises
        :class:`ProtocolError`: the tables can no longer be kept in step
        with the client's, so the connection cannot go on.
        """
        try:
            payload = json.loads(header)
        except (ValueError, RecursionError) as error:
            raise ProtocolError(f"frame header is not valid JSON: {error}") from None
        if not isinstance(payload, dict) or set(payload) != {
            "schema",
            "sources",
            "choices",
        }:
            raise ProtocolError(
                "frame header must hold exactly schema, sources and choices"
            )
        if payload["schema"] != WIRE_SCHEMA:
            raise ProtocolError(
                f"unsupported wire schema {payload['schema']!r} "
                f"(expected {WIRE_SCHEMA!r})"
            )
        sources, choices = payload["sources"], payload["choices"]
        if not (
            isinstance(sources, list)
            and all(isinstance(name, str) for name in sources)
            and isinstance(choices, list)
            and all(isinstance(raw, list) and _string_pairs(raw) for raw in choices)
        ):
            raise ProtocolError(
                "frame header tables must be a list of source names and a "
                "list of [place, transition] string pair lists"
            )
        self.sources += tuple(sources)
        self.choices += tuple(tuple(map(tuple, raw)) for raw in choices)

    def columns(self, body: bytes, offset: int, rows: int) -> EventColumns:
        """The ``rows`` rows stored in ``body`` from ``offset`` on, as
        columns over the connection's tables (no copy of the instance
        and time columns).

        A row naming an id beyond the tables, or a time that is not
        finite, raises :class:`ProtocolError`; the frame is then refused
        whole.
        """
        arrays = []
        for _, dtype in FRAME_COLUMNS:
            arrays.append(np.frombuffer(body, dtype, rows, offset))
            offset += rows * arrays[-1].itemsize
        instance, time, source, signature = arrays
        for name, ids, table in (
            ("source", source, self.sources),
            ("choices", signature, self.choices),
        ):
            if (ids >= len(table)).any():
                raise ProtocolError(
                    f"bad inject field {name!r}: id {int(ids.max())} is beyond "
                    f"the connection's {len(table)} table entries"
                )
        finite = np.isfinite(time)
        if not finite.all():
            raise ProtocolError(
                f"bad inject field 'time': expected a finite number, "
                f"got {float(time[~finite][0])!r}"
            )
        return EventColumns(
            time=time,
            instance=instance,
            source=source.astype(np.int64),
            signature=signature.astype(np.int64),
            sources=self.sources,
            choices=self.choices,
        )
