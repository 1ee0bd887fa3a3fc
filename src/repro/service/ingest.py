"""Event ingest: the socket server and its client.

:class:`IngestServer` exposes a running
:class:`~repro.service.supervisor.FleetSupervisor` over TCP.  A client
sends JSON lines (single injects and the controls) and binary inject
frames (batches), both defined in :mod:`repro.service.messages`; the
server tells them apart by the first byte and answers in JSON lines.
Injects propagate the shard actor's backpressure naturally: the
connection handler ``await``s the supervisor, so while the shard's inbox
is full the handler stops reading its socket, the kernel buffer and
TCP window fill, and the *client* slows down — overload degrades to
latency, never to unbounded server memory.

A bad request is answered with a ``not-ok``
:class:`~repro.service.messages.Ack` carrying the error, and the
connection stays up: a malformed line (an inject field of the wrong
type included), a frame whose rows name an id beyond the connection's
tables or a time that is not finite, an inject or frame naming an
unknown source transition (none of its events is served), a control
request that reaches a failed or stopped shard, and any request that
arrives after the supervisor stopped.  Only what leaves the stream out
of step drops its connection, and only that one: a line longer than
:data:`STREAM_LIMIT`, a frame prefix whose sizes exceed it (checked
before the frame's body is read), a frame header that is not the
expected JSON shape, and end of stream inside a frame.

:class:`ServiceClient` speaks both forms over a socket (inject /
inject_batch / snapshot / reload / shutdown): what external producers
use, and what the socket tests drive.  In-process callers use the
supervisor directly.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..petrinet.exceptions import NotEnabledError
from ..runtime.events import EventColumns, as_columns
from .messages import (
    FRAME_MAGIC,
    FRAME_ROW_BYTES,
    FRAME_SIZES,
    Ack,
    FrameDecoder,
    FrameEncoder,
    InjectEvent,
    InjectView,
    Message,
    ProtocolError,
    Reload,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    decode_message,
    encode_message,
)
from .shard import ShardFailed
from .supervisor import FleetSupervisor, SupervisorNotRunning

#: The largest line, or frame header plus rows, the server reads, in
#: bytes (and the client's stream buffer limit).  Anything larger closes
#: its connection rather than being buffered.
STREAM_LIMIT = 16 * 1024 * 1024

#: Rows per inject frame: :meth:`ServiceClient.inject_batch` splits
#: larger batches so no frame approaches :data:`STREAM_LIMIT`.
BATCH_CHUNK = 4096

#: Seconds :meth:`IngestServer.stop` lets closed connections flush
#: their pending replies before it aborts them.
STOP_GRACE = 5.0


class _OutOfStep(Exception):
    """The connection's stream can no longer be read in step: drop it."""


class IngestServer:
    """TCP front end for a fleet supervisor: JSON lines and inject frames."""

    def __init__(
        self,
        supervisor: FleetSupervisor,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Open client connections: handler task -> its stream writer.
        self._connections: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}
        #: Set when a client sends :class:`Shutdown`; the owner of the
        #: supervisor awaits this (or a duration timeout) and then calls
        #: ``supervisor.stop(drain=shutdown_drain)``, the client's
        #: choice — the server never stops the fleet itself.
        self.shutdown_requested = asyncio.Event()
        self.shutdown_drain = True

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=STREAM_LIMIT
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop listening, close every open client connection and wait
        for its handler to finish.

        A client that stays connected must not outlive the server: its
        handler would be cancelled at event-loop teardown, and
        ``Server.wait_closed()`` waits for open connections on newer
        Pythons.
        """
        if self._server is not None:
            self._server.close()
            while self._connections:  # handlers accepted meanwhile too
                for writer in self._connections.values():
                    writer.close()
                _, stuck = await asyncio.wait(
                    list(self._connections), timeout=STOP_GRACE
                )
                for task in stuck:
                    # a client that never reads holds its handler in
                    # drain(), and close() waits for that flush
                    self._connections[task].transport.abort()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        frames = FrameDecoder()
        try:
            while True:
                first = await reader.read(1)
                if not first:
                    break
                try:
                    if first == FRAME_MAGIC:
                        message = await self._read_frame(reader, frames)
                    else:
                        message = await self._read_line(reader, first)
                except ProtocolError as error:
                    await self._reply(writer, Ack(ok=False, error=str(error)))
                    continue
                if message is None:
                    continue
                try:
                    reply = await self._serve(message)
                except (
                    NotEnabledError,
                    ShardFailed,
                    SupervisorNotRunning,
                ) as error:
                    # NotEnabledError: pack() rejected the whole line or
                    # frame before queueing it, so none of its events is
                    # served; SupervisorNotRunning: the request outlived
                    # supervisor.stop() on a connection still open
                    reply = Ack(
                        request_id=getattr(message, "request_id", 0),
                        ok=False,
                        error=str(error),
                    )
                if reply is not None:
                    await self._reply(writer, reply)
        except (ConnectionResetError, asyncio.IncompleteReadError, _OutOfStep):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass
            finally:
                # last: stop() waits until this handler has fully ended
                del self._connections[task]

    @staticmethod
    async def _read_line(
        reader: asyncio.StreamReader, first: bytes
    ) -> Optional[Message]:
        """The message of the line that starts with ``first``; ``None``
        for a blank line."""
        line = first
        if first != b"\n":
            try:
                line += await reader.readline()
            except ValueError:
                # beyond STREAM_LIMIT: a line cannot be re-synchronized
                # mid-way
                raise _OutOfStep from None
        line = line.strip()
        return decode_message(line) if line else None

    @staticmethod
    async def _read_frame(
        reader: asyncio.StreamReader, frames: FrameDecoder
    ) -> EventColumns:
        """The columns of the frame whose magic byte was just read.

        The header's table entries are kept even when its rows are
        refused (:class:`ProtocolError`), because the client's tables
        advanced when it encoded the frame.
        """
        header_size, rows = FRAME_SIZES.unpack(
            await reader.readexactly(FRAME_SIZES.size)
        )
        size = header_size + rows * FRAME_ROW_BYTES
        if size > STREAM_LIMIT:
            raise _OutOfStep  # before reading any of the body
        body = await reader.readexactly(size)
        try:
            frames.add_tables(body[:header_size])
        except ProtocolError:
            raise _OutOfStep from None
        return frames.columns(body, header_size, rows)

    async def _serve(self, message) -> Optional[object]:
        """Act on one decoded message; returns the reply to send, if any."""
        if isinstance(message, (InjectEvent, EventColumns)):
            # awaiting under backpressure pauses this reader — that is
            # the flow control
            await self.supervisor.inject(message)
            return None
        if isinstance(message, SnapshotRequest):
            reply = await self.supervisor.snapshot()
            return dataclasses.replace(reply, request_id=message.request_id)
        if isinstance(message, Reload):
            await self.supervisor.reload(reset_stats=message.reset_stats)
            return Ack(request_id=message.request_id)
        if isinstance(message, Shutdown):
            self.shutdown_drain = message.drain
            self.shutdown_requested.set()
            return Ack(request_id=message.request_id)
        return Ack(ok=False, error=f"unexpected message type {message.TYPE!r}")

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, message) -> None:
        writer.write(encode_message(message).encode() + b"\n")
        await writer.drain()


class ServiceClient:
    """Socket client speaking both wire forms (one request at a time)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._next_id = 1
        self._frames = FrameEncoder()

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=STREAM_LIMIT
        )
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass

    async def _send(self, message) -> None:
        self._writer.write(encode_message(message).encode() + b"\n")
        await self._writer.drain()

    async def _recv(self):
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return decode_message(line.strip())

    async def inject(
        self,
        instance: int,
        source: str,
        time: float = 0.0,
        choices: Optional[Mapping[str, str]] = None,
    ) -> None:
        await self._send(
            InjectEvent(
                instance=instance,
                source=source,
                time=time,
                choices=dict(choices or {}),
            )
        )

    async def inject_batch(self, events: Sequence[InjectEvent]) -> None:
        """Send ``events`` as inject frames of at most :data:`BATCH_CHUNK`
        rows each.

        The chunks of an :class:`InjectView` (what
        :func:`events_to_injects` returns) are framed straight from its
        columns; any other sequence is packed per event
        (:meth:`FrameEncoder.encode`).  A chunk holding a field the wire
        refuses raises :class:`ProtocolError` naming it before any byte
        of that chunk is written; the chunks ahead of it have been sent.
        """
        for lo in range(0, len(events), BATCH_CHUNK):
            self._writer.write(self._frames.encode(events[lo : lo + BATCH_CHUNK]))
            await self._writer.drain()

    async def _request(self, message, expected: type):
        """Send a control request and read until the reply echoing its
        fresh ``request_id``.

        Replies read on the way answer earlier lines: a not-ok
        :class:`Ack` among them (a rejected inject's) is raised, but only
        once this request's own reply is consumed, so the next call stays
        in step; the others answer requests nobody waits for any more
        and are dropped.
        """
        async with self._lock:
            request_id = self._next_id
            self._next_id += 1
            await self._send(dataclasses.replace(message, request_id=request_id))
            rejected = []
            while True:
                reply = await self._recv()
                if getattr(reply, "request_id", None) == request_id:
                    break
                if isinstance(reply, Ack) and not reply.ok:
                    rejected.append(reply.error)
        if rejected:
            raise ProtocolError(
                f"service rejected an earlier line: {'; '.join(rejected)}"
            )
        if not isinstance(reply, expected):
            raise ProtocolError(f"expected {expected.TYPE}, got {reply.TYPE!r}")
        return reply

    async def snapshot(self) -> SnapshotReply:
        return await self._request(SnapshotRequest(), SnapshotReply)

    async def reload(self, reset_stats: bool = True) -> Ack:
        """Reset the fleet; returns the service's :class:`Ack`, not-ok
        when the reload failed."""
        return await self._request(Reload(reset_stats=reset_stats), Ack)

    async def shutdown(self, drain: bool = True) -> Ack:
        return await self._request(Shutdown(drain=drain), Ack)


def events_to_injects(streams: Sequence[Sequence["object"]]) -> InjectView:
    """Flatten per-instance Event streams into time-ordered injects.

    Instance ``i``'s stream becomes injects with ``instance=i``; the
    global order interleaves instances by event time (stable, so each
    instance's own order is preserved) — the shape a real multiplexed
    ingest feed would have.  The streams are read as
    :class:`~repro.runtime.events.EventColumns` (generated streams
    already are), and the result is an :class:`InjectView` over them in
    that order: one stable argsort and a gather per column, no inject
    built.  Its items are built on demand, every field a plain Python
    value and each with its own ``choices`` dict, and its slices are
    views again, which :meth:`ServiceClient.inject_batch` frames as
    they are.
    """
    columns = as_columns(streams)
    return InjectView(columns.take(np.argsort(columns.time, kind="stable")))
