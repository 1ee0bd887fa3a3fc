"""The shard: one kernel behind one ordered inbox.

The supervisor runs one shard, and it owns every instance of the fleet:
instance keys register as engine rows when their first event arrives.
Its inbox carries two kinds of item, in arrival order:
:class:`InjectBatchPacked` batches (interned once at the supervisor's
ingest boundary) and control requests
(:class:`~repro.service.messages.SnapshotRequest`,
:class:`~repro.service.messages.Reload`,
:class:`~repro.service.messages.Shutdown`) paired with the token their
reply goes to.

:meth:`ShardCore.drain` serves one drain of that inbox: the asyncio
:class:`ShardActor` hands it everything its inbox holds.  Consecutive
packed batches coalesce into one vectorized
:meth:`ShardCore.serve_packed`, which the kernel serves in per-instance
rounds (:meth:`~repro.runtime.fleet.FleetEngine.dispatch_rounds`) — the
deeper the backlog, the cheaper each event — and every control is a
**barrier**: the injects ahead of it are served before it is answered,
none behind it are, and replies leave in inbox order.  A snapshot
observes exactly the events enqueued before it, and its reply,
:meth:`ShardCore.stats`, is the fleet's
:class:`~repro.service.messages.SnapshotReply`: the shard is the only
one, so nothing names it.

If serving raises, the shard *fails*: it keeps the error as a
:class:`ShardFailed`, answers every pending and later request with it
and drops later injects.  A shard that answered its
:class:`~repro.service.messages.Shutdown` does the same with a "shard
stopped" :class:`ShardFailed` — for the controls queued behind the
Shutdown and for every later request — so no request to a failed or
stopped shard hangs.

The actor's inbox is bounded (``asyncio.Queue(maxsize=inbox_limit)``):
producers ``await put(...)`` and suspend while the shard is saturated,
which is the service's backpressure — socket readers stop reading, TCP
windows fill, and the client slows down instead of the server growing
an unbounded buffer.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..petrinet.exceptions import NotEnabledError
from ..runtime.fleet import FleetEngine, FleetResult, instance_not_enabled
from .messages import (
    Ack,
    InjectBatchPacked,
    Reload,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
)

#: Default inbox capacity (messages, where one packed batch counts once).
DEFAULT_INBOX_LIMIT = 1024

#: Instance keys in ``[0, _DENSE_KEY_LIMIT)`` resolve to rows through a
#: flat int64 gather (one vector op per packed batch); keys outside the
#: range — negative or astronomically sparse — fall back to the dict.
_DENSE_KEY_LIMIT = 1 << 24

Control = Union[SnapshotRequest, Reload, Shutdown]
#: A packed inject batch, or a control paired with its reply token.
InboxItem = Union[InjectBatchPacked, Tuple[Control, Any]]


class ShardFailed(RuntimeError):
    """The shard stopped serving: carries the original error."""

    def __init__(self, error: BaseException) -> None:
        super().__init__(error)
        self.error = error
        self.__cause__ = error

    def __str__(self) -> str:
        return f"shard failed: {type(self.error).__name__}: {self.error}"


class ShardCore:
    """Shard state: an instance registry over one kernel."""

    def __init__(self, engine: FleetEngine) -> None:
        self.engine = engine
        self._rows: Dict[int, int] = {}  # instance key -> engine row
        self._keys: List[int] = []  # engine row -> instance key
        #: dense accelerator mirroring ``_rows`` for in-range keys; -1
        #: marks unregistered.  Kept in sync by registration.
        self._dense_rows = np.full(1024, -1, dtype=np.int64)
        self._started = time.monotonic()
        self.events_served = 0
        #: set once serving raised or a Shutdown was answered; answers
        #: every later request
        self.failure: Optional[ShardFailed] = None
        self.stopped = False

    # ------------------------------------------------------------------
    # Registry plumbing (dict authoritative, dense gather accelerator)
    # ------------------------------------------------------------------
    def _dense_set(self, key: int, row: int) -> None:
        if 0 <= key < _DENSE_KEY_LIMIT:
            if key >= len(self._dense_rows):
                grown = np.full(
                    max(2 * len(self._dense_rows), key + 1), -1, dtype=np.int64
                )
                grown[: len(self._dense_rows)] = self._dense_rows
                self._dense_rows = grown
            self._dense_rows[key] = row

    def _register(self, keys: Sequence[int]) -> None:
        """Register fresh instance keys (callers pre-filter known ones)."""
        new_rows = self.engine.add_instances(len(keys))
        for key, row in zip(keys, new_rows.tolist()):
            self._rows[key] = row
            self._keys.append(key)
            self._dense_set(key, row)

    def _rows_for_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized instance-key → engine-row map, registering fresh keys."""
        kmin = int(keys.min())
        kmax = int(keys.max())
        if kmin < 0 or kmax >= _DENSE_KEY_LIMIT:
            # out-of-range keys: the dict path, one lookup per event
            rows_of = self._rows
            fresh = [k for k in keys.tolist() if k not in rows_of]
            if fresh:
                self._register(list(dict.fromkeys(fresh)))
            return np.array([rows_of[k] for k in keys.tolist()], dtype=np.int64)
        if kmax >= len(self._dense_rows):
            grown = np.full(
                max(2 * len(self._dense_rows), kmax + 1), -1, dtype=np.int64
            )
            grown[: len(self._dense_rows)] = self._dense_rows
            self._dense_rows = grown
        rows = self._dense_rows[keys]
        if (rows < 0).any():
            self._register(np.unique(keys[rows < 0]).tolist())
            rows = self._dense_rows[keys]
        return rows

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_packed(self, batch: InjectBatchPacked) -> int:
        """Serve one packed batch: zero per-event Python objects.

        Rows are resolved with one gather, and the kernel serves the
        batch in arrival order per instance, one vectorized dispatch
        per round (:meth:`FleetEngine.dispatch_rounds`).
        """
        count = len(batch)
        if count == 0:
            return 0
        rows = self._rows_for_keys(np.asarray(batch.instances, dtype=np.int64))
        try:
            self.engine.dispatch_rounds(rows, batch.sources, batch.signatures)
        except NotEnabledError as error:
            # the kernel names its own row; callers know their key
            raise instance_not_enabled(
                error.transition, self._keys[error.instance]
            ) from None
        self.events_served += count
        return count

    def drain(
        self, items: Sequence[InboxItem], answer: Callable[[Any, Any], None]
    ) -> bool:
        """Serve one inbox drain in order; ``True`` once a Shutdown is answered.

        Each run of consecutive packed batches is served as one
        :meth:`serve_packed`.  Each control is a barrier: it is answered
        with ``answer(token, reply)`` after every inject ahead of it,
        where ``reply`` is the control's result or this shard's
        :class:`ShardFailed`.  ``Shutdown(drain=False)`` drops the
        injects queued since the previous barrier.  Behind a Shutdown,
        in this drain or a later one, injects are dropped and controls
        are answered with a "shard stopped" :class:`ShardFailed`.
        """
        start = 0  # first item of the current run of packed batches
        for position, item in enumerate(items):
            if isinstance(item, InjectBatchPacked):
                continue
            message, token = item
            if not isinstance(message, Shutdown) or message.drain:
                self._serve_run(items[start:position])
            start = position + 1
            answer(token, self._reply(message, queue_depth=len(items) - start))
            if isinstance(message, Shutdown):
                self.stopped = True
                self.failure = self.failure or ShardFailed(
                    RuntimeError("shard stopped")
                )
        self._serve_run(items[start:])
        return self.stopped

    def _serve_run(self, batches: Sequence[InjectBatchPacked]) -> None:
        if not batches or self.failure is not None:
            return
        try:
            self.serve_packed(InjectBatchPacked.concat(batches))
        except Exception as error:  # noqa: BLE001 - any serving error fails the shard
            self.failure = ShardFailed(error)

    def _reply(self, message: Control, queue_depth: int) -> Any:
        if self.failure is not None:
            return self.failure
        if isinstance(message, SnapshotRequest):
            return self.stats(queue_depth)
        if isinstance(message, Reload):
            self.engine.reset_state(reset_stats=message.reset_stats)
            return Ack()
        return self.result()

    # ------------------------------------------------------------------
    # Introspection and results
    # ------------------------------------------------------------------
    def stats(self, queue_depth: int = 0) -> SnapshotReply:
        """The snapshot reply: ``queue_depth`` inbox items wait behind it.

        It reads the engine's counters, so no :class:`FleetResult` (with
        its per-transition and per-module dicts and per-instance copies)
        is built per snapshot.
        """
        engine = self.engine
        elapsed = time.monotonic() - self._started
        return SnapshotReply(
            request_id=0,
            instances=engine.instances,
            events=engine.events_total,
            cycles=sum(engine.cycle_totals()),
            budget_stops=engine.budget_stops,
            queue_depth=queue_depth,
            throughput_eps=(
                self.events_served / elapsed if elapsed > 0 else 0.0
            ),
            percentiles=engine.cycle_percentiles(),
        )

    def result(self) -> Tuple[List[int], FleetResult]:
        """The shard's instance keys (row order) and its FleetResult."""
        return list(self._keys), self.engine.result()


class ShardActor:
    """The shard actor: a bounded asyncio inbox drained into one core."""

    def __init__(
        self, engine: FleetEngine, inbox_limit: int = DEFAULT_INBOX_LIMIT
    ) -> None:
        self.core = ShardCore(engine)
        self.inbox: "asyncio.Queue[InboxItem]" = asyncio.Queue(
            maxsize=inbox_limit
        )
        self._task: Optional["asyncio.Task"] = None

    async def start(self) -> None:
        self._task = asyncio.create_task(self.run())

    async def join(self) -> None:
        await self._task

    def _finished(self) -> bool:
        """True once the actor loop has exited: nothing drains the inbox."""
        return self._task is not None and self._task.done()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    async def put(self, item: InboxItem) -> None:
        """Enqueue; suspends the caller while the inbox is full.

        A stopped actor drains no more, so the item is dropped instead.
        """
        if not self._finished():
            await self.inbox.put(item)

    async def request(self, control: Control) -> Any:
        """Enqueue a control behind every queued inject; await its reply."""
        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        await self.put((control, future))
        if self._finished():
            # the loop exited before reaching the control: answer it
            # here, as the stopped core answers everything
            self.core.drain([(control, future)], settle)
        return await future

    # ------------------------------------------------------------------
    # The actor loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Serve the inbox until a :class:`Shutdown` is answered."""
        inbox = self.inbox
        stopped = False
        while not stopped:
            items = [await inbox.get()]
            while not inbox.empty():
                items.append(inbox.get_nowait())
            stopped = self.core.drain(items, settle)


def settle(future: "asyncio.Future", reply: Any) -> None:
    """Resolve a reply future; a :class:`ShardFailed` reply raises there."""
    if future.done():
        return
    if isinstance(reply, ShardFailed):
        future.set_exception(reply)
    else:
        future.set_result(reply)
