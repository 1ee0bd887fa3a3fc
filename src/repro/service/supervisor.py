"""The fleet supervisor: hash-sharded routing over shards of either backend.

The supervisor owns N shards — each a :class:`~repro.service.shard.ShardCore`
around its own :class:`~repro.runtime.fleet.FleetEngine` — and routes
every instance key to one shard with a deterministic multiplicative
hash, so one instance's events always land on one kernel in order.
Both shard backends offer the same coroutines — ``start()``,
``put(batch)``, ``request(control)`` and ``join()`` — and serve through
the same :meth:`~repro.service.shard.ShardCore.drain`, so only
:meth:`FleetSupervisor.start` knows which one runs:

``async``
    Every shard is a :class:`~repro.service.shard.ShardActor` task on
    the supervisor's event loop: in-process, zero serialization, and
    sharing the supervisor's signature table.  The default; with
    several shards it is the in-process reference the differential
    suites pin routing and merge against.

``process``
    Every shard is a ``multiprocessing`` worker fed over a pipe in
    binary frames (:mod:`repro.service.messages`); replies resolve
    FIFO futures.  The way to scale across cores.

:meth:`FleetSupervisor.stop` with ``drain=True`` serves every queued
event, then merges the per-shard results into one
:class:`~repro.runtime.fleet.FleetResult` ordered by instance key —
byte-identical to a one-shot :class:`~repro.runtime.fleet.FleetSimulator`
run over the same streams (pinned by ``tests/test_service_differential.py``).
A failed shard answers every request with its
:class:`~repro.service.shard.ShardFailed`; ``stop()`` joins every shard
before raising it.  A request that races ``stop()`` gets a
:class:`~repro.service.shard.ShardFailed` too, on either backend.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..petrinet import PetriNet
from ..petrinet.compiled import ENGINE_COMPILED, CompiledNet, compile_net
from ..runtime.cost import CostModel
from ..runtime.fleet import FleetEngine, FleetResult, SignatureTable
from ..runtime.reactive import ModuleAssignment, validate_budget_policy
from ..runtime.rtos import ExecutionStats
from ..runtime.stochastic import TimingModel
from .messages import (
    FRAME_PACKED,
    InjectBatch,
    InjectBatchPacked,
    InjectEvent,
    Reload,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    decode_frame,
    encode_frame_control,
    encode_frame_packed,
    encode_frame_result,
)
from .shard import (
    DEFAULT_INBOX_LIMIT,
    Control,
    ShardActor,
    ShardCore,
    ShardFailed,
    settle,
)

#: Supported shard backends.
SERVICE_BACKENDS = ("async", "process")

#: Knuth's multiplicative hash constant (2^32 / phi).
_HASH_MULTIPLIER = 2_654_435_761


def validate_backend(backend: str) -> str:
    if backend not in SERVICE_BACKENDS:
        raise ValueError(
            f"unknown service backend {backend!r} "
            f"(choose from {', '.join(SERVICE_BACKENDS)})"
        )
    return backend


class FleetSupervisor:
    """Routes instance keys over sharded fleet actors; merges their results."""

    def __init__(
        self,
        net: Union[PetriNet, CompiledNet],
        assignment: ModuleAssignment,
        cost_model: Optional[CostModel] = None,
        max_firings_per_event: int = 100_000,
        on_budget: str = "error",
        shards: int = 1,
        backend: str = "async",
        inbox_limit: int = DEFAULT_INBOX_LIMIT,
        timing: Optional[TimingModel] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        self.backend = validate_backend(backend)
        self.net = net
        self.assignment = assignment
        self.cost = cost_model or CostModel()
        self.max_firings_per_event = max_firings_per_event
        self.on_budget = validate_budget_policy(on_budget)
        self.timing = timing
        self.shards = shards
        self.inbox_limit = inbox_limit
        # the ingest-boundary intern tables: every event is turned into
        # integer ids exactly once, here; async shard engines share the
        # signature table directly, process shards replay definition
        # deltas shipped inside the binary packed frames
        self.compiled: CompiledNet = (
            net if isinstance(net, CompiledNet) else compile_net(net)
        )
        self.signatures = SignatureTable(self.compiled)
        self._shards: List[Union[ShardActor, "_ProcessShardHandle"]] = []
        self._started_at = 0.0
        self._running = False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, instance: int) -> int:
        """Deterministic instance→shard routing."""
        return ((instance * _HASH_MULTIPLIER) & 0xFFFFFFFF) % self.shards

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            raise RuntimeError("supervisor is already running")
        self._started_at = time.perf_counter()
        if self.backend == "async":
            self._shards = [
                ShardActor(
                    shard_id,
                    FleetEngine(
                        self.compiled,
                        self.assignment,
                        cost_model=self.cost,
                        max_firings_per_event=self.max_firings_per_event,
                        on_budget=self.on_budget,
                        timing=self.timing,
                        signatures=self.signatures,
                    ),
                    inbox_limit=self.inbox_limit,
                )
                for shard_id in range(self.shards)
            ]
        else:
            from ..petrinet.serialization import net_to_json

            named = (
                self.net.decompile()
                if isinstance(self.net, CompiledNet)
                else self.net
            )
            net_json = net_to_json(named)
            self._shards = [
                _ProcessShardHandle(
                    shard_id,
                    net_json,
                    dict(self.assignment.modules),
                    self.cost,
                    self.max_firings_per_event,
                    self.on_budget,
                    self.timing,
                    signatures=self.signatures,
                )
                for shard_id in range(self.shards)
            ]
        for shard in self._shards:
            await shard.start()
        self._running = True

    async def stop(self, drain: bool = True) -> FleetResult:
        """Stop every shard and merge their results by instance key.

        Every shard is joined before a failed shard's
        :class:`ShardFailed` is raised.
        """
        replies = await self._ask_all(Shutdown(drain=drain))
        for shard in self._shards:
            await shard.join()
        self._running = False
        elapsed = time.perf_counter() - self._started_at
        return _merge_results(_raise_failure(replies), elapsed)

    # ------------------------------------------------------------------
    # Ingest-boundary packing
    # ------------------------------------------------------------------
    def pack(self, events: Sequence[InjectEvent]) -> InjectBatchPacked:
        """Intern a batch of string-keyed injects into packed id columns.

        The *only* place the service touches event strings: source names
        and choice resolutions resolve through the shared
        :class:`SignatureTable` (:meth:`SignatureTable.intern_events`).  In
        the steady state every lookup is a dict hit; the returned ndarray
        batch flows through routing, inboxes and kernels zero-copy.
        Unknown source transitions fail here, at the boundary, rather
        than inside a shard's actor loop.
        """
        sources, signatures = self.signatures.intern_events(events)
        return InjectBatchPacked(
            instances=np.array([event.instance for event in events], dtype=np.int64),
            sources=sources,
            signatures=signatures,
        )

    def _shards_of(self, instances: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`shard_of` over an instance-key column."""
        # int64 products wrap mod 2^64; & 0xFFFFFFFF recovers the exact
        # low 32 bits, so this matches the scalar Python-int hash
        with np.errstate(over="ignore"):
            return ((instances * _HASH_MULTIPLIER) & 0xFFFFFFFF) % self.shards

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def inject(
        self, message: Union[InjectEvent, InjectBatch, InjectBatchPacked]
    ) -> None:
        """Route an inject to its shard(s); awaits under backpressure.

        Every representation converges to :class:`InjectBatchPacked`
        here — strings are interned once, then the per-shard split is a
        handful of ndarray gathers and the shards never intern again.
        """
        self._require_running()
        if isinstance(message, InjectEvent):
            packed = self.pack((message,))
        elif isinstance(message, InjectBatch):
            packed = self.pack(message.events)
        else:
            packed = message
        if self.shards == 1:
            await self._shards[0].put(packed)
            return
        shard_ids = self._shards_of(packed.instances)
        for shard_id in np.unique(shard_ids).tolist():
            await self._shards[shard_id].put(packed.take(shard_ids == shard_id))

    async def snapshot(self) -> SnapshotReply:
        """Aggregate + per-shard statistics (observes prior injects)."""
        stats = _raise_failure(await self._ask_all(SnapshotRequest()))
        return SnapshotReply(
            request_id=0,
            instances=sum(s.instances for s in stats),
            events=sum(s.events for s in stats),
            cycles=sum(s.cycles for s in stats),
            budget_stops=sum(s.budget_stops for s in stats),
            shards=tuple(stats),
        )

    async def reload(self, reset_stats: bool = True) -> None:
        """Reset every shard's instances to the initial marking."""
        _raise_failure(await self._ask_all(Reload(reset_stats=reset_stats)))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_running(self) -> None:
        if not self._running:
            raise RuntimeError("supervisor is not running")

    async def _ask_all(self, control: Control) -> List[Any]:
        """Every shard's reply to ``control``, failures included."""
        self._require_running()
        return await asyncio.gather(
            *(shard.request(control) for shard in self._shards),
            return_exceptions=True,
        )


def _raise_failure(replies: List[Any]) -> List[Any]:
    """The replies, unless one is a failure: then the first is raised."""
    for reply in replies:
        if isinstance(reply, BaseException):
            raise reply
    return replies


def _merge_results(
    parts: Sequence[Tuple[List[int], FleetResult]], elapsed: float
) -> FleetResult:
    """Merge per-shard results into one fleet result ordered by key."""
    aggregate = ExecutionStats()
    keyed: List[Tuple[int, int, int, int]] = []
    timed = any(result.instance_ticks is not None for _, result in parts)
    for keys, result in parts:
        aggregate.merge(result.stats)
        ticks = (
            result.instance_ticks.tolist()
            if result.instance_ticks is not None
            else [0] * len(keys)
        )
        keyed.extend(
            zip(
                keys,
                result.instance_cycles.tolist(),
                result.instance_events.tolist(),
                ticks,
            )
        )
    keyed.sort()
    cycles = np.array([c for _, c, _, _ in keyed], dtype=np.int64)
    events = np.array([e for _, _, e, _ in keyed], dtype=np.int64)
    return FleetResult(
        stats=aggregate,
        instance_cycles=cycles,
        instance_events=events,
        engine=ENGINE_COMPILED,
        elapsed_seconds=elapsed,
        instance_ticks=(
            np.array([t for _, _, _, t in keyed], dtype=np.int64)
            if timed
            else None
        ),
    )


# ----------------------------------------------------------------------
# Process backend
# ----------------------------------------------------------------------
class _ProcessShardHandle:
    """The process shard backend: parent-side endpoint of one worker.

    Everything on the pipe is a binary frame (:mod:`repro.service.messages`):
    packed inject batches travel as length-prefixed raw int64 buffers,
    control requests as JSON wire lines inside control frames, and every
    reply as one pickle frame.  Replies resolve a FIFO of pending
    futures (the pipe preserves order, so no request ids are needed).
    When the worker exits, every request still pending — and every
    later one — fails with :class:`ShardFailed`, and later injects are
    dropped; a pipe the worker already closed is no error.  Blocking pipe
    operations run in worker threads (``asyncio.to_thread``) so the
    event loop never stalls on a full pipe buffer.

    The handle also keeps its worker's :class:`SignatureTable` replica
    consistent: ``_sigs_synced`` is the high-water mark of signature
    ids the worker has seen, and every packed frame carries the
    definitions interned since — the worker replays them in id order,
    so both tables assign identical ids by construction.
    """

    def __init__(
        self,
        shard_id: int,
        net_json: str,
        modules: Dict[str, str],
        cost: CostModel,
        max_firings: int,
        on_budget: str,
        timing: Optional[TimingModel] = None,
        signatures: Optional[SignatureTable] = None,
    ) -> None:
        self.shard_id = shard_id
        self._spec = (net_json, modules, cost, max_firings, on_budget, timing)
        self._signatures = signatures
        self._sigs_synced = 1  # id 0 (the empty signature) is implicit
        self._process: Optional["object"] = None
        self._conn = None
        self._pending: Deque["asyncio.Future"] = deque()
        self._failure: Optional[ShardFailed] = None
        self._send_lock: Optional[asyncio.Lock] = None
        self._reader: Optional["asyncio.Task"] = None

    async def start(self) -> None:
        import multiprocessing

        parent, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_shard_worker,
            args=(child, self.shard_id) + self._spec,
            daemon=True,
        )
        process.start()
        child.close()
        self._process = process
        self._conn = parent
        self._send_lock = asyncio.Lock()
        self._reader = asyncio.create_task(self._read_loop())

    async def _read_loop(self) -> None:
        while True:
            try:
                data = await asyncio.to_thread(self._conn.recv_bytes)
            except (EOFError, OSError):
                break
            settle(self._pending.popleft(), decode_frame(data)[1])
        # the worker is gone: nothing pending can be answered any more
        self._failure = ShardFailed(
            self.shard_id, EOFError("shard worker process exited")
        )
        while self._pending:
            settle(self._pending.popleft(), self._failure)

    async def put(self, batch: InjectBatchPacked) -> None:
        async with self._send_lock:
            base = self._sigs_synced
            defs = self._signatures.definitions(base)
            data = encode_frame_packed(batch, sig_base=base, sig_defs=defs)
            self._sigs_synced = base + len(defs)
            await self._send(data)

    async def request(self, control: Control) -> Any:
        """Send a control behind every inject sent so far; await its reply."""
        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        async with self._send_lock:
            if self._failure is not None:
                raise self._failure
            self._pending.append(future)
            await self._send(encode_frame_control(control))
        return await future

    async def _send(self, data: bytes) -> None:
        """Write one frame; a worker that has exited drops it."""
        try:
            await asyncio.to_thread(self._conn.send_bytes, data)
        except OSError:
            pass  # the read loop fails every pending future on EOF

    async def join(self) -> None:
        await self._reader
        await asyncio.to_thread(self._process.join, 10)
        self._conn.close()


def _shard_worker(
    conn,
    shard_id: int,
    net_json: str,
    modules: Dict[str, str],
    cost: CostModel,
    max_firings: int,
    on_budget: str,
    timing: Optional[TimingModel],
) -> None:  # pragma: no cover - runs inside the worker process
    """The worker process: pipe frames into :meth:`ShardCore.drain`.

    The worker keeps a :class:`SignatureTable` replica of the
    supervisor's intern table — packed frames carry the definitions of
    any signatures interned since the last frame, replayed here in id
    order so a signature id means the same resolution on both sides of
    the pipe.  Every frame queued on the pipe makes one drain, exactly
    as the async actor drains its inbox.
    """
    from ..petrinet.compiled import compile_net as _compile
    from ..petrinet.serialization import net_from_json

    cnet = _compile(net_from_json(net_json))
    signatures = SignatureTable(cnet)
    engine = FleetEngine(
        cnet,
        ModuleAssignment(modules=modules),
        cost_model=cost,
        max_firings_per_event=max_firings,
        on_budget=on_budget,
        timing=timing,
        signatures=signatures,
    )
    core = ShardCore(shard_id, engine)

    def sync_signatures(sig_base: int, sig_defs) -> None:
        if not sig_defs:
            return
        if signatures.count != sig_base:
            raise RuntimeError(
                f"signature table out of sync: worker has "
                f"{signatures.count} ids, frame starts at {sig_base}"
            )
        for offset, definition in enumerate(sig_defs):
            assigned = signatures.intern(definition)
            if assigned != sig_base + offset:
                raise RuntimeError(
                    f"signature replay drift: {definition!r} interned as "
                    f"{assigned}, expected {sig_base + offset}"
                )

    def answer(_token: None, reply: Any) -> None:
        conn.send_bytes(encode_frame_result(reply))

    stopped = False
    while not stopped:
        try:
            frames = [conn.recv_bytes()]
        except EOFError:
            break
        while conn.poll():
            frames.append(conn.recv_bytes())
        items = []
        for data in frames:
            kind, payload = decode_frame(data)
            if kind == FRAME_PACKED:
                batch, sig_base, sig_defs = payload
                sync_signatures(sig_base, sig_defs)
                items.append(batch)
            else:
                items.append((payload, None))
        stopped = core.drain(items, answer)
    conn.close()
