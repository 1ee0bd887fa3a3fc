"""The fleet supervisor: hash-sharded routing over async shard actors.

The supervisor owns N shards — each a :class:`~repro.service.shard.ShardActor`
task on the supervisor's event loop, driving its own
:class:`~repro.runtime.fleet.FleetEngine` — and routes every instance
key to one shard with a deterministic multiplicative hash, so one
instance's events always land on one kernel in order.  Every shard
engine shares the supervisor's signature table, so an event is
interned once, at :meth:`FleetSupervisor.pack`, and nothing downstream
touches its strings.

:meth:`FleetSupervisor.stop` with ``drain=True`` serves every queued
event, then merges the per-shard results into one
:class:`~repro.runtime.fleet.FleetResult` ordered by instance key —
byte-identical to a one-shot :class:`~repro.runtime.fleet.FleetSimulator`
run over the same streams (pinned by ``tests/test_service_differential.py``).
A failed shard answers every request with its
:class:`~repro.service.shard.ShardFailed`; ``stop()`` joins every shard
before raising it.  A request that races ``stop()`` gets a
:class:`~repro.service.shard.ShardFailed` too.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..petrinet import PetriNet
from ..petrinet.compiled import ENGINE_COMPILED, CompiledNet, compile_net
from ..runtime.cost import CostModel
from ..runtime.events import EventColumns
from ..runtime.fleet import FleetEngine, FleetResult, SignatureTable
from ..runtime.reactive import ModuleAssignment, validate_budget_policy
from ..runtime.rtos import ExecutionStats
from ..runtime.stochastic import TimingModel
from .messages import (
    InjectBatch,
    InjectBatchPacked,
    InjectEvent,
    Reload,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
)
from .shard import DEFAULT_INBOX_LIMIT, Control, ShardActor

#: Knuth's multiplicative hash constant (2^32 / phi).
_HASH_MULTIPLIER = 2_654_435_761


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
        # "async" is the only backend; the keyword stays because
        # perfbench passes it
        if backend != "async":
            raise ValueError(
                f"unknown service backend {backend!r} (the only one is 'async')"
            )
        self.assignment = assignment
        self.cost = cost_model or CostModel()
        self.max_firings_per_event = max_firings_per_event
        self.on_budget = validate_budget_policy(on_budget)
        self.timing = timing
        self.shards = shards
        self.inbox_limit = inbox_limit
        # the ingest-boundary intern tables: every event is turned into
        # integer ids exactly once, here; the shard engines share the
        # signature table
        self.compiled: CompiledNet = (
            net if isinstance(net, CompiledNet) else compile_net(net)
        )
        self.signatures = SignatureTable(self.compiled)
        self._shards: List[ShardActor] = []
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
        """Pack a batch of string-keyed injects into kernel id columns.

        The *only* place the service touches event strings: the batch
        becomes :class:`~repro.runtime.events.EventColumns` (keyed by
        the injects' instance keys), and its name tables map to kernel
        ids through the shared :class:`SignatureTable` with one gather
        per column (:meth:`SignatureTable.gather`).  The returned
        ndarray batch flows through routing, inboxes and kernels
        zero-copy.  An unknown source transition raises
        :class:`NotEnabledError` here, at the boundary, before any event
        of the batch is routed.
        """
        columns = EventColumns.pack((event.instance, event) for event in events)
        sources, signatures = self.signatures.gather(columns)
        return InjectBatchPacked(
            instances=columns.instance, sources=sources, signatures=signatures
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
