"""The fleet supervisor: one async shard actor behind the ingest boundary.

The supervisor owns one :class:`~repro.service.shard.ShardActor` — a
task on the supervisor's event loop, driving the one
:class:`~repro.runtime.fleet.FleetEngine` that serves every instance
key, each instance's events in arrival order.  The engine uses the
supervisor's signature table, so an event is interned once, at
:meth:`FleetSupervisor.pack`, and nothing downstream touches its
strings.  Injects arrive as columns — a socket frame's, or those of
in-process callers — or as single events, and leave :meth:`pack` as
kernel ids that never cross the socket: a client knows names, not the
net.  Anything else :meth:`FleetSupervisor.inject` refuses with a
``TypeError`` before it is queued.  :meth:`FleetSupervisor.snapshot`
returns the shard's own
:class:`~repro.service.messages.SnapshotReply`.

:meth:`FleetSupervisor.stop` with ``drain=True`` serves every queued
event, then orders the shard's result by instance key: a
:class:`~repro.runtime.fleet.FleetResult` byte-identical to a one-shot
:class:`~repro.runtime.fleet.FleetSimulator` run over the same streams
(pinned by ``tests/test_service_differential.py``).  A failed shard
answers every request with its
:class:`~repro.service.shard.ShardFailed`; ``stop()`` joins the shard
before raising it.  A request that races ``stop()`` gets a
:class:`~repro.service.shard.ShardFailed` too, and one that comes after
it a :class:`SupervisorNotRunning`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Union

import numpy as np

from ..petrinet import PetriNet
from ..petrinet.compiled import CompiledNet, compile_net
from ..runtime.cost import CostModel
from ..runtime.events import EventColumns
from ..runtime.fleet import FleetEngine, FleetResult, SignatureTable
from ..runtime.reactive import ModuleAssignment, validate_budget_policy
from ..runtime.stochastic import TimingModel
from .messages import (
    InjectBatchPacked,
    InjectEvent,
    Reload,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    inject_columns,
)
from .shard import DEFAULT_INBOX_LIMIT, ShardActor, ShardFailed


class SupervisorNotRunning(RuntimeError):
    """A request reached a supervisor before ``start()`` or after ``stop()``."""


class FleetSupervisor:
    """Serves instance keys on one shard actor; orders its result by key."""

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
        # one async shard is the only service; both keywords stay,
        # each accepting only that value, because perfbench passes them
        if shards != 1:
            raise ValueError(
                f"shards must be 1 (the service runs one shard), got {shards!r}"
            )
        if backend != "async":
            raise ValueError(
                f"unknown service backend {backend!r} (the only one is 'async')"
            )
        if inbox_limit < 1:
            # asyncio.Queue(maxsize <= 0) is unbounded: no backpressure
            raise ValueError(f"inbox_limit must be positive, got {inbox_limit!r}")
        self.assignment = assignment
        self.cost = cost_model or CostModel()
        self.max_firings_per_event = max_firings_per_event
        self.on_budget = validate_budget_policy(on_budget)
        self.timing = timing
        self.inbox_limit = inbox_limit
        # the ingest-boundary intern tables: every event is turned into
        # integer ids exactly once, here; the shard's engine shares the
        # signature table
        self.compiled: CompiledNet = (
            net if isinstance(net, CompiledNet) else compile_net(net)
        )
        self.signatures = SignatureTable(self.compiled)
        self._shard: Optional[ShardActor] = None
        self._started_at = 0.0
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            raise RuntimeError("supervisor is already running")
        self._started_at = time.perf_counter()
        self._shard = ShardActor(
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
        await self._shard.start()
        self._running = True

    async def stop(self, drain: bool = True) -> FleetResult:
        """Stop the shard and return its result ordered by instance key.

        The shard is joined before a failed shard's :class:`ShardFailed`
        is raised.
        """
        self._require_running()
        try:
            keys, result = await self._shard.request(Shutdown(drain=drain))
        except ShardFailed:
            # a failed shard answers the Shutdown too, so its loop ends
            await self._join_shard()
            raise
        await self._join_shard()
        elapsed = time.perf_counter() - self._started_at
        return _ordered_by_key(keys, result, elapsed)

    async def _join_shard(self) -> None:
        await self._shard.join()
        self._running = False

    # ------------------------------------------------------------------
    # Ingest-boundary packing
    # ------------------------------------------------------------------
    def pack(self, columns: EventColumns) -> InjectBatchPacked:
        """Map packed injects to kernel id columns.

        The *only* place the service turns event names into ids: the
        columns' name tables map to kernel ids through the shared
        :class:`SignatureTable` with one gather per column
        (:meth:`SignatureTable.gather`).  The returned ndarray batch
        flows through the inbox into the kernel zero-copy.  An unknown
        source transition raises :class:`NotEnabledError` here, at the
        boundary, before any event of the batch is queued.
        """
        sources, signatures = self.signatures.gather(columns)
        return InjectBatchPacked(
            instances=columns.instance, sources=sources, signatures=signatures
        )

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def inject(
        self, message: Union[InjectEvent, EventColumns, InjectBatchPacked]
    ) -> None:
        """Queue an inject on the shard; awaits under backpressure.

        Every form converges to :class:`InjectBatchPacked` here: strings
        are interned once, and the shard never interns again.  Columns
        are keyed by instance (:func:`~repro.service.messages.inject_columns`
        packs a sequence of :class:`InjectEvent`).  Anything else raises
        :class:`TypeError` before it is queued.
        """
        self._require_running()
        if isinstance(message, InjectEvent):
            message = inject_columns((message,))
        if isinstance(message, EventColumns):
            message = self.pack(message)
        elif not isinstance(message, InjectBatchPacked):
            raise TypeError(
                f"cannot inject a {type(message).__name__}: expected "
                "InjectEvent, EventColumns or InjectBatchPacked"
            )
        await self._shard.put(message)

    async def snapshot(self) -> SnapshotReply:
        """The shard's statistics (observes prior injects)."""
        self._require_running()
        return await self._shard.request(SnapshotRequest())

    async def reload(self, reset_stats: bool = True) -> None:
        """Reset every instance to the initial marking."""
        self._require_running()
        await self._shard.request(Reload(reset_stats=reset_stats))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_running(self) -> None:
        if not self._running:
            raise SupervisorNotRunning("supervisor is not running")


def _ordered_by_key(
    keys: List[int], result: FleetResult, elapsed: float
) -> FleetResult:
    """The shard's result (instances in row order) ordered by key."""
    order = np.argsort(np.array(keys, dtype=np.int64))
    ticks = result.instance_ticks
    return dataclasses.replace(
        result,
        instance_cycles=result.instance_cycles[order],
        instance_events=result.instance_events[order],
        instance_ticks=ticks[order] if ticks is not None else None,
        elapsed_seconds=elapsed,
    )
