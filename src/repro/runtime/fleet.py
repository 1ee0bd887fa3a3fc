"""Batched multi-instance execution: serving fleets of net instances.

One reactive simulation answers "what does *one* deployed system do
under this event stream?".  The production question is different: a
server farm runs *thousands* of independent instances of the same
specification, each against its own event stream.  Stepping them one by
one through :class:`~repro.runtime.reactive.ReactiveNetSimulator` pays
the full Python event loop per instance; this module steps all of them
*together* on the compiled engine, split into two layers:

* :class:`FleetEngine` is the pure stepping **kernel**: it owns the
  ``(N, P)`` int64 marking matrix (one row per instance, one column per
  compiled place id), the batched enabledness/dispatch machinery and
  the per-instance accounting arrays.  It owns the one round split
  too: :meth:`FleetEngine.dispatch_rounds` takes events in per-instance
  order and serves round ``k`` — the ``k``-th event of every instance
  that has one — as one :meth:`FleetEngine.dispatch_ids` call, so an
  instance's next event starts only after its previous one ran to
  completion.  The same kernel and split serve both a one-shot batch
  run over complete streams and the always-on shard of
  :mod:`repro.service`, which feeds it incrementally from its inbox and
  registers instances as their first events arrive.

* :class:`FleetSimulator` is the stream **orchestration**: it takes the
  streams as :class:`~repro.runtime.events.EventColumns` (the fleet
  generators, :func:`synthetic_streams` among them, emit them; other
  input is packed once), orders each instance by time with one stable
  sort — skipped when the columns already are in that order — and
  hands the kernel the whole run (``run``), or loops the string-keyed
  reactive simulator per instance (``engine="legacy"``, the benchmark
  baseline).

Events reach the kernel as ids without being interned one by one: the
columns carry name tables of their distinct source names and raw
choice tuples, :meth:`SignatureTable.gather` maps each source entry,
and each choice entry that a row carries, to a kernel id once, and
each id column is one gather.

The kernel accelerates the event loop with **memoized cascades**: the
run-to-quiescence processing of an event is fully deterministic given
the instance's current marking, the event's source transition and its
choice-resolution signature (the first enabled candidate in transition
id order fires, exactly as the legacy simulator's insertion-order
scan).  Marking states and signatures are interned to small integer
ids, and each distinct ``(state, source, signature)`` key is simulated
once — its firing counts, cycle charges, activations, queue crossings
and end state become a *cascade* row.  A dense int32 table
``cascade_of[state, source ordinal, signature]`` holds each key's
cascade row (``-1`` until computed; a transition takes the next source
ordinal the first time an event names it), so a round finds its
cascades with one gather, and serving an event is that gather plus
vectorized delta application, which is what lets a single core sustain
hundreds of thousands of events per second
(``benchmarks/bench_serve.py`` holds the contract).

One batched method, :meth:`FleetEngine._compute_cascade`, runs events
to quiescence, on compact arrays of the rows still active, with the
enabledness check of :meth:`CompiledNet.enabled_mask`.  The memo calls
it once per round on the round's unseen keys and interns their end
markings in one pass; it counts each cascade row's uses and folds them
into the aggregate counts only when those are read.  The direct path
calls it on every event of the round, from the instances' own
markings, and adds the round's column sums.  That is the path of
``memo=False``, and of a kernel whose memo outgrew its bound: more
than :data:`MEMO_STATE_LIMIT` states or cascades, or a table of more
than ``128 * MEMO_STATE_LIMIT`` cells (32 MiB).  Such a kernel frees its
tables and serves directly for the rest of its life, so memory stays
bounded.  The cell bound is the trade-off of a dense table: a fleet
with many states *and* many signatures (a shared
:class:`SignatureTable` counts every signature it holds) leaves the
memo sooner than a keyed index would.  The results stay *identical*:
memoized, direct and legacy execution are pinned equal by
`tests/test_runtime_compiled_differential.py` and
`tests/test_service_differential.py`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..petrinet import PetriNet
from ..petrinet.compiled import (
    ENGINE_COMPILED,
    ENGINE_LEGACY,
    CompiledNet,
    compile_net,
    validate_engine,
)
from ..petrinet.exceptions import NotEnabledError
from .cost import CostModel
from .events import (
    ChoiceSampler,
    Event,
    EventColumns,
    EventStreams,
    StreamCollector,
    arrival_times,
    as_columns,
    validate_arrival,
)
from .reactive import (
    QUIESCENCE_MESSAGE,
    ModuleAssignment,
    ReactiveNetSimulator,
    validate_budget_policy,
)
from .rtos import ExecutionStats
from .stochastic import TimingModel


#: The latency-style summary points of a per-instance distribution.
_SUMMARY_PERCENTILES = (50, 90, 95, 99)


@dataclass
class FleetResult:
    """Outcome of one fleet run.

    Attributes
    ----------
    stats:
        Aggregate :class:`ExecutionStats` over every instance (cycles,
        activations per task, firings per transition, events, budget
        stops).
    instance_cycles / instance_events:
        Per-instance totals, index-aligned with the input streams.
    engine:
        The engine that produced the result.
    elapsed_seconds:
        Wall-clock of the run (the denominator of :attr:`throughput_eps`).
    instance_ticks:
        Per-instance timed-delay totals when the run used a
        :class:`~repro.runtime.stochastic.TimingModel`, ``None`` for
        untimed runs.
    """

    stats: ExecutionStats
    instance_cycles: np.ndarray
    instance_events: np.ndarray
    engine: str
    elapsed_seconds: float = 0.0
    instance_ticks: Optional[np.ndarray] = None

    @property
    def instances(self) -> int:
        return int(len(self.instance_cycles))

    @property
    def throughput_eps(self) -> float:
        """Events served per wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.stats.events_processed / self.elapsed_seconds

    def percentile(self, q: float) -> float:
        """Percentile of the per-instance total-cycle distribution."""
        if len(self.instance_cycles) == 0:
            return 0.0
        return float(np.percentile(self.instance_cycles, q))

    def percentiles(
        self, qs: Sequence[float] = _SUMMARY_PERCENTILES
    ) -> Dict[str, float]:
        """The standard latency-style summary of the cycle distribution."""
        return _percentiles(self.instance_cycles, qs)

    def describe(self) -> str:
        lines = [
            f"fleet of {self.instances} instance(s) ({self.engine} engine)",
            self.stats.describe(),
            "per-instance cycles: "
            + ", ".join(
                f"{name}={value:.0f}" for name, value in self.percentiles().items()
            ),
        ]
        if self.instance_ticks is not None and len(self.instance_ticks):
            lines.append(
                "per-instance delay ticks: "
                + ", ".join(
                    f"{name}={value:.0f}"
                    for name, value in _percentiles(
                        self.instance_ticks, _SUMMARY_PERCENTILES
                    ).items()
                )
            )
        if self.elapsed_seconds > 0:
            lines.append(
                f"throughput: {self.throughput_eps:.0f} events/s "
                f"({self.elapsed_seconds:.3f}s wall)"
            )
        return "\n".join(lines)


def _percentiles(values: np.ndarray, qs: Sequence[float]) -> Dict[str, float]:
    """``{"p<q>": percentile}`` of ``values`` for every ``q``, from one
    :func:`numpy.percentile` call; zeros when ``values`` is empty."""
    if len(values) == 0:
        return {f"p{q:g}": 0.0 for q in qs}
    points = np.percentile(values, qs).tolist()
    return {f"p{q:g}": point for q, point in zip(qs, points)}


#: The memo's memory bound: once the interned state or cascade population
#: exceeds it, or a growth would take the cascade table past
#: ``128 * MEMO_STATE_LIMIT`` cells, the kernel frees its tables and
#: serves on the direct path for good (results are identical, the net is
#: just not memoization-friendly).
MEMO_STATE_LIMIT = 65_536


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """``array``, or a copy with room for ``needed`` rows (capacity doubles)."""
    if needed <= len(array):
        return array
    grown = np.empty(
        (max(needed, 2 * len(array)),) + array.shape[1:], dtype=array.dtype
    )
    grown[: len(array)] = array
    return grown


def _time_ordered(instance: np.ndarray, time: np.ndarray) -> bool:
    """True when every step raises the instance, or keeps it and does
    not lower the time: ``np.lexsort((time, instance))`` is then the
    identity.  ``time`` must hold no NaN."""
    same = instance[1:] == instance[:-1]
    raised = instance[1:] > instance[:-1]
    return bool(np.all(raised | (same & (time[1:] >= time[:-1]))))


def instance_not_enabled(transition: str, instance: int) -> NotEnabledError:
    """The error for an event whose source is not enabled in ``instance``.

    The error carries ``transition`` and ``instance`` as attributes, so a
    caller that maps kernel rows to its own keys can name the key.
    """
    error = NotEnabledError(
        f"transition {transition!r} is not enabled in instance {instance}"
    )
    error.transition = transition
    error.instance = instance
    return error


@dataclass
class CascadeRows:
    """Per-event outcome of running events to quiescence, one row each.

    ``end`` holds the end markings ``(K, P)`` as computed, or end state
    ids once stored in the memo.  ``act`` counts activations per module
    ``(K, M)`` and ``fired`` firings per transition ``(K, T)``.  A
    ``bad`` row's source was not enabled: it changed nothing.  A
    ``stopped`` row spent the firing budget under ``on_budget="stop"``.
    """

    end: np.ndarray
    cycles: np.ndarray
    ticks: np.ndarray
    act: np.ndarray
    fired: np.ndarray
    stopped: np.ndarray
    bad: np.ndarray


class SignatureTable:
    """Interned choice-resolution signatures over one compiled net.

    Signatures depend only on the net, so one table can back any number
    of :class:`FleetEngine` instances of the same ``CompiledNet`` — the
    service maps each batch to ids *once* at the ingest boundary
    (:meth:`gather`) and its shard's kernel consumes the resulting
    integer ids directly.

    Two-level scheme: the **raw** index caches insertion-order
    ``choices.items()`` tuples so the steady-state lookup skips the
    per-event sort; the **canonical** index keys sorted tuples so
    equivalent resolutions share one id.  Ids are assigned densely in
    canonical-creation order.
    """

    def __init__(self, cnet: CompiledNet) -> None:
        self.cnet = cnet
        n_t = len(cnet.transitions)
        # successor transition ids per choice place id, for the per-event
        # "allowed" masks
        successors: Dict[int, List[int]] = {}
        for t_id, pairs in enumerate(cnet.pre_lists):
            for p_id, _w in pairs:
                successors.setdefault(p_id, []).append(t_id)
        self._choice_successors: Dict[int, List[int]] = {
            p_id: t_ids for p_id, t_ids in successors.items() if len(t_ids) > 1
        }
        # signature id 0 is the empty resolution (allowed = everything)
        self._index: Dict[Tuple[Tuple[str, str], ...], int] = {(): 0}
        self._raw_index: Dict[Tuple[Tuple[str, str], ...], int] = {(): 0}
        self.allowed = np.ones((4, n_t), dtype=bool)
        self.count = 1

    def intern_raw(self, raw: Tuple[Tuple[str, str], ...]) -> int:
        """Intern an insertion-order ``choices.items()`` tuple."""
        sig_id = self._raw_index.get(raw)
        if sig_id is None:
            sig_id = self.intern(tuple(sorted(raw)))
            self._raw_index[raw] = sig_id
        return sig_id

    def intern(self, signature: Tuple[Tuple[str, str], ...]) -> int:
        """Intern one canonical (sorted) signature, returning its id.

        The allowed row deselects every transition whose preset contains
        a choice place that resolved to a *different* successor — the
        same filter :class:`ReactiveNetSimulator` applies per transition.
        """
        sig_id = self._index.get(signature)
        if sig_id is not None:
            return sig_id
        transition_index = self.cnet.transition_index
        place_index = self.cnet.place_index
        allowed = [True] * len(self.cnet.transitions)
        for place, chosen in signature:
            p_id = place_index.get(place)
            if p_id is None:
                continue
            candidates = self._choice_successors.get(p_id)
            if candidates is None:
                continue
            chosen_id = transition_index.get(chosen, -1)
            for t_id in candidates:
                if t_id != chosen_id:
                    allowed[t_id] = False
        sig_id = self.count
        self.allowed = _grown(self.allowed, sig_id + 1)
        self.allowed[sig_id] = allowed
        self._index[signature] = sig_id
        self.count += 1
        return sig_id

    def gather(self, columns: EventColumns) -> Tuple[np.ndarray, np.ndarray]:
        """Kernel (source id, signature id) columns of packed events.

        Each source name of the columns' table is looked up once in the
        compiled transition index, and each raw choice tuple that a row
        carries once through :meth:`intern_raw`: a table entry no row
        uses (a slice of a longer stream keeps the stream's table) is
        not interned.  Each id column is one gather through those maps.
        A source that no transition of the net names raises
        :class:`NotEnabledError` naming it, before any signature is
        interned.
        """
        lookup = self.cnet.transition_index.get
        source_map = np.array(
            [lookup(name, -1) for name in columns.sources], dtype=np.int64
        )
        src_ids = source_map[columns.source]
        unknown = np.flatnonzero(src_ids < 0)
        if unknown.size:
            name = columns.sources[int(columns.source[unknown[0]])]
            raise NotEnabledError(f"unknown source transition {name!r}")
        choices = columns.choices
        used = np.flatnonzero(
            np.bincount(columns.signature, minlength=len(choices))
        )
        signature_map = np.zeros(len(choices), dtype=np.int64)
        signature_map[used] = [
            self.intern_raw(choices[entry]) for entry in used.tolist()
        ]
        return src_ids, signature_map[columns.signature]


class FleetEngine:
    """The pure fleet stepping kernel: N instances of one compiled net.

    The engine owns *state* (the marking matrix, per-instance cycle and
    event counters, aggregate accounting) and *mechanism* (batched
    dispatch with memoized cascades); it knows nothing about streams,
    sockets or actors.  Drive it with :meth:`dispatch_rounds` — events
    in per-row order, served one round per :meth:`dispatch_ids` call,
    as the kernel ids that :meth:`prepare_events` gathers from
    :class:`~repro.runtime.events.EventColumns` (at the service's ingest
    boundary, :meth:`FleetSupervisor.pack` does the same) — and read the
    outcome with :meth:`result` at any point.

    Parameters
    ----------
    net:
        The specification (:class:`PetriNet` or pre-compiled
        :class:`CompiledNet`).
    assignment:
        Task of every transition (must cover *all* transitions — the
        kernel precomputes the module table up front).
    cost_model / max_firings_per_event / on_budget:
        As for :class:`~repro.runtime.reactive.ReactiveNetSimulator`.
    instances:
        Initial fleet size; :meth:`add_instances` grows it at runtime.
    memo:
        ``True`` (default) enables the cascade memo; ``False`` serves
        every event on the direct path (the cache bypass).  Both run
        the same :meth:`_compute_cascade`.
    signatures:
        Optional shared :class:`SignatureTable`.  The service passes
        its ingest boundary's table, so events interned once there are
        directly dispatchable on its shard's engine; by default each
        engine owns a private table.
    timing:
        Optional :class:`~repro.runtime.stochastic.TimingModel`.  Timed
        runs track an extra per-instance integer tick total: one
        ``fired @ ticks`` product per cascade row, which the memo
        replays.  Integer arithmetic keeps it byte-identical to the
        legacy engine's per-firing sum.
    """

    def __init__(
        self,
        net: Union[PetriNet, CompiledNet],
        assignment: ModuleAssignment,
        cost_model: Optional[CostModel] = None,
        max_firings_per_event: int = 100_000,
        on_budget: str = "error",
        instances: int = 0,
        memo: bool = True,
        timing: Optional[TimingModel] = None,
        signatures: Optional[SignatureTable] = None,
    ) -> None:
        self.on_budget = validate_budget_policy(on_budget)
        self.assignment = assignment
        self.cost = cost_model or CostModel()
        self.max_firings_per_event = max_firings_per_event
        self.timing = timing
        self.cnet: CompiledNet = (
            net if isinstance(net, CompiledNet) else compile_net(net)
        )
        if signatures is not None and signatures.cnet is not self.cnet:
            raise ValueError(
                "shared SignatureTable must be built over the engine's "
                "own CompiledNet"
            )
        self.signatures = signatures or SignatureTable(self.cnet)
        self._memo_active = memo
        self._prepare_tables()
        self._init_memo()
        self.reset(instances)

    # ------------------------------------------------------------------
    # Static tables (per net + assignment + cost model)
    # ------------------------------------------------------------------
    def _prepare_tables(self) -> None:
        cnet = self.cnet
        n_t = len(cnet.transitions)
        # module table: id per transition, names indexed by module id
        module_names: List[str] = []
        module_index: Dict[str, int] = {}
        module_of = np.empty(n_t, dtype=np.int64)
        for t_id, name in enumerate(cnet.transitions):
            module = self.assignment.module_of(name)
            if module not in module_index:
                module_index[module] = len(module_names)
                module_names.append(module)
            module_of[t_id] = module_index[module]
        self._module_names = module_names
        self._module_of = module_of
        transition_cycles = self.cost.transition_cycles
        test_cycles = self.cost.test_cycles
        self._fire_cycles = np.array(
            [cost * transition_cycles + test_cycles for cost in cnet.costs],
            dtype=np.int64,
        )
        self._nonsource = np.array(
            [bool(pairs) for pairs in cnet.pre_lists], dtype=bool
        )
        # timed runs: integer tick delay per transition id (the all-zero
        # vector keeps the untimed hot path branch-light)
        self._timed = self.timing is not None
        self._tick_vector = (
            self.timing.tick_vector(cnet)
            if self.timing is not None
            else np.zeros(n_t, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # Memo tables: marking states and cascades (signatures live in the
    # possibly-shared SignatureTable)
    # ------------------------------------------------------------------
    def _init_memo(self) -> None:
        self._state_index: Dict[bytes, int] = {}
        self._state_mark = np.empty((8, len(self.cnet.places)), dtype=np.int64)
        # source ordinal per transition id (-1: never an event's source)
        self._ordinal_of = np.full(len(self.cnet.transitions), -1, dtype=np.int64)
        self._ordinals = 0
        # cascade row per (state, source ordinal, signature), -1 until
        # computed; the axes grow by doubling in _reserve
        self._cascade_of = np.empty((0, 0, 0), dtype=np.int32)
        self._cascades: Optional[CascadeRows] = None
        self._cascade_count = 0
        # events served per cascade row since the last _fold_uses
        self._uses = np.zeros(8, dtype=np.int64)

    def _intern_states(self, markings: np.ndarray) -> np.ndarray:
        """State ids of the rows of ``markings``, interning new ones.

        One bytes key per row from one view of the matrix, one dict
        pass in which each new key takes the next id (so ids follow
        first occurrence, as one-at-a-time interning numbers them), and
        one growth of the state table.
        """
        markings = np.ascontiguousarray(markings)
        width = markings.shape[1] * markings.itemsize
        keys = (
            markings.view(np.dtype((np.void, width))).ravel().tolist()
            if width
            else [b""] * len(markings)
        )
        index = self._state_index
        known = len(index)
        ids = np.array(
            [index.setdefault(key, len(index)) for key in keys], dtype=np.int64
        )
        if len(index) > known:
            new = np.flatnonzero(ids >= known)
            self._state_mark = _grown(self._state_mark, len(index))
            self._state_mark[ids[new]] = markings[new]
        return ids

    def _intern_state(self, marking: np.ndarray) -> int:
        """The state id of one marking (:meth:`_intern_states` of one row)."""
        return int(self._intern_states(marking[np.newaxis])[0])

    # ------------------------------------------------------------------
    # Per-run state
    # ------------------------------------------------------------------
    def reset(self, instances: int = 0) -> None:
        """Reinitialize the fleet to ``instances`` fresh instances.

        Interned signatures, states and cascades are *kept* — they
        depend only on the net, assignment, cost model and budget, so a
        warm kernel serves repeated runs without re-simulating.
        """
        n_p = len(self.cnet.places)
        capacity = max(instances, 8)
        self._n = instances
        self._initial = np.array(self.cnet.initial, dtype=np.int64)
        self._markings = np.empty((capacity, n_p), dtype=np.int64)
        self._markings[:instances] = self._initial
        self._cycles = np.zeros(capacity, dtype=np.int64)
        self._ticks = np.zeros(capacity, dtype=np.int64)
        self._events = np.zeros(capacity, dtype=np.int64)
        self._fire_counts = np.zeros(len(self.cnet.transitions), dtype=np.int64)
        self._activation_counts = np.zeros(len(self._module_names), dtype=np.int64)
        self._budget_stops = 0
        self._uses[:] = 0
        self._state_of_row = np.zeros(capacity, dtype=np.int64)
        if self._memo_active:
            self._state_of_row[:instances] = self._intern_state(self._initial)

    def reset_state(self, reset_stats: bool = True) -> None:
        """Reset every instance to the initial marking (service reload).

        With ``reset_stats`` (default) the accounting starts over as
        well; otherwise cycle/event counters keep accumulating across
        the reload.
        """
        self._markings[: self._n] = self._initial
        if self._memo_active:
            self._state_of_row[: self._n] = self._intern_state(self._initial)
        if reset_stats:
            self._cycles[: self._n] = 0
            self._ticks[: self._n] = 0
            self._events[: self._n] = 0
            self._fire_counts[:] = 0
            self._activation_counts[:] = 0
            self._budget_stops = 0
            self._uses[:] = 0

    @property
    def instances(self) -> int:
        return self._n

    @property
    def events_total(self) -> int:
        return int(self._events[: self._n].sum())

    def add_instances(self, count: int) -> np.ndarray:
        """Register ``count`` fresh instances; returns their row indices."""
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        for name in ("_markings", "_cycles", "_ticks", "_events", "_state_of_row"):
            setattr(self, name, _grown(getattr(self, name), self._n + count))
        rows = np.arange(self._n, self._n + count, dtype=np.int64)
        self._markings[rows] = self._initial
        self._cycles[rows] = 0
        self._ticks[rows] = 0
        self._events[rows] = 0
        if self._memo_active:
            self._state_of_row[rows] = self._intern_state(self._initial)
        self._n += count
        return rows

    # ------------------------------------------------------------------
    # Dispatch: one event per listed instance row
    # ------------------------------------------------------------------
    def dispatch_ids(
        self, rows: np.ndarray, src_ids: np.ndarray, sig_ids: np.ndarray
    ) -> None:
        """Serve one *round*: event ``j`` (source ``src_ids[j]``, choice
        signature ``sig_ids[j]``, see :meth:`prepare_events`) is
        dispatched to instance ``rows[j]``.  Rows must be unique within a
        call (an instance's events are ordered; feed them in consecutive
        rounds).  A source that is not enabled or a spent firing budget
        raises before anything changes."""
        if len(src_ids) == 0:
            return
        if self._memo_active and not self._reserve(src_ids):
            # past the memory bound: serve directly for good
            live = self._state_of_row[: self._n]
            self._markings[: self._n] = self._state_mark[live]
            self._fold_uses()
            self._memo_active = False
            self._init_memo()
        if self._memo_active:
            ids = self._memo_cascades(rows, src_ids, sig_ids)
            table = self._cascades
        else:
            table = self._compute_cascade(self._markings[rows], src_ids, sig_ids)
            ids = np.arange(len(rows))
        bad = table.bad[ids]
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            raise instance_not_enabled(
                self.cnet.transitions[int(src_ids[first])], int(rows[first])
            )
        self._apply(rows, table, ids)

    def dispatch_rounds(
        self, rows: np.ndarray, src_ids: np.ndarray, sig_ids: np.ndarray
    ) -> None:
        """Serve events listed in per-row order, one round per call.

        Event ``j`` goes to instance ``rows[j]``, and each row's events
        are served in the order they are listed (events of different
        rows may interleave).  Round ``k`` is one :meth:`dispatch_ids`
        call with the ``k``-th event of every row that has one, rows
        ascending; a batch with one event per row is dispatched as
        given.  This is the paper's run to completion: an instance's
        next event starts only after its previous one quiesced.

        Events are grouped by row with one stable argsort, which is
        skipped when the rows never decrease: the stable sort of such
        rows is the identity.
        """
        if len(rows) == 0:
            return
        # stable sort by row (rows are never negative): each row's events
        # keep their order and form one contiguous run of the sorted
        # columns, [starts[g], starts[g] + counts[g])
        descends = (rows[1:] < rows[:-1]).any()
        order = np.argsort(rows, kind="stable") if descends else None
        ranked = rows if order is None else rows[order]
        starts = np.flatnonzero(np.diff(ranked, prepend=-1))
        counts = np.diff(starts, append=len(rows))
        rounds = int(counts.max())
        if rounds == 1:
            self.dispatch_ids(rows, src_ids, sig_ids)
            return
        if order is not None:
            src_ids, sig_ids = src_ids[order], sig_ids[order]
        for k in range(rounds):
            selected = starts[counts > k] + k
            self.dispatch_ids(
                ranked[selected], src_ids[selected], sig_ids[selected]
            )

    def prepare_events(
        self, events: EventColumns
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Kernel (source id, signature id) columns of packed events, row
        for row (:meth:`SignatureTable.gather`)."""
        return self.signatures.gather(events)

    def _reserve(self, src_ids: np.ndarray) -> bool:
        """Grow the cascade table to cover one round; ``False`` when the
        memo is past its bound and must go.

        The round's new sources take the next source ordinals.  Each
        axis that is too short grows by doubling (at least to what it
        needs): states as :meth:`_intern_state` interns them, sources as
        events name them, signatures to ``signatures.count`` — all of a
        shared table's signatures, not only those of this engine's
        events.  The memo is past its bound when it holds more than
        :data:`MEMO_STATE_LIMIT` states or cascades, or when a growth
        would take the table past ``128 * MEMO_STATE_LIMIT`` int32
        cells (32 MiB).
        """
        if max(len(self._state_index), self._cascade_count) > MEMO_STATE_LIMIT:
            return False
        fresh = src_ids[self._ordinal_of[src_ids] < 0]
        if fresh.size:
            fresh = np.unique(fresh)
            self._ordinal_of[fresh] = np.arange(
                self._ordinals, self._ordinals + len(fresh)
            )
            self._ordinals += len(fresh)
        table = self._cascade_of
        needed = (len(self._state_index), self._ordinals, self.signatures.count)
        shape = tuple(
            size if need <= size else max(need, 2 * size)
            for need, size in zip(needed, table.shape)
        )
        if shape == table.shape:
            return True
        if shape[0] * shape[1] * shape[2] > 128 * MEMO_STATE_LIMIT:
            return False
        self._cascade_of = np.full(shape, -1, dtype=np.int32)
        self._cascade_of[tuple(map(slice, table.shape))] = table
        return True

    def _memo_cascades(
        self, rows: np.ndarray, src_ids: np.ndarray, sig_ids: np.ndarray
    ) -> np.ndarray:
        """The memo's cascade id for every event of one round.

        One gather from the cascade table (grown by :meth:`_reserve`)
        finds every computed cascade.  Only the events whose cell still
        reads ``-1`` are de-duplicated by cell, and the distinct keys
        run through one :meth:`_compute_cascade` call and are stored.
        """
        _, span_src, span_sig = self._cascade_of.shape
        states = self._state_of_row[rows]
        cells = (states * span_src + self._ordinal_of[src_ids]) * span_sig + sig_ids
        flat = self._cascade_of.reshape(-1)
        ids = flat[cells]
        miss = np.flatnonzero(ids < 0)
        if miss.size:
            # one event stands for each missing cell
            _, first = np.unique(cells[miss], return_index=True)
            first = miss[first]
            fresh = self._compute_cascade(
                self._state_mark[states[first]], src_ids[first], sig_ids[first]
            )
            flat[cells[first]] = self._store_cascades(fresh)
            ids[miss] = flat[cells[miss]]
        return ids

    def _store_cascades(self, fresh: CascadeRows) -> np.ndarray:
        """Append ``fresh`` to the memo; returns the new rows' ids.

        The end markings are stored as state ids, interned in one
        :meth:`_intern_states` call (bad and stopped rows end where they
        are, so they intern too).
        """
        fresh.end = self._intern_states(fresh.end)
        start = self._cascade_count
        stop = start + len(fresh.end)
        if self._cascades is None:
            self._cascades = fresh
        else:
            for field in fields(CascadeRows):
                column = _grown(getattr(self._cascades, field.name), stop)
                column[start:stop] = getattr(fresh, field.name)
                setattr(self._cascades, field.name, column)
        self._uses = _grown(self._uses, stop)
        self._uses[start:stop] = 0
        self._cascade_count = stop
        return np.arange(start, stop)

    def _compute_cascade(
        self, markings: np.ndarray, src_ids: np.ndarray, sig_ids: np.ndarray
    ) -> CascadeRows:
        """Run K events to quiescence, event ``k`` from ``markings[k]``.

        Each event activates its source's task and fires the source,
        then fires the first enabled candidate its signature allows,
        one batched firing per iteration, until no candidate is left or
        the firing budget is spent.  Nothing of the fleet changes here:
        the rows' deltas come back as :class:`CascadeRows`.

        The loop runs on compact arrays of the rows still active: a row
        that quiesced is written back to the end markings once and
        leaves them, budget-stopped rows are written back at the stop.
        Every firing is recorded as a flat ``(row, transition)`` key and
        every activation as a ``(row, module)`` key, and ``fired`` and
        ``act`` are one :func:`numpy.bincount` of each.
        """
        count = len(src_ids)
        n_t, n_m = len(self.cnet.transitions), len(self._module_names)
        incidence = self.cnet.incidence
        enabled_mask = self.cnet.enabled_mask
        module_of = self._module_of
        end = markings.copy()
        stopped = np.zeros(count, dtype=bool)
        bad = ~np.all(end >= self.cnet.pre[src_ids], axis=1)

        # dispatch: one activation per event, then fire the source
        active = np.flatnonzero(~bad)
        sources = src_ids[active]
        marking = end[active] + incidence[sources]
        module = module_of[sources]
        allowed = self.signatures.allowed[sig_ids[active]] & self._nonsource
        fired_keys = [active * n_t + sources]
        act_keys = [active * n_m + module]
        firings = 1  # every active event has fired equally often

        # run to quiescence, one batched firing per iteration
        while active.size:
            candidates = enabled_mask(marking) & allowed
            has_candidate = candidates.any(axis=1)
            if not has_candidate.all():
                quiesced = ~has_candidate
                end[active[quiesced]] = marking[quiesced]
                active = active[has_candidate]
                if not active.size:
                    break
                marking = marking[has_candidate]
                module = module[has_candidate]
                allowed = allowed[has_candidate]
                candidates = candidates[has_candidate]
            # argmax of a boolean row = first True = lowest transition
            # id = the legacy "first candidate in insertion order"
            chosen = candidates.argmax(axis=1)
            marking += incidence[chosen]
            fired_keys.append(active * n_t + chosen)
            modules = module_of[chosen]
            crossed = modules != module
            act_keys.append(active[crossed] * n_m + modules[crossed])
            module = modules
            firings += 1
            if firings > self.max_firings_per_event:
                if self.on_budget != "stop":
                    raise RuntimeError(QUIESCENCE_MESSAGE)
                stopped[active] = True
                end[active] = marking
                break

        fired = np.bincount(
            np.concatenate(fired_keys), minlength=count * n_t
        ).reshape(count, n_t)
        act = np.bincount(
            np.concatenate(act_keys), minlength=count * n_m
        ).reshape(count, n_m)
        # every activation after an event's first crossed a task
        # boundary: one queue round trip each
        activations = act.sum(axis=1)
        crossings = np.maximum(activations - 1, 0)
        cycles = (
            activations * self.cost.activation_cycles
            + crossings * (2 * self.cost.queue_op_cycles)
            + fired @ self._fire_cycles
        )
        return CascadeRows(
            end=end,
            cycles=cycles,
            ticks=fired @ self._tick_vector,
            act=act,
            fired=fired,
            stopped=stopped,
            bad=bad,
        )

    def _apply(
        self, rows: np.ndarray, table: CascadeRows, ids: np.ndarray
    ) -> None:
        """Fold cascade row ``ids[j]`` into the accounting of ``rows[j]``.

        The memo counts each row's uses, which :meth:`_fold_uses` folds
        into the aggregate counts when they are read; the direct path's
        rows serve one event each, so it adds their column sums.
        """
        if self._memo_active:
            self._state_of_row[rows] = table.end[ids]
            np.add.at(self._uses, ids, 1)
        else:
            self._markings[rows] = table.end[ids]
            self._fire_counts += table.fired.sum(axis=0)
            self._activation_counts += table.act.sum(axis=0)
            self._budget_stops += int(table.stopped.sum())
        self._cycles[rows] += table.cycles[ids]
        if self._timed:
            self._ticks[rows] += table.ticks[ids]
        self._events[rows] += 1

    def _fold_uses(self) -> None:
        """Fold the memo's pending cascade uses into the aggregate
        firing, activation and budget-stop counts.

        One product per count over the whole table: gathering only the
        used rows would copy most of the table at the end of a cold run.
        """
        count = self._cascade_count
        uses = self._uses[:count]
        if not uses.any():
            return
        table = self._cascades
        self._fire_counts += uses @ table.fired[:count]
        self._activation_counts += uses @ table.act[:count]
        self._budget_stops += int(uses[table.stopped[:count]].sum())
        uses[:] = 0

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def budget_stops(self) -> int:
        """Events whose cascade spent the firing budget so far."""
        self._fold_uses()
        return self._budget_stops

    def cycle_totals(self) -> Tuple[int, int, int]:
        """The fleet's activation, body and queue cycles so far; their
        sum is its total cycles.

        They are pure functions of the counts, so nothing accumulates
        them separately: every activation after an event's first is one
        queue round trip.
        """
        self._fold_uses()
        activations = int(self._activation_counts.sum())
        return (
            activations * self.cost.activation_cycles,
            int(self._fire_counts @ self._fire_cycles),
            (activations - self.events_total) * (2 * self.cost.queue_op_cycles),
        )

    def cycle_percentiles(self) -> Dict[str, float]:
        """:meth:`FleetResult.percentiles` of the live instances, read
        without building a :class:`FleetResult`."""
        return _percentiles(self._cycles[: self._n], _SUMMARY_PERCENTILES)

    def aggregate_stats(self) -> ExecutionStats:
        """The aggregate :class:`ExecutionStats` accumulated so far."""
        stats = ExecutionStats()
        stats.events_processed = self.events_total
        parts = self.cycle_totals()
        stats.activation_cycles, stats.body_cycles, stats.queue_cycles = parts
        stats.total_cycles = sum(parts)
        stats.budget_stops = self.budget_stops
        if self._timed:
            stats.delay_ticks = int(self._fire_counts @ self._tick_vector)
        stats.activations = {
            self._module_names[m]: int(c)
            for m, c in enumerate(self._activation_counts)
            if c
        }
        stats.firings = {
            self.cnet.transitions[t]: int(c)
            for t, c in enumerate(self._fire_counts)
            if c
        }
        return stats

    def instance_cycles(self) -> np.ndarray:
        return self._cycles[: self._n].copy()

    def instance_events(self) -> np.ndarray:
        return self._events[: self._n].copy()

    def instance_ticks(self) -> Optional[np.ndarray]:
        """Per-instance delay totals (``None`` when untimed)."""
        if not self._timed:
            return None
        return self._ticks[: self._n].copy()

    def result(
        self, engine: str = ENGINE_COMPILED, elapsed_seconds: float = 0.0
    ) -> FleetResult:
        """Fold the accumulated accounting into a :class:`FleetResult`."""
        return FleetResult(
            stats=self.aggregate_stats(),
            instance_cycles=self.instance_cycles(),
            instance_events=self.instance_events(),
            engine=engine,
            elapsed_seconds=elapsed_seconds,
            instance_ticks=self.instance_ticks(),
        )


class FleetSimulator:
    """Steps N independent instances of one net as a single batch.

    A thin stream-orchestration layer over :class:`FleetEngine`: the
    same kernel that backs the always-on service
    (:mod:`repro.service`) is driven here with complete per-instance
    streams, round by round (:meth:`FleetEngine.dispatch_rounds`: round
    ``k`` dispatches the ``k``-th event of every instance at once).  The
    streams are read as :class:`~repro.runtime.events.EventColumns` —
    generated :class:`~repro.runtime.events.EventStreams` already are
    columns, other sequences of events are packed once — and their
    kernel ids come from one gather over the columns' name tables
    (:meth:`FleetEngine.prepare_events`), never from interning each
    :class:`Event`.

    Parameters
    ----------
    net:
        The specification (:class:`PetriNet` or pre-compiled
        :class:`CompiledNet`).
    assignment:
        Task of every transition (must cover *all* transitions).
    cost_model / max_firings_per_event / on_budget:
        As for :class:`~repro.runtime.reactive.ReactiveNetSimulator`.
    engine:
        ``"compiled"`` (default) runs the vectorized kernel; ``"legacy"``
        loops a string-keyed reactive simulator over the instances (the
        benchmark baseline).
    """

    def __init__(
        self,
        net: Union[PetriNet, CompiledNet],
        assignment: ModuleAssignment,
        cost_model: Optional[CostModel] = None,
        max_firings_per_event: int = 100_000,
        engine: str = ENGINE_COMPILED,
        on_budget: str = "error",
        timing: Optional[TimingModel] = None,
    ) -> None:
        self.engine = validate_engine(engine)
        self.on_budget = validate_budget_policy(on_budget)
        self.assignment = assignment
        self.cost = cost_model or CostModel()
        self.max_firings_per_event = max_firings_per_event
        self.timing = timing
        compiled = net if isinstance(net, CompiledNet) else None
        self._net: Optional[PetriNet] = None if compiled is not None else net
        # the legacy engine never touches the kernel, so it skips both
        # the compilation and the table preparation entirely
        if self.engine == ENGINE_COMPILED:
            self.kernel: Optional[FleetEngine] = FleetEngine(
                compiled or compile_net(net),
                assignment,
                cost_model=self.cost,
                max_firings_per_event=max_firings_per_event,
                on_budget=self.on_budget,
                timing=timing,
            )
            self.cnet: Optional[CompiledNet] = self.kernel.cnet
        else:
            self.kernel = None
            self.cnet = compiled

    @property
    def net(self) -> PetriNet:
        """The named view of the specification (decompiled on demand)."""
        if self._net is None:
            self._net = self.cnet.decompile()
        return self._net

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, streams: Sequence[Sequence[Event]]) -> FleetResult:
        """Execute one event stream per instance and return the fleet result.

        ``streams`` become :class:`EventColumns` once (generated
        :class:`EventStreams` already are).  A NaN event time is refused
        with :class:`ValueError` on both engines: it has no place in a
        time order.
        """
        started = time.perf_counter()
        columns = as_columns(streams)
        if np.isnan(columns.time).any():
            raise ValueError("an event time is NaN")
        if self.engine == ENGINE_LEGACY:
            result = self._run_legacy(streams)
        else:
            result = self._run_batched(columns, len(streams))
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # Legacy baseline: one reactive simulator, instance by instance
    # ------------------------------------------------------------------
    def _run_legacy(self, streams: Sequence[Sequence[Event]]) -> FleetResult:
        aggregate = ExecutionStats()
        cycles = np.zeros(len(streams), dtype=np.int64)
        ticks = np.zeros(len(streams), dtype=np.int64)
        events = np.zeros(len(streams), dtype=np.int64)
        simulator = ReactiveNetSimulator(
            self.net,
            self.assignment,
            self.cost,
            max_firings_per_event=self.max_firings_per_event,
            engine=ENGINE_LEGACY,
            on_budget=self.on_budget,
            timing=self.timing,
        )
        for i, stream in enumerate(streams):
            simulator.reset()
            stats = simulator.run(stream)
            cycles[i] = stats.total_cycles
            ticks[i] = stats.delay_ticks
            events[i] = stats.events_processed
            aggregate.merge(stats)
        return FleetResult(
            stats=aggregate,
            instance_cycles=cycles,
            instance_events=events,
            engine=self.engine,
            instance_ticks=ticks if self.timing is not None else None,
        )

    # ------------------------------------------------------------------
    # Compiled engine: drive the kernel round by round
    # ------------------------------------------------------------------
    def _run_batched(self, columns: EventColumns, count: int) -> FleetResult:
        """Serve the columns on the kernel, each instance in time order.

        One stable sort orders each instance's events by time (ties keep
        their stream order).  It is skipped when the columns already are
        in that order — every step raises the instance, or keeps it and
        does not lower the time (NaN was refused before) — because the
        sort of such columns is the identity.  Generated streams are
        grouped by instance and time-ordered by construction.
        """
        kernel = self.kernel
        kernel.reset(count)
        if not len(columns):
            return kernel.result(engine=self.engine)
        src_ids, sig_ids = kernel.prepare_events(columns)
        rows = columns.instance
        if not _time_ordered(rows, columns.time):
            # only the ordered columns stay alive while the kernel
            # serves them in rounds
            order = np.lexsort((columns.time, rows))
            rows, src_ids, sig_ids = rows[order], src_ids[order], sig_ids[order]
            del order
        kernel.dispatch_rounds(rows, src_ids, sig_ids)
        return kernel.result(engine=self.engine)


# ----------------------------------------------------------------------
# Generic workload synthesis (any net)
# ----------------------------------------------------------------------
def synthetic_streams(
    net: Union[PetriNet, CompiledNet],
    instances: int,
    events_per_instance: int,
    seed: int = 0,
    mean_interval: float = 1.0,
    arrival: str = "exponential",
) -> EventStreams:
    """Reproducible per-instance event streams for an arbitrary net.

    Every source transition of the net emits events through the chosen
    arrival process (``"exponential"`` — the historical default — or the
    ``"bursty"`` / ``"diurnal"`` processes of
    :mod:`repro.runtime.events`); the per-instance streams are merged in
    time order and truncated to ``events_per_instance``, and every event
    carries choice resolutions drawn uniformly over each choice place's
    successors by a per-instance seeded
    :class:`~repro.runtime.events.ChoiceSampler` (the applications'
    ``make_fleet_testbench`` draw their own odds through the same
    sampler).  Used by the corpus runtime sweep, ``repro-qss serve`` on
    corpus families and the differential suites; nets without source
    transitions yield empty streams.  The streams are fully determined by
    the arguments — identical across processes and platforms
    (`tests/test_service_differential.py` pins the default path,
    `tests/test_stochastic_determinism.py` every arrival process).
    """
    validate_arrival(arrival)
    named = net.decompile() if isinstance(net, CompiledNet) else net
    sources = named.source_transitions()
    probabilities = {
        place: {t: 1.0 for t in named.postset_names(place)}
        for place in named.choice_places()
    }
    collector = StreamCollector()
    for i in range(instances):
        base = seed * 1_000_003 + i * 7_919
        parts = [
            (
                source,
                arrival_times(
                    arrival,
                    mean_interval=mean_interval,
                    count=events_per_instance,
                    seed=base + s_idx,
                ),
            )
            for s_idx, source in enumerate(sources)
        ]
        sampler = ChoiceSampler(probabilities, seed=base + 104_729)
        collector.add(parts, sampler, limit=events_per_instance)
    return collector.finish()
