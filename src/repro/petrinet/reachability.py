"""Reachability, coverability, boundedness, deadlock and liveness analysis.

The paper lists reachability, boundedness, deadlock-freedom and liveness
as the decidable Petri net properties relevant to software synthesis
(Section 2).  The QSS algorithm itself only needs T-invariants and
constrained simulation, but the exploratory analyses here are used by

* tests, to independently confirm what QSS claims (e.g. that a net
  declared unschedulable really can exceed any bound under an
  adversarial choice policy),
* the diagnostics produced for unschedulable specifications,
* the example applications, as a model sanity check.

For bounded nets the reachability graph is finite and explored
exhaustively; for possibly-unbounded nets the Karp–Miller coverability
tree with omega-acceleration is used.

Two engines answer every query: ``"compiled"`` (default) runs the
frontier-batched exploration of :mod:`repro.petrinet.frontier` (one
level loop, in RAM or out of core), ``"legacy"`` the original dict-based
token game, kept as the oracle the differential suites compare against.
Both visit markings in the same BFS order, so their graphs are
identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from .exceptions import UnknownNodeError

from .compiled import (
    ENGINE_COMPILED,
    ENGINE_LEGACY,
    OMEGA,
    CompiledNet,
    validate_engine,
)
from .frontier import FrontierExploration, explore_frontier
from .marking import Marking
from .net import PetriNet
from .outofcore import parse_memory_budget


class ReachabilityGraph:
    """Explicit reachability graph of a (bounded portion of a) net.

    Attributes
    ----------
    markings:
        All distinct markings discovered.
    edges:
        ``(source marking index, transition, target marking index)``.
    complete:
        True if exploration finished without hitting the node limit; the
        boundedness/deadlock/liveness answers are only exact when the
        graph is complete.

    Graphs built by the compiled engine (:meth:`from_exploration`)
    keep the discovered markings as one ``(N, P)`` integer matrix and
    the edges as three parallel arrays; the named ``markings``/``edges``
    views above materialize lazily on first access, so analyses that
    only need counts or the integer structure (deadlock detection,
    liveness) never pay for N ``Marking`` dictionaries.  Either way the
    materialized views are identical to what the legacy engine builds
    eagerly.
    """

    def __init__(
        self,
        markings: Optional[List[Marking]] = None,
        edges: Optional[List[Tuple[int, str, int]]] = None,
        complete: bool = True,
    ) -> None:
        self._markings: List[Marking] = list(markings) if markings is not None else []
        self._edges: List[Tuple[int, str, int]] = (
            list(edges) if edges is not None else []
        )
        self.complete = complete
        self._index: Dict[Marking, int] = {}
        # successors() adjacency cache (rebuilt lazily when `edges` or
        # `markings` grew since it was built — see successors())
        self._adjacency: Optional[List[List[Tuple[str, int]]]] = None
        self._adjacency_shape: Tuple[int, int] = (-1, -1)
        # lazy (compiled) storage; None on eagerly-built graphs
        self._compiled: Optional[CompiledNet] = None
        self._exploration: Optional[FrontierExploration] = None

    @classmethod
    def from_exploration(
        cls, compiled: CompiledNet, exploration: FrontierExploration
    ) -> "ReachabilityGraph":
        """Wrap a frontier exploration without materializing named views."""
        graph = cls(complete=exploration.complete)
        graph._compiled = compiled
        graph._exploration = exploration
        return graph

    # ------------------------------------------------------------------
    # Lazy materialization
    # ------------------------------------------------------------------
    @property
    def num_markings(self) -> int:
        """Number of discovered markings, without materializing them."""
        if self._exploration is not None and not self._markings:
            return self._exploration.node_count
        return len(self._markings)

    @property
    def num_edges(self) -> int:
        """Number of discovered edges, without materializing them."""
        if self._exploration is not None and not self._edges:
            return self._exploration.edge_count
        return len(self._edges)

    @property
    def markings(self) -> List[Marking]:
        if self._exploration is not None and not self._markings:
            compiled = self._compiled
            assert compiled is not None
            places = compiled.places
            from_clean = Marking._from_clean
            self._markings = [
                from_clean(dict(zip(compress(places, m), compress(m, m))))
                for m in self._exploration.matrix.tolist()
            ]
        return self._markings

    @property
    def edges(self) -> List[Tuple[int, str, int]]:
        exploration = self._exploration
        if exploration is not None and not self._edges and exploration.edge_count:
            compiled = self._compiled
            assert compiled is not None
            names = compiled.transitions
            self._edges = list(
                zip(
                    exploration.edge_src.tolist(),
                    [names[t] for t in exploration.edge_transition.tolist()],
                    exploration.edge_dst.tolist(),
                )
            )
        return self._edges

    @property
    def initial(self) -> Marking:
        if self._exploration is not None and not self._markings:
            compiled = self._compiled
            assert compiled is not None
            return compiled.marking_from_tuple(self._exploration.matrix[0])
        return self._markings[0]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _ensure_index(self) -> Dict[Marking, int]:
        # built lazily: graphs constructed from a finished exploration
        # only pay for the hash map when a lookup is actually needed
        if not self._index and self.markings:
            self._index = {m: i for i, m in enumerate(self.markings)}
        return self._index

    def add_marking(self, marking: Marking) -> int:
        """Append a marking (must be new) and return its index."""
        index_map = self._ensure_index()
        markings = self.markings
        index = len(markings)
        markings.append(marking)
        index_map[marking] = index
        return index

    def index_of(self, marking: Marking) -> Optional[int]:
        return self._ensure_index().get(marking)

    def successors(self, index: int) -> List[Tuple[str, int]]:
        """Outgoing ``(transition, target index)`` edges of one marking.

        Backed by an adjacency list built once and reused — repeated
        calls (liveness/deadlock sweeps touch every node) are O(degree)
        instead of a fresh O(E) scan per call.  The cache notices when
        ``edges`` or ``markings`` grew since it was built and rebuilds
        lazily.
        """
        edges = self.edges
        shape = (self.num_markings, len(edges))
        if self._adjacency is None or self._adjacency_shape != shape:
            adjacency: List[List[Tuple[str, int]]] = [[] for _ in range(shape[0])]
            for src, transition, dst in edges:
                adjacency[src].append((transition, dst))
            self._adjacency = adjacency
            self._adjacency_shape = shape
        return list(self._adjacency[index])

    def deadlock_markings(self) -> List[Marking]:
        """Markings with no outgoing edge.

        On a complete graph these are exactly the deadlocks.  A
        truncated graph also lists the markings it never expanded;
        :func:`find_deadlocks` filters those out.
        """
        exploration = self._exploration
        if exploration is not None and not self._markings and not self._edges:
            # compiled graphs answer from the integer arrays and only
            # decompile the markings without an out-edge
            compiled = self._compiled
            assert compiled is not None
            has_out = np.zeros(exploration.node_count, dtype=bool)
            has_out[exploration.edge_src] = True
            return [
                compiled.marking_from_tuple(exploration.matrix[i])
                for i in np.flatnonzero(~has_out)
            ]
        with_successors = {src for src, _, _ in self.edges}
        return [
            marking
            for i, marking in enumerate(self.markings)
            if i not in with_successors
        ]

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReachabilityGraph):
            return NotImplemented
        return (
            self.complete == other.complete
            and self.markings == other.markings
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return (
            f"ReachabilityGraph(markings={self.num_markings}, "
            f"edges={self.num_edges}, complete={self.complete})"
        )


def _validate_outofcore_args(
    engine: str,
    memory_budget: Optional[object],
    spill_dir: Optional[object],
) -> None:
    """Refuse the out-of-core knobs under the legacy engine, and a
    malformed memory budget under any engine."""
    if engine == ENGINE_LEGACY and (memory_budget is not None or spill_dir is not None):
        raise ValueError(
            "memory_budget/spill_dir are not supported by "
            f"engine='{ENGINE_LEGACY}'; use engine='{ENGINE_COMPILED}'"
        )
    parse_memory_budget(memory_budget)


def build_reachability_graph(
    net: Union[PetriNet, CompiledNet],
    max_markings: int = 100_000,
    marking: Optional[Marking] = None,
    engine: str = ENGINE_COMPILED,
    memory_budget: Optional[object] = None,
    spill_dir: Optional[object] = None,
) -> ReachabilityGraph:
    """Breadth-first exploration of the reachable markings.

    Exploration stops (and ``complete`` is set to False) when
    ``max_markings`` distinct markings have been discovered, which is the
    only way to terminate on unbounded nets.

    ``engine`` selects the execution core: ``"compiled"`` (default)
    explores whole BFS levels as ``(N, P)`` numpy matrices on the net's
    :class:`~repro.petrinet.compiled.CompiledNet` view
    (:mod:`repro.petrinet.frontier`) and materializes the named
    markings/edges lazily; ``"legacy"`` runs the original dict-based
    token game.  Both engines visit the same markings in the same BFS
    order, so the resulting graphs are identical.

    The compiled engine additionally accepts ``memory_budget`` (bytes
    or ``"256MB"``-style strings) and ``spill_dir``, which keep the
    exploration's storage on disk (:mod:`repro.petrinet.outofcore`) —
    the graph is still bit-identical, only its storage is memory-mapped.
    """
    validate_engine(engine)
    _validate_outofcore_args(engine, memory_budget, spill_dir)
    if engine == ENGINE_COMPILED:
        compiled = net if isinstance(net, CompiledNet) else net.compile()
        exploration = explore_frontier(
            compiled,
            start=None if marking is None else compiled.marking_to_tuple(marking),
            max_markings=max_markings,
            memory_budget=memory_budget,
            spill_dir=spill_dir,
        )
        return ReachabilityGraph.from_exploration(compiled, exploration)
    if isinstance(net, CompiledNet):
        raise ValueError(
            "engine='legacy' needs a PetriNet; pass net.decompile() to "
            "run the dict-based exploration on a compiled net"
        )
    start = marking if marking is not None else net.initial_marking
    graph = ReachabilityGraph(markings=[start])
    queue = deque([0])
    while queue:
        current_index = queue.popleft()
        current = graph.markings[current_index]
        for transition in net.enabled_transitions(current):
            successor = net.fire(transition, current)
            successor_index = graph.index_of(successor)
            if successor_index is None:
                if len(graph.markings) >= max_markings:
                    graph.complete = False
                    return graph
                successor_index = graph.add_marking(successor)
                queue.append(successor_index)
            graph.edges.append((current_index, transition, successor_index))
    return graph


def is_reachable(
    net: Union[PetriNet, CompiledNet],
    target: Marking,
    marking: Optional[Marking] = None,
    max_markings: int = 100_000,
    engine: str = ENGINE_COMPILED,
) -> bool:
    """True if ``target`` is reachable from ``marking`` (exact for bounded
    nets explored within the limit).

    The compiled engine answers without building a graph: the
    exploration stops as soon as the target marking is discovered, so
    positive answers on large state spaces return early.
    """
    validate_engine(engine)
    if engine == ENGINE_LEGACY:
        graph = build_reachability_graph(
            net, max_markings=max_markings, marking=marking, engine=engine
        )
        return graph.index_of(target) is not None
    compiled = net if isinstance(net, CompiledNet) else net.compile()
    try:
        target_tuple = compiled.marking_to_tuple(target)
    except UnknownNodeError:
        # tokens on a place this net does not have: unreachable, the
        # same verdict the legacy graph-membership test gives
        return False
    exploration = explore_frontier(
        compiled,
        start=None if marking is None else compiled.marking_to_tuple(marking),
        max_markings=max_markings,
        target=target_tuple,
        stop_on_target=True,
        collect_edges=False,
    )
    return exploration.target_index is not None


# ----------------------------------------------------------------------
# Coverability (Karp–Miller) for boundedness on possibly-unbounded nets
# ----------------------------------------------------------------------
@dataclass
class CoverabilityResult:
    """Outcome of the Karp–Miller coverability construction.

    ``unbounded_places`` lists the places that can accumulate an
    unbounded number of tokens under *some* firing sequence; the net is
    bounded iff this list is empty.

    ``complete`` is False when the construction stopped at the
    ``max_nodes`` cap.  Places already accelerated to omega are
    genuinely unbounded regardless, but a truncated run may have missed
    further unbounded places — so ``bounded=True`` is only a proof when
    ``complete`` is also True.
    """

    bounded: bool
    unbounded_places: List[str]
    node_count: int
    place_bounds: Dict[str, int]
    complete: bool = True


def _omega_add(a: int, b: int) -> int:
    if a == OMEGA or b == OMEGA:
        return OMEGA
    return a + b


def _covers(big: Tuple[int, ...], small: Tuple[int, ...]) -> bool:
    for x, y in zip(big, small):
        if y == OMEGA and x != OMEGA:
            return False
        if x != OMEGA and y != OMEGA and x < y:
            return False
    return True


def coverability_analysis(
    net: Union[PetriNet, CompiledNet],
    marking: Optional[Marking] = None,
    max_nodes: int = 200_000,
    engine: str = ENGINE_COMPILED,
    memory_budget: Optional[object] = None,
    spill_dir: Optional[object] = None,
) -> CoverabilityResult:
    """Karp–Miller coverability tree with omega acceleration.

    Whenever a new node strictly covers one of its ancestors, the strictly
    larger components are accelerated to omega, which makes the tree
    finite and identifies exactly the places that can grow without bound.

    ``engine`` selects the execution core.  ``"legacy"`` runs the
    original name-keyed token game.  ``"compiled"`` (default) first
    runs the batched plain-reachability exploration as a *bounded-prefix
    fast path*: if the whole state space fits within ``max_nodes`` the
    net is bounded and the per-place bounds are the exact column maxima
    of the marking matrix (on bounded nets the Karp–Miller construction
    never accelerates, so its node set and bounds coincide with plain
    reachability).  If the prefix is truncated — the net is unbounded,
    or simply bigger than the cap — it defers to the Karp–Miller
    construction on numpy omega-vectors over the net's integer place
    ids, whose omega verdict is the only finite way to prove
    unboundedness.  A net with a source transition that has an output
    place skips the prefix: the source is always enabled and every
    firing adds a token, so the prefix could only run into
    ``max_nodes``.  Both Karp–Miller cores expand the same nodes in the
    same depth-first order (Karp–Miller trees are sensitive to
    exploration order), so the results — boundedness, unbounded
    places, node count and place bounds — are identical on both
    engines and cross-checkable.

    The compiled prefix honours ``memory_budget``/``spill_dir``
    (out-of-core prefix exploration; identical verdicts).  The
    Karp–Miller construction runs in RAM regardless: omega acceleration
    needs the ancestor chains resident.
    """
    validate_engine(engine)
    _validate_outofcore_args(engine, memory_budget, spill_dir)
    if engine == ENGINE_COMPILED:
        return _coverability_analysis_frontier(
            net if isinstance(net, CompiledNet) else net.compile(),
            marking,
            max_nodes,
            memory_budget,
            spill_dir,
        )
    if isinstance(net, CompiledNet):
        raise ValueError(
            "engine='legacy' needs a PetriNet; pass net.decompile() to "
            "run the dict-based coverability on a compiled net"
        )
    places = tuple(net.place_names)
    start_marking = marking if marking is not None else net.initial_marking
    start = tuple(start_marking[p] for p in places)

    place_index = {p: i for i, p in enumerate(places)}

    def enabled(vector: Tuple[int, ...], transition: str) -> bool:
        for place, weight in net.preset(transition).items():
            value = vector[place_index[place]]
            if value != OMEGA and value < weight:
                return False
        return True

    def fire(vector: Tuple[int, ...], transition: str) -> Tuple[int, ...]:
        result = list(vector)
        for place, weight in net.preset(transition).items():
            i = place_index[place]
            if result[i] != OMEGA:
                result[i] -= weight
        for place, weight in net.postset(transition).items():
            i = place_index[place]
            result[i] = _omega_add(result[i], weight)
        return tuple(result)

    # Each stack entry carries the node and its ancestor chain for the
    # acceleration test.
    seen: Set[Tuple[int, ...]] = {start}
    stack: List[Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]] = [(start, ())]
    unbounded: Set[str] = set()
    bounds: Dict[str, int] = {p: start[i] for i, p in enumerate(places)}
    node_count = 1

    while stack:
        vector, ancestors = stack.pop()
        for transition in net.transition_names:
            if not enabled(vector, transition):
                continue
            successor = list(fire(vector, transition))
            # omega acceleration against every ancestor and the current node
            for ancestor in ancestors + (vector,):
                if _covers(tuple(successor), ancestor) and tuple(successor) != ancestor:
                    for i in range(len(places)):
                        anc_value = ancestor[i]
                        succ_value = successor[i]
                        if succ_value == OMEGA:
                            continue
                        if anc_value != OMEGA and succ_value > anc_value:
                            successor[i] = OMEGA
            successor_t = tuple(successor)
            for i, value in enumerate(successor_t):
                if value == OMEGA:
                    unbounded.add(places[i])
                else:
                    bounds[places[i]] = max(bounds[places[i]], value)
            if successor_t not in seen:
                if node_count >= max_nodes:
                    # conservative: report what has been found so far
                    return CoverabilityResult(
                        bounded=not unbounded,
                        unbounded_places=sorted(unbounded),
                        node_count=node_count,
                        place_bounds=bounds,
                        complete=False,
                    )
                seen.add(successor_t)
                node_count += 1
                stack.append((successor_t, ancestors + (vector,)))
    return CoverabilityResult(
        bounded=not unbounded,
        unbounded_places=sorted(unbounded),
        node_count=node_count,
        place_bounds=bounds,
    )


def _coverability_analysis_frontier(
    compiled: CompiledNet,
    marking: Optional[Marking],
    max_nodes: int,
    memory_budget: Optional[object] = None,
    spill_dir: Optional[object] = None,
) -> CoverabilityResult:
    """Bounded-prefix fast path backed by the frontier exploration.

    A complete plain-reachability exploration within ``max_nodes`` *is*
    a boundedness proof: no reachable marking was truncated, so every
    place's exact bound is the column maximum of the marking matrix.
    On bounded nets the Karp–Miller tree never accelerates (a strict
    cover would pump tokens without bound), so node count and bounds
    agree with the Karp–Miller construction exactly.  A truncated
    prefix proves nothing — unbounded nets never finish — and defers to
    the compiled Karp–Miller construction wholesale, making the
    verdicts identical to Karp–Miller's on every net.  A source
    transition with an output place makes the state space infinite, so
    such nets defer without exploring the prefix.
    """
    start = (
        compiled.marking_to_tuple(marking) if marking is not None else None
    )
    if any(compiled.post_lists[t] for t in compiled.source_transition_ids()):
        return _coverability_analysis_compiled(compiled, marking, max_nodes)
    exploration = explore_frontier(
        compiled,
        start=start,
        max_markings=max_nodes,
        collect_edges=False,
        memory_budget=memory_budget,
        spill_dir=spill_dir,
    )
    if not exploration.complete:
        return _coverability_analysis_compiled(compiled, marking, max_nodes)
    bounds = np.asarray(exploration.matrix.max(axis=0), dtype=np.int64)
    return CoverabilityResult(
        bounded=True,
        unbounded_places=[],
        node_count=exploration.node_count,
        place_bounds={
            place: int(bound) for place, bound in zip(compiled.places, bounds)
        },
        complete=True,
    )


def _coverability_analysis_compiled(
    compiled: CompiledNet, marking: Optional[Marking], max_nodes: int
) -> CoverabilityResult:
    """Karp–Miller on numpy omega-vectors indexed by compiled place ids.

    The traversal mirrors the legacy engine move for move — same DFS
    stack discipline, same transition order (insertion order), same
    root-to-parent acceleration sweep — so both engines build the same
    tree node for node; only the per-node work is vectorized:
    enabledness of all transitions in one ``(T, P)`` comparison
    (:meth:`CompiledNet.omega_enabled_mask`), firing via the incidence
    row (:meth:`CompiledNet.omega_fire`) and the cover/acceleration
    tests as whole-vector masks.
    """
    places = compiled.places
    start = np.array(
        compiled.marking_to_tuple(marking) if marking is not None else compiled.initial,
        dtype=np.int64,
    )
    enabled_mask = compiled.omega_enabled_mask
    omega_fire = compiled.omega_fire

    seen: Set[bytes] = {start.tobytes()}
    # Each stack entry carries the node and its ancestor chain (root
    # first) for the acceleration test.
    stack: List[Tuple[np.ndarray, Tuple[np.ndarray, ...]]] = [(start, ())]
    unbounded = np.zeros(len(places), dtype=bool)
    bounds = start.copy()
    node_count = 1

    def result(complete: bool) -> CoverabilityResult:
        return CoverabilityResult(
            bounded=not bool(unbounded.any()),
            unbounded_places=sorted(compress(places, unbounded)),
            node_count=node_count,
            place_bounds={p: int(bounds[i]) for i, p in enumerate(places)},
            complete=complete,
        )

    while stack:
        vector, ancestors = stack.pop()
        # The ancestor chain (root first, current node last) as one
        # (depth, P) matrix, so the per-ancestor acceleration sweep of the
        # legacy engine becomes a whole-chain vectorized test.
        chain_matrix = np.vstack(ancestors + (vector,))
        chain_omega = chain_matrix == OMEGA
        chain_finite = ~chain_omega
        for transition in np.flatnonzero(enabled_mask(vector)):
            successor = omega_fire(transition, vector)
            # Omega acceleration, equivalent to the legacy root-to-parent
            # sweep: an ancestor only changes the successor when it is
            # covered AND some finite component strictly grew (equal or
            # omega-for-omega covers mutate nothing), so it suffices to
            # jump straight to the first such ancestor, accelerate, and
            # re-scan the remaining suffix with the updated successor —
            # at most P accelerations per successor, each one vectorized
            # matrix pass instead of O(depth) scalar cover tests.
            position = 0
            depth = chain_matrix.shape[0]
            while position < depth:
                sub_matrix = chain_matrix[position:]
                sub_omega = chain_omega[position:]
                sub_finite = chain_finite[position:]
                succ_omega = successor == OMEGA
                covers = np.all(
                    np.where(
                        sub_omega, succ_omega, succ_omega | (successor >= sub_matrix)
                    ),
                    axis=1,
                )
                growth = sub_finite & ~succ_omega & (successor > sub_matrix)
                accelerating = covers & growth.any(axis=1)
                if not accelerating.any():
                    break
                first = int(np.argmax(accelerating))
                successor = np.where(growth[first], OMEGA, successor)
                position += first + 1
            succ_omega = successor == OMEGA
            unbounded |= succ_omega
            np.maximum(bounds, np.where(succ_omega, bounds, successor), out=bounds)
            key = successor.tobytes()
            if key not in seen:
                if node_count >= max_nodes:
                    # conservative: report what has been found so far
                    return result(complete=False)
                seen.add(key)
                node_count += 1
                stack.append((successor, ancestors + (vector,)))
    return result(complete=True)


def is_bounded(
    net: Union[PetriNet, CompiledNet],
    marking: Optional[Marking] = None,
    engine: str = ENGINE_COMPILED,
) -> bool:
    """True if no place can accumulate an unbounded number of tokens.

    Raises ``RuntimeError`` when the Karp–Miller construction was
    truncated before reaching a verdict: a truncated run that found
    omega places still proves unboundedness, but "no omega seen yet" is
    not a boundedness proof and is refused rather than guessed.
    """
    result = coverability_analysis(net, marking=marking, engine=engine)
    if result.unbounded_places:
        return False
    if result.complete:
        return True
    raise RuntimeError(
        "boundedness undecided: the Karp-Miller construction hit its node "
        "cap before finding an omega place or finishing"
    )


def is_k_bounded(
    net: Union[PetriNet, CompiledNet],
    k: int,
    marking: Optional[Marking] = None,
    engine: str = ENGINE_COMPILED,
) -> bool:
    """True if no reachable marking puts more than ``k`` tokens in a place.

    Like :func:`is_bounded`, raises ``RuntimeError`` when a truncated
    construction cannot decide; negative verdicts (an omega place, or an
    observed bound above ``k``) are sound even from a truncated run.
    """
    result = coverability_analysis(net, marking=marking, engine=engine)
    if result.unbounded_places:
        return False
    if any(bound > k for bound in result.place_bounds.values()):
        # coverability-tree token counts are reachable, so exceeding k is
        # definitive regardless of truncation
        return False
    if result.complete:
        return True
    raise RuntimeError(
        f"{k}-boundedness undecided: the Karp-Miller construction hit its "
        "node cap before finishing"
    )


def is_safe(
    net: Union[PetriNet, CompiledNet],
    marking: Optional[Marking] = None,
    engine: str = ENGINE_COMPILED,
) -> bool:
    """True if the net is 1-bounded (the assumption of Lin's method that
    the paper explicitly drops)."""
    return is_k_bounded(net, 1, marking=marking, engine=engine)


# ----------------------------------------------------------------------
# Deadlock and liveness (exact on bounded nets)
# ----------------------------------------------------------------------
def find_deadlocks(
    net: Union[PetriNet, CompiledNet],
    marking: Optional[Marking] = None,
    max_markings: int = 100_000,
    engine: str = ENGINE_COMPILED,
    memory_budget: Optional[object] = None,
    spill_dir: Optional[object] = None,
) -> List[Marking]:
    """Reachable markings with no enabled transition.

    Every returned marking is a real deadlock, also when the
    exploration hit ``max_markings``; a truncated exploration may miss
    deadlocks beyond the cap.  The compiled engine accepts the
    out-of-core knobs of :func:`build_reachability_graph`.
    """
    graph = build_reachability_graph(
        net,
        max_markings=max_markings,
        marking=marking,
        engine=engine,
        memory_budget=memory_budget,
        spill_dir=spill_dir,
    )
    return _deadlocks(net, graph)


def _deadlocks(
    net: Union[PetriNet, CompiledNet], graph: ReachabilityGraph
) -> List[Marking]:
    """The deadlocks among ``graph``'s markings without an out-edge."""
    deadlocks = graph.deadlock_markings()
    if graph.complete:
        return deadlocks
    # a truncated graph never expanded its last markings: keep the ones
    # that enable no transition
    named = net.decompile() if isinstance(net, CompiledNet) else net
    return [m for m in deadlocks if not named.enabled_transitions(m)]


def _strongly_connected_components(
    n: int, successors: List[List[int]]
) -> List[int]:
    """Iterative Tarjan SCC: returns the component id of every node.

    Component ids are assigned in reverse topological order of the
    condensation (a component's id is larger than those of the
    components it can reach), although :func:`is_live` only needs the
    partition itself.
    """
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    component = [-1] * n
    scc_stack: List[int] = []
    counter = 0
    n_components = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # explicit DFS stack of (node, next child position)
        work = [(root, 0)]
        while work:
            node, child = work[-1]
            if child == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                scc_stack.append(node)
                on_stack[node] = True
            advanced = False
            while child < len(successors[node]):
                succ = successors[node][child]
                child += 1
                if index[succ] == -1:
                    work[-1] = (node, child)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ]:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = False
                    component[member] = n_components
                    if member == node:
                        break
                n_components += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return component


def is_live(
    net: Union[PetriNet, CompiledNet],
    marking: Optional[Marking] = None,
    max_markings: int = 100_000,
    engine: str = ENGINE_COMPILED,
) -> bool:
    """True if from every reachable marking every transition can eventually
    fire again (exact for nets whose reachability graph fits in the limit).

    The verdict is computed on the condensation of the reachability
    graph: the net is live iff every *terminal* strongly connected
    component (one with no outgoing edge) fires every transition
    internally.  From any marking some terminal component is reachable,
    and once inside one the forward closure is exactly that component —
    so the terminal components are where liveness is decided.  This is
    O(V + E) instead of the quadratic per-marking forward closures.
    """
    graph = build_reachability_graph(
        net, max_markings=max_markings, marking=marking, engine=engine
    )
    if isinstance(net, CompiledNet):
        all_transitions = set(net.transitions)
    else:
        all_transitions = set(net.transition_names)
    return live_verdict(graph, all_transitions)


def live_verdict(graph: ReachabilityGraph, all_transitions: Set[str]) -> bool:
    """The liveness verdict on an already-built complete reachability graph.

    Exposed so pipelines that already hold the graph (e.g. the scenario
    corpus, which needs deadlocks *and* liveness from the same
    exploration) do not pay for a second exploration through
    :func:`is_live`.  Raises ``RuntimeError`` on incomplete graphs.
    """
    if not graph.complete:
        raise RuntimeError(
            "liveness is only decided exactly on nets whose reachability "
            "graph fits within the exploration limit"
        )
    n = graph.num_markings
    successors: List[List[int]] = [[] for _ in range(n)]
    for src, _, dst in graph.edges:
        successors[src].append(dst)
    component = _strongly_connected_components(n, successors)
    n_components = max(component) + 1 if component else 0
    has_exit = [False] * n_components
    internal: List[Set[str]] = [set() for _ in range(n_components)]
    for src, transition, dst in graph.edges:
        if component[src] == component[dst]:
            internal[component[src]].add(transition)
        else:
            has_exit[component[src]] = True
    return all(
        internal[c] == all_transitions
        for c in range(n_components)
        if not has_exit[c]
    )


def place_bounds(
    net: Union[PetriNet, CompiledNet],
    marking: Optional[Marking] = None,
    engine: str = ENGINE_COMPILED,
) -> Dict[str, Optional[int]]:
    """Per-place token bound, ``None`` meaning unbounded.

    For schedulable nets these bounds are what static buffer allocation
    in the generated C code relies upon.  ``engine`` selects the
    coverability core the bounds are read from.
    """
    result = coverability_analysis(net, marking=marking, engine=engine)
    if not result.complete:
        # these bounds size static buffers in the generated C code, so an
        # observed-so-far maximum from a truncated construction must never
        # masquerade as a real bound
        raise RuntimeError(
            "place bounds undecided: the Karp-Miller construction hit its "
            "node cap; only a finished construction yields exact bounds"
        )
    places = net.places if isinstance(net, CompiledNet) else net.place_names
    bounds: Dict[str, Optional[int]] = {}
    for place in places:
        if place in result.unbounded_places:
            bounds[place] = None
        else:
            bounds[place] = result.place_bounds.get(place, 0)
    return bounds
