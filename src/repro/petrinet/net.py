"""Core Petri net data model.

A Petri net is a triple ``(P, T, F)`` where ``P`` is a finite set of
places, ``T`` a finite set of transitions and ``F`` a weighted flow
relation between places and transitions (Murata 1989, Sgroi et al. 1999
Section 2).  This module provides the mutable :class:`PetriNet` container
together with the lightweight :class:`Place`, :class:`Transition` and
:class:`Arc` records.

Design notes
------------
* Nodes are identified by their (unique) string name.  All query methods
  accept either the node object or its name; internally everything is
  keyed by name so nets serialize naturally.
* The flow relation is stored twice (by source and by target) so preset
  and postset lookups are O(degree).
* The net owns the *initial marking*; transient markings produced during
  simulation are separate :class:`~repro.petrinet.marking.Marking` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from .compiled import CompiledNet

from .exceptions import (
    DuplicateNodeError,
    InvalidArcError,
    InvalidMarkingError,
    UnknownNodeError,
)
from .marking import Marking

NodeRef = Union[str, "Place", "Transition"]


@dataclass(frozen=True)
class Place:
    """A place of a Petri net.

    Attributes
    ----------
    name:
        Unique identifier of the place within its net.
    capacity:
        Optional capacity bound used by analyses that model finite
        buffers.  ``None`` means unbounded (the standard Petri net
        semantics used throughout the paper).
    label:
        Optional human readable label (e.g. the channel name in the
        functional specification).
    """

    name: str
    capacity: Optional[int] = None
    label: Optional[str] = None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Transition:
    """A transition of a Petri net.

    Attributes
    ----------
    name:
        Unique identifier of the transition within its net.
    label:
        Optional human readable label (e.g. the name of the C function
        the transition stands for during code generation).
    cost:
        Execution cost in abstract clock cycles charged by the runtime
        cost model when the transition body runs.
    is_source_hint / is_sink_hint:
        Explicit environment-interaction markers.  A transition with an
        empty preset is structurally a source; the hints let models mark
        environment transitions even when the net is later embedded in a
        larger one.
    """

    name: str
    label: Optional[str] = None
    cost: int = 1
    is_source_hint: bool = False
    is_sink_hint: bool = False

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Arc:
    """A weighted arc of the flow relation.

    ``source`` and ``target`` are node *names*; exactly one of them is a
    place and the other a transition.  ``weight`` is the value of
    ``F(source, target)`` and is always positive.
    """

    source: str
    target: str
    weight: int = 1

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise InvalidArcError(
                f"arc {self.source} -> {self.target} must have positive "
                f"weight, got {self.weight}"
            )


class PetriNet:
    """A weighted place/transition net with an initial marking.

    The class is deliberately mutable: model builders add places,
    transitions and arcs incrementally.  Analyses that require a frozen
    view should either copy the net (:meth:`copy`) or rely on the
    immutable matrices produced by :mod:`repro.petrinet.incidence`.

    Parameters
    ----------
    name:
        Optional name used in reports, DOT output and serialization.
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._places: Dict[str, Place] = {}
        self._transitions: Dict[str, Transition] = {}
        # arcs keyed by (source, target)
        self._arcs: Dict[Tuple[str, str], Arc] = {}
        # adjacency: node name -> {neighbour name: weight}
        self._succ: Dict[str, Dict[str, int]] = {}
        self._pred: Dict[str, Dict[str, int]] = {}
        self._initial_tokens: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_place(
        self,
        name: str,
        tokens: int = 0,
        capacity: Optional[int] = None,
        label: Optional[str] = None,
    ) -> Place:
        """Add a place and return it.

        ``tokens`` is the number of tokens in the initial marking.
        """
        self._check_new_name(name)
        if tokens < 0:
            raise InvalidMarkingError(f"place {name!r}: negative token count {tokens}")
        place = Place(name=name, capacity=capacity, label=label)
        self._places[name] = place
        self._succ[name] = {}
        self._pred[name] = {}
        if tokens:
            self._initial_tokens[name] = tokens
        return place

    def add_transition(
        self,
        name: str,
        label: Optional[str] = None,
        cost: int = 1,
        is_source_hint: bool = False,
        is_sink_hint: bool = False,
    ) -> Transition:
        """Add a transition and return it."""
        self._check_new_name(name)
        transition = Transition(
            name=name,
            label=label,
            cost=cost,
            is_source_hint=is_source_hint,
            is_sink_hint=is_sink_hint,
        )
        self._transitions[name] = transition
        self._succ[name] = {}
        self._pred[name] = {}
        return transition

    def add_arc(self, source: NodeRef, target: NodeRef, weight: int = 1) -> Arc:
        """Add an arc ``F(source, target) = weight``.

        The arc must connect a place to a transition or a transition to a
        place.  Adding an arc that already exists replaces its weight.
        """
        src = self._name_of(source)
        dst = self._name_of(target)
        if src not in self._succ:
            raise UnknownNodeError(f"unknown node {src!r}")
        if dst not in self._succ:
            raise UnknownNodeError(f"unknown node {dst!r}")
        src_is_place = src in self._places
        dst_is_place = dst in self._places
        if src_is_place == dst_is_place:
            raise InvalidArcError(
                f"arc {src!r} -> {dst!r} must connect a place and a transition"
            )
        arc = Arc(source=src, target=dst, weight=weight)
        self._arcs[(src, dst)] = arc
        self._succ[src][dst] = weight
        self._pred[dst][src] = weight
        return arc

    def remove_place(self, place: NodeRef) -> None:
        """Remove a place together with all its arcs and initial tokens."""
        name = self._name_of(place)
        if name not in self._places:
            raise UnknownNodeError(f"unknown place {name!r}")
        self._remove_node(name)
        del self._places[name]
        self._initial_tokens.pop(name, None)

    def remove_transition(self, transition: NodeRef) -> None:
        """Remove a transition together with all its arcs."""
        name = self._name_of(transition)
        if name not in self._transitions:
            raise UnknownNodeError(f"unknown transition {name!r}")
        self._remove_node(name)
        del self._transitions[name]

    def set_initial_tokens(self, place: NodeRef, tokens: int) -> None:
        """Set the number of tokens of ``place`` in the initial marking."""
        name = self._name_of(place)
        if name not in self._places:
            raise UnknownNodeError(f"unknown place {name!r}")
        if tokens < 0:
            raise InvalidMarkingError(f"place {name!r}: negative token count {tokens}")
        if tokens:
            self._initial_tokens[name] = tokens
        else:
            self._initial_tokens.pop(name, None)

    def _remove_node(self, name: str) -> None:
        for succ in list(self._succ.get(name, ())):
            self._arcs.pop((name, succ), None)
            self._pred[succ].pop(name, None)
        for pred in list(self._pred.get(name, ())):
            self._arcs.pop((pred, name), None)
            self._succ[pred].pop(name, None)
        self._succ.pop(name, None)
        self._pred.pop(name, None)

    def _check_new_name(self, name: str) -> None:
        if not name:
            raise DuplicateNodeError("node name must be a non-empty string")
        if name in self._places or name in self._transitions:
            raise DuplicateNodeError(f"node {name!r} already exists")

    @staticmethod
    def _name_of(node: NodeRef) -> str:
        if isinstance(node, (Place, Transition)):
            return node.name
        return node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def places(self) -> List[Place]:
        """All places, in insertion order."""
        return list(self._places.values())

    @property
    def transitions(self) -> List[Transition]:
        """All transitions, in insertion order."""
        return list(self._transitions.values())

    @property
    def arcs(self) -> List[Arc]:
        """All arcs, in insertion order."""
        return list(self._arcs.values())

    @property
    def place_names(self) -> List[str]:
        return list(self._places.keys())

    @property
    def transition_names(self) -> List[str]:
        return list(self._transitions.keys())

    def has_node(self, node: NodeRef) -> bool:
        name = self._name_of(node)
        return name in self._places or name in self._transitions

    def has_place(self, node: NodeRef) -> bool:
        return self._name_of(node) in self._places

    def has_transition(self, node: NodeRef) -> bool:
        return self._name_of(node) in self._transitions

    def place(self, name: str) -> Place:
        try:
            return self._places[name]
        except KeyError:
            raise UnknownNodeError(f"unknown place {name!r}") from None

    def transition(self, name: str) -> Transition:
        try:
            return self._transitions[name]
        except KeyError:
            raise UnknownNodeError(f"unknown transition {name!r}") from None

    def arc_weight(self, source: NodeRef, target: NodeRef) -> int:
        """Return ``F(source, target)``, or 0 if there is no such arc."""
        src = self._name_of(source)
        dst = self._name_of(target)
        return self._succ.get(src, {}).get(dst, 0)

    def preset(self, node: NodeRef) -> Dict[str, int]:
        """Return the preset of ``node`` as ``{predecessor: weight}``."""
        name = self._name_of(node)
        if name not in self._pred:
            raise UnknownNodeError(f"unknown node {name!r}")
        return dict(self._pred[name])

    def postset(self, node: NodeRef) -> Dict[str, int]:
        """Return the postset of ``node`` as ``{successor: weight}``."""
        name = self._name_of(node)
        if name not in self._succ:
            raise UnknownNodeError(f"unknown node {name!r}")
        return dict(self._succ[name])

    def preset_names(self, node: NodeRef) -> List[str]:
        return list(self.preset(node).keys())

    def postset_names(self, node: NodeRef) -> List[str]:
        return list(self.postset(node).keys())

    @property
    def initial_marking(self) -> Marking:
        """The initial marking as a :class:`Marking` over the net's places."""
        return Marking(
            {name: self._initial_tokens.get(name, 0) for name in self._places}
        )

    # ------------------------------------------------------------------
    # Structural shortcuts used throughout the QSS algorithm
    # ------------------------------------------------------------------
    def source_transitions(self) -> List[str]:
        """Transitions with an empty preset (inputs from the environment)."""
        return [t for t in self._transitions if not self._pred[t]]

    def sink_transitions(self) -> List[str]:
        """Transitions with an empty postset (outputs to the environment)."""
        return [t for t in self._transitions if not self._succ[t]]

    def source_places(self) -> List[str]:
        """Places with an empty preset."""
        return [p for p in self._places if not self._pred[p]]

    def choice_places(self) -> List[str]:
        """Places with more than one output transition (conflicts/choices)."""
        return [p for p in self._places if len(self._succ[p]) > 1]

    # ------------------------------------------------------------------
    # Semantics helpers (used by Marking-independent callers)
    # ------------------------------------------------------------------
    def is_enabled(self, transition: NodeRef, marking: Mapping[str, int]) -> bool:
        """Return True if ``transition`` is enabled in ``marking``."""
        name = self._name_of(transition)
        if name not in self._transitions:
            raise UnknownNodeError(f"unknown transition {name!r}")
        for place, weight in self._pred[name].items():
            if marking.get(place, 0) < weight:
                return False
        return True

    def enabled_transitions(self, marking: Mapping[str, int]) -> List[str]:
        """All transitions enabled in ``marking``, in insertion order."""
        return [t for t in self._transitions if self.is_enabled(t, marking)]

    def fire(self, transition: NodeRef, marking: Marking) -> Marking:
        """Fire ``transition`` in ``marking`` and return the new marking.

        Raises :class:`~repro.petrinet.exceptions.NotEnabledError` if the
        transition is not enabled.
        """
        from .exceptions import NotEnabledError

        name = self._name_of(transition)
        if not self.is_enabled(name, marking):
            raise NotEnabledError(
                f"transition {name!r} is not enabled in marking {marking}"
            )
        tokens = dict(marking.tokens)
        for place, weight in self._pred[name].items():
            tokens[place] = tokens.get(place, 0) - weight
        for place, weight in self._succ[name].items():
            tokens[place] = tokens.get(place, 0) + weight
        return Marking(tokens)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledNet":
        """Compile the net into its frozen integer-indexed form.

        The returned :class:`~repro.petrinet.compiled.CompiledNet` is a
        snapshot: later mutations of this net are not reflected in it.
        All hot analyses (reachability, constrained simulation, QSS) run
        on the compiled view; see :mod:`repro.petrinet.compiled`.
        """
        from .compiled import CompiledNet

        return CompiledNet.from_net(self)

    # ------------------------------------------------------------------
    # Copy / combination
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "PetriNet":
        """Return a deep copy of the net (nodes are immutable and shared)."""
        clone = PetriNet(name=name or self.name)
        clone._places = dict(self._places)
        clone._transitions = dict(self._transitions)
        clone._arcs = dict(self._arcs)
        clone._succ = {k: dict(v) for k, v in self._succ.items()}
        clone._pred = {k: dict(v) for k, v in self._pred.items()}
        clone._initial_tokens = dict(self._initial_tokens)
        return clone

    def subnet(
        self,
        places: Iterable[str],
        transitions: Iterable[str],
        name: Optional[str] = None,
    ) -> "PetriNet":
        """Return the subnet induced by the given node subsets.

        Arcs are kept when both endpoints survive; initial tokens of the
        kept places are preserved.
        """
        keep_places = set(places)
        keep_transitions = set(transitions)
        sub = PetriNet(name=name or f"{self.name}_sub")
        for pname in self._places:
            if pname in keep_places:
                original = self._places[pname]
                sub.add_place(
                    pname,
                    tokens=self._initial_tokens.get(pname, 0),
                    capacity=original.capacity,
                    label=original.label,
                )
        for tname in self._transitions:
            if tname in keep_transitions:
                original = self._transitions[tname]
                sub.add_transition(
                    tname,
                    label=original.label,
                    cost=original.cost,
                    is_source_hint=original.is_source_hint,
                    is_sink_hint=original.is_sink_hint,
                )
        for (src, dst), arc in self._arcs.items():
            if sub.has_node(src) and sub.has_node(dst):
                sub.add_arc(src, dst, arc.weight)
        return sub

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeRef) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        return len(self._places) + len(self._transitions)

    def __repr__(self) -> str:
        return (
            f"PetriNet(name={self.name!r}, places={len(self._places)}, "
            f"transitions={len(self._transitions)}, arcs={len(self._arcs)})"
        )

    def summary(self) -> str:
        """Return a one-paragraph human readable description of the net."""
        return (
            f"net {self.name!r}: {len(self._places)} places, "
            f"{len(self._transitions)} transitions, {len(self._arcs)} arcs, "
            f"{len(self.choice_places())} choice places, "
            f"{len(self.source_transitions())} source transitions, "
            f"{len(self.sink_transitions())} sink transitions"
        )
