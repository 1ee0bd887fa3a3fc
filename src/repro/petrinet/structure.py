"""Structural classification of Petri nets.

This module implements the net-class predicates used by the QSS
algorithm (Sgroi et al. 1999, Section 2):

* **Marked Graph** — every place has at most one input and one output
  transition (models concurrency/synchronization, no conflict).
* **Conflict-Free net** — every place has at most one output transition.
* **Free-Choice net** — every arc from a place is either the unique
  outgoing arc of that place or the unique incoming arc of its target
  transition; equivalently, whenever one output transition of a place is
  enabled, all of them are.
"""

from __future__ import annotations

from .net import PetriNet


def is_marked_graph(net: PetriNet) -> bool:
    """Return True if every place has at most one input and one output
    transition."""
    for place in net.place_names:
        if len(net.preset(place)) > 1 or len(net.postset(place)) > 1:
            return False
    return True


def is_conflict_free(net: PetriNet) -> bool:
    """Return True if every place has at most one output transition."""
    for place in net.place_names:
        if len(net.postset(place)) > 1:
            return False
    return True


def is_free_choice(net: PetriNet) -> bool:
    """Return True if the net is a Free-Choice net.

    The definition used by the paper: every arc from a place is either
    the unique outgoing arc of that place, or the unique incoming arc of
    the transition it points to.  This guarantees that whenever one
    output transition of a choice place is enabled, all of them are, so
    choice outcomes depend on token *values*, never on token arrival
    times.
    """
    for place in net.place_names:
        successors = net.postset_names(place)
        if len(successors) <= 1:
            continue
        for transition in successors:
            if len(net.preset(transition)) != 1:
                return False
    return True


def is_extended_free_choice(net: PetriNet) -> bool:
    """Return True if the net is an Extended Free-Choice net.

    Two places sharing an output transition must have identical postsets.
    Every free-choice net is extended free-choice; the converse does not
    hold.  The QSS algorithm itself only requires the (ordinary)
    free-choice property, but the predicate is useful when validating
    model transformations.
    """
    for p1 in net.place_names:
        post1 = set(net.postset_names(p1))
        if not post1:
            continue
        for p2 in net.place_names:
            if p1 >= p2:
                continue
            post2 = set(net.postset_names(p2))
            if post1 & post2 and post1 != post2:
                return False
    return True


def is_ordinary(net: PetriNet) -> bool:
    """Return True if every arc has weight one."""
    return all(arc.weight == 1 for arc in net.arcs)


def classify(net: PetriNet) -> str:
    """Return the most specific class name for ``net``.

    The classes are checked from the most restrictive to the most
    general: ``"marked-graph"``, ``"conflict-free"``, ``"free-choice"``,
    ``"extended-free-choice"``, ``"general"``.
    """
    if is_marked_graph(net):
        return "marked-graph"
    if is_conflict_free(net):
        return "conflict-free"
    if is_free_choice(net):
        return "free-choice"
    if is_extended_free_choice(net):
        return "extended-free-choice"
    return "general"
