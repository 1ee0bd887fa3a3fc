"""Lin-style safe-net software synthesis (restricted comparator).

The paper's related-work discussion (Section 1) describes Lin's approach
[Lin, DAC 1998]: synthesize a sequential program from a concurrent
specification through a Petri net that is assumed to be *safe*
(1-bounded).  Safeness guarantees termination of the synthesis and makes
every specification schedulable, but it rules out multirate behaviour
(weighted arcs), source/sink transitions modelling the environment, and
therefore inputs with independent rates.

This module implements that restricted flow so the limitation can be
demonstrated experimentally: :func:`is_applicable` reports whether the
method can handle a net at all, and :func:`synthesize_single_task`
produces a single sequential task for the nets it accepts (the
closed, safe nets).  The gallery and ATM nets are rejected for exactly
the reasons the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..petrinet import PetriNet
from ..petrinet.reachability import build_reachability_graph, is_safe
from ..petrinet.structure import is_ordinary

#: Firings :func:`synthesize_single_task` walks before it gives up on
#: finding the initial marking again.
MAX_SEQUENCE_LENGTH = 10_000


@dataclass
class SafeSynthesisResult:
    """Outcome of attempting Lin-style synthesis on a net."""

    applicable: bool
    reasons: List[str] = field(default_factory=list)
    sequence: Optional[List[str]] = None

    def explain(self) -> str:
        if self.applicable:
            length = len(self.sequence or [])
            return f"safe-net synthesis applicable; cyclic sequence of length {length}"
        return "safe-net synthesis not applicable: " + "; ".join(self.reasons)


def is_applicable(net: PetriNet) -> SafeSynthesisResult:
    """Check the preconditions of the safe-net method on ``net``."""
    reasons: List[str] = []
    if net.source_transitions() or net.sink_transitions():
        reasons.append(
            "the net has source/sink transitions modelling the environment, "
            "which safeness-based synthesis cannot represent"
        )
    if not is_ordinary(net):
        reasons.append(
            "the net has weighted arcs (multirate behaviour), which a safe "
            "net cannot express"
        )
    if not reasons and not is_safe(net):
        reasons.append("the net is not 1-bounded (safe)")
    return SafeSynthesisResult(applicable=not reasons, reasons=reasons)


def synthesize_single_task(net: PetriNet) -> SafeSynthesisResult:
    """Produce a single cyclic firing sequence for a safe, closed net.

    The sequence is found by walking the (finite, because the net is
    safe) reachability graph until the initial marking recurs, always
    taking the first enabled transition; this mirrors the determinised
    sequential program Lin's method emits.  Non-applicable nets are
    reported as such without raising.
    """
    result = is_applicable(net)
    if not result.applicable:
        return result
    marking = net.initial_marking
    sequence: List[str] = []
    current = marking
    for _ in range(MAX_SEQUENCE_LENGTH):
        enabled = net.enabled_transitions(current)
        if not enabled:
            result.reasons.append("the net deadlocks before returning to the initial marking")
            result.applicable = False
            return result
        transition = enabled[0]
        sequence.append(transition)
        current = net.fire(transition, current)
        if current == marking:
            result.sequence = sequence
            return result
    result.reasons.append(
        "no cyclic sequence found within the exploration bound"
    )
    result.applicable = False
    return result
