"""Schedule data structures: finite complete cycles and valid schedules.

A **finite complete cycle** is a firing sequence that returns the net to
its initial marking (Section 2).  A **valid schedule** (Definition 3.1)
is a set of finite complete cycles, one per resolution of the
non-deterministic choices (one per T-reduction), each containing at
least one occurrence of every source transition; it is the intermediate
representation from which C code is synthesized (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..petrinet import Marking, PetriNet, fire_sequence, is_finite_complete_cycle
from .allocation import TAllocation
from .reduction import TReduction


@dataclass(frozen=True)
class FiniteCompleteCycle:
    """One finite complete cycle of a valid schedule.

    Attributes
    ----------
    sequence:
        The transition firing order.
    firing_counts:
        ``{transition: number of firings}`` — a T-invariant of the net.
    allocation:
        The choice resolutions (T-allocation) this cycle corresponds to.
    reduction_transitions:
        The transitions of the T-reduction the cycle was scheduled on.
    invariants:
        The minimal T-invariants of that T-reduction, as computed by the
        Definition 3.5 check, in the verdict's order; each is stored as
        sorted ``(transition, count)`` pairs like ``firing_counts``.
        Task partitioning (Section 4) builds each task from them.
    """

    sequence: Tuple[str, ...]
    firing_counts: Tuple[Tuple[str, int], ...]
    allocation: TAllocation
    reduction_transitions: FrozenSet[str]
    invariants: Tuple[Tuple[Tuple[str, int], ...], ...]

    @classmethod
    def from_sequence(
        cls,
        sequence: Sequence[str],
        allocation: TAllocation,
        reduction_transitions: FrozenSet[str],
        invariants: Sequence[Mapping[str, int]],
    ) -> "FiniteCompleteCycle":
        counts: Dict[str, int] = {}
        for transition in sequence:
            counts[transition] = counts.get(transition, 0) + 1
        return cls(
            sequence=tuple(sequence),
            firing_counts=tuple(sorted(counts.items())),
            allocation=allocation,
            reduction_transitions=reduction_transitions,
            invariants=tuple(
                tuple(sorted(invariant.items())) for invariant in invariants
            ),
        )

    @property
    def counts(self) -> Dict[str, int]:
        return dict(self.firing_counts)

    def contains(self, transition: str) -> bool:
        return transition in self.counts

    def __len__(self) -> int:
        return len(self.sequence)

    def __str__(self) -> str:
        return "(" + " ".join(self.sequence) + ")"


@dataclass
class ValidSchedule:
    """A valid schedule: one finite complete cycle per T-reduction.

    The schedule is "complete" in the paper's sense: a C implementation
    covering all run-time choice resolutions can be derived from it.
    """

    net: PetriNet
    cycles: List[FiniteCompleteCycle] = field(default_factory=list)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    def verify(self, marking: Optional[Marking] = None) -> bool:
        """Re-execute every cycle and confirm it is a finite complete cycle
        containing every source transition of the net."""
        sources = set(self.net.source_transitions())
        start = marking if marking is not None else self.net.initial_marking
        for cycle in self.cycles:
            if not is_finite_complete_cycle(self.net, cycle.sequence, start):
                return False
            if not sources <= set(cycle.counts):
                return False
        return True

    def max_buffer_bounds(self, marking: Optional[Marking] = None) -> Dict[str, int]:
        """Maximum token count per place observed while executing each cycle
        from the initial marking — the static buffer sizes needed when the
        schedule is followed."""
        start = marking if marking is not None else self.net.initial_marking
        bounds: Dict[str, int] = {p: start[p] for p in self.net.place_names}
        for cycle in self.cycles:
            current = start
            for transition in cycle.sequence:
                current = self.net.fire(transition, current)
                for place, count in current.tokens.items():
                    if count > bounds.get(place, 0):
                        bounds[place] = count
        return bounds

    def describe(self) -> str:
        """Human readable multi-line description of the schedule."""
        lines = [
            f"valid schedule of net {self.net.name!r}: {self.cycle_count} "
            "finite complete cycle(s)"
        ]
        for index, cycle in enumerate(self.cycles):
            lines.append(f"  [{index}] {cycle}  choices: {cycle.allocation}")
        return "\n".join(lines)
