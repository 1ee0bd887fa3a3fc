"""T-allocations over Free-Choice Petri Nets.

Definition 3.3 of the paper: a T-allocation over an FCPN is a function
``alpha : P -> T`` that chooses exactly one successor of every place.
For non-choice places the function is forced (the unique successor); the
degrees of freedom are exactly the choice places, so a T-allocation is
represented here as a mapping ``{choice place: chosen transition}``.

The *allocation set* (the ``A1``/``A2`` sets of Figure 5) is the set of
transitions that survive the allocation: every transition except the
non-chosen successors of the choice places (source transitions, having
no predecessor place, are always kept).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

from ..petrinet import PetriNet
from ..petrinet.exceptions import NotFreeChoiceError
from ..petrinet.structure import is_free_choice


@dataclass(frozen=True)
class TAllocation:
    """A single T-allocation, identified by its choice resolutions.

    Attributes
    ----------
    choices:
        ``{choice place: chosen successor transition}``.  Only places with
        more than one successor appear; the allocation on all other
        places is implied.
    """

    choices: Tuple[Tuple[str, str], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "TAllocation":
        return cls(choices=tuple(sorted(mapping.items())))

    @property
    def as_dict(self) -> Dict[str, str]:
        """``{choice place: chosen transition}``, built once per instance.

        ``chosen()`` and ``allocated_transitions()`` look this mapping up
        from the hot enumeration loop, so it is memoized on first access
        (``object.__setattr__`` is the frozen-dataclass equivalent of
        ``cached_property``; equality and hashing still consider only the
        ``choices`` field).  Callers must not mutate the returned dict.
        """
        try:
            return self._memo_as_dict  # type: ignore[attr-defined]
        except AttributeError:
            mapping = dict(self.choices)
            object.__setattr__(self, "_memo_as_dict", mapping)
            return mapping

    def chosen(self, place: str) -> Optional[str]:
        """The transition chosen at ``place``, or None if not a choice."""
        return self.as_dict.get(place)

    def allocated_transitions(self, net: PetriNet) -> FrozenSet[str]:
        """The allocation set: every transition except non-chosen conflict
        successors.  Matches the ``A1``/``A2`` sets of Figure 5."""
        excluded = set()
        mapping = self.as_dict
        for place, chosen in mapping.items():
            for successor in net.postset_names(place):
                if successor != chosen:
                    excluded.add(successor)
        return frozenset(t for t in net.transition_names if t not in excluded)

    def __str__(self) -> str:
        inner = ", ".join(f"{p}->{t}" for p, t in self.choices)
        return f"TAllocation({inner})"


def count_allocations(net: PetriNet) -> int:
    """The number of T-allocations (product of choice out-degrees)."""
    count = 1
    for place in net.choice_places():
        count *= len(net.postset_names(place))
    return count


def enumerate_allocations(net: PetriNet) -> Iterator[TAllocation]:
    """Yield every T-allocation of ``net``.

    The number of allocations is the product of the out-degrees of the
    choice places — exponential in the number of choices, as the paper
    notes in its complexity discussion.  Iteration is lazy so callers can
    deduplicate the induced T-reductions on the fly.

    Raises
    ------
    NotFreeChoiceError
        If the net is not free-choice (T-allocations are defined for any
        net, but the QSS theory is stated for FCPNs only).
    """
    if not is_free_choice(net):
        raise NotFreeChoiceError(
            f"net {net.name!r} is not free-choice; quasi-static scheduling "
            "is defined for Free-Choice Petri Nets"
        )
    choice_places = net.choice_places()
    if not choice_places:
        yield TAllocation(choices=())
        return
    alternatives: List[List[Tuple[str, str]]] = [
        [(place, successor) for successor in net.postset_names(place)]
        for place in choice_places
    ]
    for combination in itertools.product(*alternatives):
        yield TAllocation(choices=tuple(sorted(combination)))
