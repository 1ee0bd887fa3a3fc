"""Token-game simulation of Petri nets.

Two kinds of simulation are needed by the paper's algorithms:

1. **Constrained simulation** (:func:`find_firing_sequence`): given a
   firing-count vector (typically a T-invariant), find an ordering of the
   firings that is actually executable from the initial marking — this is
   the "verify by simulation that the net does not deadlock" step of
   Section 2 (and condition (3) of Definition 3.5).  The sequence found,
   if any, is a finite complete cycle.

2. **Free simulation** (:class:`Simulator`): execute the net step by step
   under a pluggable choice policy; used by the runtime substrate, by the
   adversarial boundedness experiments and by tests.

The constrained simulation here runs on the :class:`PetriNet` itself:
it is the search of the legacy QSS oracle
(:func:`repro.qss.schedulability.check_reduction`).  The mask pipeline
orders a reduction's counts with its own greedy walk
(:meth:`repro.qss.compiled_reduction.CompiledReduction.find_finite_complete_cycle`),
which returns the same sequence.  :class:`CompiledSimulator` is the
free simulation on the integer-indexed
:class:`~repro.petrinet.compiled.CompiledNet` core: compile once (or
pass a ``CompiledNet``) and run over marking tuples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from .compiled import CompiledNet, MarkingTuple, compile_net
from .exceptions import NotEnabledError
from .marking import Marking
from .net import PetriNet

#: A choice policy picks one of the enabled transitions (by name).  The
#: first argument is the net being simulated — a :class:`PetriNet` under
#: :class:`Simulator` and a :class:`CompiledNet` under
#: :class:`CompiledSimulator` (where the second argument is the compiled
#: marking tuple rather than a :class:`Marking`).  The bundled policies
#: only look at the enabled list, so they work under either engine.
ChoicePolicy = Callable[..., str]

NetLike = Union[PetriNet, CompiledNet]


@dataclass
class SimulationTrace:
    """Record of a simulation run.

    Attributes
    ----------
    fired:
        The sequence of transitions fired, in order.
    markings:
        The marking after each firing; ``markings[0]`` is the initial
        marking, so ``len(markings) == len(fired) + 1``.
    deadlocked:
        True if the run stopped because no transition was enabled.
    """

    fired: List[str] = field(default_factory=list)
    markings: List[Marking] = field(default_factory=list)
    deadlocked: bool = False

    @property
    def final_marking(self) -> Marking:
        return self.markings[-1]

    def max_tokens(self) -> Dict[str, int]:
        """Maximum number of tokens observed in each place across the run."""
        peak: Dict[str, int] = {}
        for marking in self.markings:
            for place, count in marking.tokens.items():
                if count > peak.get(place, 0):
                    peak[place] = count
        return peak

    def firing_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for transition in self.fired:
            counts[transition] = counts.get(transition, 0) + 1
        return counts


def fire_sequence(
    net: NetLike, sequence: Sequence[str], marking: Optional[Marking] = None
) -> Marking:
    """Fire ``sequence`` from ``marking`` (default: the initial marking)
    and return the resulting marking.

    Accepts either a :class:`PetriNet` or a :class:`CompiledNet`; the
    result is always a named :class:`Marking`.

    Raises :class:`~repro.petrinet.exceptions.NotEnabledError` if any
    transition in the sequence is not enabled when its turn comes.
    """
    if isinstance(net, CompiledNet):
        current = (
            net.marking_to_tuple(marking) if marking is not None else net.initial
        )
        for transition in sequence:
            current = net.fire_by_name(transition, current)
        return net.marking_from_tuple(current)
    state = marking if marking is not None else net.initial_marking
    for transition in sequence:
        state = net.fire(transition, state)
    return state


def is_finite_complete_cycle(
    net: NetLike, sequence: Sequence[str], marking: Optional[Marking] = None
) -> bool:
    """True if ``sequence`` is fireable and returns the net to ``marking``.

    This is the defining property of a finite complete cycle (Section 2):
    the period of a static or quasi-static schedule.
    """
    if marking is None:
        marking = net.initial_marking
    try:
        end = fire_sequence(net, sequence, marking)
    except NotEnabledError:
        return False
    return end == marking


def search_firing_order(start, remaining, is_enabled, fire) -> Optional[list]:
    """Explicit-stack DFS over remaining-count states.

    ``start`` is a hashable marking (the legacy oracle passes a
    :class:`Marking`), ``remaining`` a ``{transition: count}`` dict with
    positive counts, and ``is_enabled(t, m)`` / ``fire(t, m)`` the
    token-game primitives to run on.  Candidates are tried in
    ``remaining`` insertion order and failed ``(marking, counts)``
    states are memoized, exactly like the recursive search this
    replaces — but the stack is explicit, so a cycle with more firings
    than ``sys.getrecursionlimit()`` (e.g. a multirate net with large
    rates scaled by ``MAX_CYCLE_SCALE``) no longer raises
    ``RecursionError``: the depth of the search equals the total firing
    count, not a bounded constant.

    Returns the firing sequence (in the caller's transition domain), or
    ``None`` when no executable ordering of the counts exists.
    """
    if not remaining:
        return []
    failed: set = set()
    sequence: list = []
    # frame layout: [marking, counts, candidates, next_candidate_index, key]
    frames: List[list] = [
        [start, remaining, list(remaining), 0, (start, tuple(sorted(remaining.items())))]
    ]
    while frames:
        frame = frames[-1]
        marking, counts, candidates = frame[0], frame[1], frame[2]
        if frame[3] == 0 and frame[4] in failed:
            # entering a state already known to be a dead end: backtrack
            frames.pop()
            if sequence:
                sequence.pop()
            continue
        advanced = False
        while frame[3] < len(candidates):
            transition = candidates[frame[3]]
            frame[3] += 1
            if not is_enabled(transition, marking):
                continue
            next_marking = fire(transition, marking)
            next_counts = dict(counts)
            next_counts[transition] -= 1
            if next_counts[transition] == 0:
                del next_counts[transition]
            sequence.append(transition)
            if not next_counts:
                return sequence
            frames.append(
                [
                    next_marking,
                    next_counts,
                    list(next_counts),
                    0,
                    (next_marking, tuple(sorted(next_counts.items()))),
                ]
            )
            advanced = True
            break
        if advanced:
            continue
        failed.add(frame[4])
        frames.pop()
        if sequence:
            sequence.pop()
    return None


def find_firing_sequence(
    net: PetriNet,
    firing_counts: Mapping[str, int],
    marking: Optional[Marking] = None,
) -> Optional[List[str]]:
    """Find an executable ordering of the given firing counts.

    Given a firing-count vector (e.g. a T-invariant), search for a
    sequence that fires each transition exactly ``firing_counts[t]``
    times starting from ``marking`` without ever blocking.  Returns the
    sequence, or ``None`` if no such ordering exists (the net would
    deadlock for these counts, so the counts do not correspond to a
    finite complete cycle).

    The search is :func:`search_firing_order`, a depth-first search
    over remaining-count states with memoization of failed states (an
    explicit stack, so long cycles cannot overflow the interpreter
    recursion limit), trying candidates in ``firing_counts`` order.  It
    can take exponential time when no ordering exists.  On a
    conflict-free net it never backtracks where an ordering exists, and
    the first-enabled greedy walk gives the same answer; the proof is in
    :meth:`repro.qss.compiled_reduction.CompiledReduction.find_finite_complete_cycle`.
    """
    start = marking if marking is not None else net.initial_marking
    remaining = {t: int(c) for t, c in firing_counts.items() if c > 0}
    return search_firing_order(start, remaining, net.is_enabled, net.fire)


def find_finite_complete_cycle(
    net: PetriNet,
    firing_counts: Mapping[str, int],
    marking: Optional[Marking] = None,
) -> Optional[List[str]]:
    """Find a finite complete cycle realizing ``firing_counts``.

    This combines :func:`find_firing_sequence` with the check that the
    final marking equals the starting one (it always does when the counts
    satisfy the state equation, but the check guards against callers
    passing non-stationary vectors).
    """
    if marking is None:
        marking = net.initial_marking
    sequence = find_firing_sequence(net, firing_counts, marking)
    if sequence is None:
        return None
    if fire_sequence(net, sequence, marking) != marking:
        return None
    return sequence


# ----------------------------------------------------------------------
# Free simulation under a choice policy
# ----------------------------------------------------------------------
def policy_first_enabled(net: PetriNet, marking: Marking, enabled: List[str]) -> str:
    """Deterministic policy: fire the first enabled transition in net order."""
    return enabled[0]


def make_random_policy(seed: int = 0) -> ChoicePolicy:
    """Return a reproducible uniformly-random choice policy."""
    rng = random.Random(seed)

    def policy(net: PetriNet, marking: Marking, enabled: List[str]) -> str:
        return rng.choice(enabled)

    return policy


def make_adversarial_policy(preferred: Sequence[str]) -> ChoicePolicy:
    """Return a policy that always picks a preferred transition when it can.

    This models the scheduling "adversary" of Section 3 who resolves
    conflicts so as to accumulate tokens; tests use it to demonstrate the
    unbounded behaviour of non-schedulable nets such as Figure 3b.
    """
    preference = list(preferred)

    def policy(net: PetriNet, marking: Marking, enabled: List[str]) -> str:
        for transition in preference:
            if transition in enabled:
                return transition
        return enabled[0]

    return policy


class Simulator:
    """Step-by-step token game simulator with a pluggable choice policy."""

    def __init__(
        self,
        net: PetriNet,
        marking: Optional[Marking] = None,
        policy: ChoicePolicy = policy_first_enabled,
    ) -> None:
        self.net = net
        self.marking = marking if marking is not None else net.initial_marking
        self.policy = policy
        self.trace = SimulationTrace(markings=[self.marking])

    def enabled(self) -> List[str]:
        """Transitions enabled in the current marking."""
        return self.net.enabled_transitions(self.marking)

    def step(self) -> Optional[str]:
        """Fire one transition chosen by the policy.

        Returns the fired transition name, or ``None`` if the net is
        deadlocked (no transition enabled).
        """
        enabled = self.enabled()
        if not enabled:
            self.trace.deadlocked = True
            return None
        transition = self.policy(self.net, self.marking, enabled)
        self.marking = self.net.fire(transition, self.marking)
        self.trace.fired.append(transition)
        self.trace.markings.append(self.marking)
        return transition

    def run(self, max_steps: int) -> SimulationTrace:
        """Fire up to ``max_steps`` transitions (stopping early on deadlock)."""
        for _ in range(max_steps):
            if self.step() is None:
                break
        return self.trace


class CompiledSimulator:
    """Token-game simulator running on the compiled integer-indexed core.

    Mirrors :class:`Simulator` — same trace format, same policy protocol
    (the bundled policies work unchanged) — but keeps the marking as an
    integer tuple and fires through the compiled delta tables, which is
    what makes large scenario fan-outs affordable.

    Parameters
    ----------
    net:
        A :class:`PetriNet` (compiled on the fly) or a pre-compiled
        :class:`CompiledNet` (shared across simulators for fan-out).
    record_markings:
        When True (default) the trace records the marking after every
        firing, exactly like :class:`Simulator`.  When False only the
        initial and current/final markings are kept, so long runs do not
        accumulate memory; ``len(trace.markings)`` is then at most 2.
    """

    def __init__(
        self,
        net: NetLike,
        marking: Optional[Marking] = None,
        policy: ChoicePolicy = policy_first_enabled,
        record_markings: bool = True,
    ) -> None:
        self.compiled = compile_net(net)
        self._marking: MarkingTuple = (
            self.compiled.marking_to_tuple(marking)
            if marking is not None
            else self.compiled.initial
        )
        self.policy = policy
        self.record_markings = record_markings
        self.trace = SimulationTrace(
            markings=[self.compiled.marking_from_tuple(self._marking)]
        )

    @property
    def marking(self) -> Marking:
        """The current marking, decompiled to a named :class:`Marking`."""
        return self.compiled.marking_from_tuple(self._marking)

    def enabled(self) -> List[str]:
        """Names of the transitions enabled in the current marking."""
        names = self.compiled.transitions
        return [
            names[t] for t in self.compiled.enabled_transitions(self._marking)
        ]

    def step(self) -> Optional[str]:
        """Fire one transition chosen by the policy.

        Returns the fired transition name, or ``None`` if the net is
        deadlocked (no transition enabled).
        """
        compiled = self.compiled
        enabled_ids = compiled.enabled_transitions(self._marking)
        if not enabled_ids:
            self.trace.deadlocked = True
            return None
        names = compiled.transitions
        enabled = [names[t] for t in enabled_ids]
        transition = self.policy(compiled, self._marking, enabled)
        self._marking = compiled.fire_unchecked(
            enabled_ids[enabled.index(transition)], self._marking
        )
        self.trace.fired.append(transition)
        if self.record_markings:
            self.trace.markings.append(compiled.marking_from_tuple(self._marking))
        return transition

    def run(self, max_steps: int) -> SimulationTrace:
        """Fire up to ``max_steps`` transitions (stopping early on deadlock).

        With ``record_markings=False`` the trace's ``markings`` hold just
        the initial and the final marking after the run.
        """
        for _ in range(max_steps):
            if self.step() is None:
                break
        if not self.record_markings:
            final = self.compiled.marking_from_tuple(self._marking)
            if len(self.trace.markings) > 1:
                self.trace.markings[-1] = final
            else:
                self.trace.markings.append(final)
        return self.trace
