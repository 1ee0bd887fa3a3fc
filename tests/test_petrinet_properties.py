"""Property-based tests (hypothesis) for the Petri net substrate.

These check the algebraic invariants that the rest of the system relies
on: firing respects the state equation, T-invariants really are
stationary, serialization is lossless, and coverability agrees with
simulation on the net families used throughout the benchmarks.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.petrinet import (
    Marking,
    PetriNet,
    fire_sequence,
    incidence_matrices,
    is_finite_complete_cycle,
    net_from_dict,
    net_to_dict,
    t_invariants,
)
from repro.petrinet.generators import (
    independent_choices_net,
    pipeline_net,
    random_free_choice_net,
    random_marked_graph,
)
from repro.petrinet.simulation import Simulator, make_random_policy
from repro.qss import enumerate_reductions, is_schedulable


# ----------------------------------------------------------------------
# State-equation oracles
# ----------------------------------------------------------------------
def firing_vector(matrices, counts):
    """A ``{transition: count}`` mapping as a row vector over the
    matrices' transitions."""
    vector = np.zeros(len(matrices.transitions), dtype=np.int64)
    index = matrices.transition_index
    for transition, count in counts.items():
        vector[index[transition]] = count
    return vector


def marking_vector(matrices, marking):
    """A marking as a column vector aligned with the matrices' places."""
    return np.array([marking[p] for p in matrices.places], dtype=np.int64)


def marking_from_vector(matrices, vector):
    """A place-aligned vector back as a :class:`Marking`."""
    return Marking({p: int(vector[i]) for i, p in enumerate(matrices.places)})


def apply_state_equation(
    net: PetriNet, marking: Marking, firing_counts: Mapping[str, int]
) -> Marking:
    """``marking + f^T . D`` as a marking (negative entries raise)."""
    matrices = incidence_matrices(net)
    m0 = marking_vector(matrices, marking)
    f = firing_vector(matrices, firing_counts)
    return marking_from_vector(matrices, m0 + f @ matrices.incidence)


def is_firing_count_stationary(
    net: PetriNet, firing_counts: Mapping[str, int]
) -> bool:
    """True if the firing-count vector satisfies ``f^T . D = 0``."""
    matrices = incidence_matrices(net)
    f = firing_vector(matrices, firing_counts)
    return bool(np.all(f @ matrices.incidence == 0))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
rates = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5)
seeds = st.integers(min_value=0, max_value=10_000)


@st.composite
def pipelines(draw):
    stage_rates = draw(rates)
    return pipeline_net(len(stage_rates), rates=stage_rates)


@st.composite
def marked_graphs(draw):
    seed = draw(seeds)
    n = draw(st.integers(min_value=3, max_value=7))
    extra = draw(st.integers(min_value=0, max_value=4))
    return random_marked_graph(seed, n_transitions=n, extra_places=extra)


@st.composite
def free_choice_nets(draw):
    seed = draw(seeds)
    n_choices = draw(st.integers(min_value=1, max_value=3))
    return random_free_choice_net(seed, n_choices=n_choices, max_branch_length=2)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(pipelines())
def test_t_invariants_are_stationary(net):
    for invariant in t_invariants(net):
        assert is_firing_count_stationary(net, invariant)


@settings(max_examples=25, deadline=None)
@given(marked_graphs())
def test_marked_graph_invariant_yields_complete_cycle(net):
    """On a live marked graph the all-ones invariant can always be ordered
    into a finite complete cycle (the SDF scheduling result)."""
    invariants = t_invariants(net)
    assert invariants
    from repro.petrinet import find_finite_complete_cycle

    cycle = find_finite_complete_cycle(net, invariants[0])
    assert cycle is not None
    assert is_finite_complete_cycle(net, cycle)


@settings(max_examples=25, deadline=None)
@given(marked_graphs(), st.integers(min_value=1, max_value=30))
def test_simulation_matches_state_equation(net, steps):
    """The marking after any fired sequence equals initial + f^T . D."""
    simulator = Simulator(net, policy=make_random_policy(steps))
    trace = simulator.run(steps)
    predicted = apply_state_equation(
        net, net.initial_marking, trace.firing_counts()
    )
    assert predicted == trace.final_marking


@settings(max_examples=25, deadline=None)
@given(marked_graphs())
def test_serialization_round_trip_preserves_behaviour(net):
    restored = net_from_dict(net_to_dict(net))
    assert restored.initial_marking == net.initial_marking
    assert t_invariants(restored) == t_invariants(net)
    matrices_a = incidence_matrices(net)
    matrices_b = incidence_matrices(restored)
    assert (matrices_a.incidence == matrices_b.incidence).all()


@settings(max_examples=20, deadline=None)
@given(free_choice_nets())
def test_generated_free_choice_nets_are_schedulable(net):
    """The random free-choice family is schedulable by construction, and
    every T-reduction it produces is conflict-free."""
    assert is_schedulable(net)
    for reduction in enumerate_reductions(net):
        assert all(
            len(reduction.net.postset(p)) <= 1 for p in reduction.net.place_names
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=3))
def test_reduction_count_is_product_of_branches(choices, branches):
    """Independent choices multiply: the number of distinct T-reductions of
    the independent-choices family is branches ** choices."""
    net = independent_choices_net(choices, branches=branches)
    assert len(enumerate_reductions(net)) == branches**choices


@settings(max_examples=30, deadline=None)
@given(marked_graphs(), st.integers(min_value=0, max_value=40))
def test_markings_never_negative(net, steps):
    simulator = Simulator(net, policy=make_random_policy(steps + 1))
    trace = simulator.run(steps)
    for marking in trace.markings:
        assert all(count >= 0 for count in marking.tokens.values())
