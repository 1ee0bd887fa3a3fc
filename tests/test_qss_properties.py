"""Property-based tests for the QSS pipeline on generated net families.

These cross-check the QSS implementation against independent oracles:

* Theorem 3.1 direction: whenever the analysis declares a net schedulable,
  every cycle it produced really is a finite complete cycle containing
  every source transition (checked by re-execution);
* schedulability implies that following the schedule keeps token counts
  bounded by the schedule's own buffer bounds;
* the end-to-end synthesized code, when driven with the resolution of a
  cycle's allocation, fires exactly the multiset of transitions of that
  cycle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import ProgramExecutor, synthesize
from repro.petrinet import is_finite_complete_cycle
from repro.petrinet.generators import (
    choice_fan_net,
    independent_choices_net,
    multirate_choice_net,
    random_free_choice_net,
)
from repro.qss import analyse, partition_tasks

seeds = st.integers(min_value=0, max_value=5_000)


@st.composite
def schedulable_nets(draw):
    kind = draw(st.sampled_from(["random", "fan", "independent", "multirate"]))
    if kind == "random":
        return random_free_choice_net(
            draw(seeds), n_choices=draw(st.integers(1, 3)), max_branch_length=2
        )
    if kind == "fan":
        return choice_fan_net(draw(st.integers(2, 4)))
    if kind == "independent":
        return independent_choices_net(draw(st.integers(1, 3)))
    return multirate_choice_net(draw(st.integers(1, 4)), draw(st.integers(1, 4)))


@settings(max_examples=25, deadline=None)
@given(schedulable_nets())
def test_declared_cycles_really_are_complete_cycles(net):
    report = analyse(net)
    assert report.schedulable
    sources = set(net.source_transitions())
    for cycle in report.schedule.cycles:
        assert is_finite_complete_cycle(net, cycle.sequence)
        assert sources <= set(cycle.counts)


@settings(max_examples=25, deadline=None)
@given(schedulable_nets())
def test_schedule_buffer_bounds_are_finite_and_respected(net):
    report = analyse(net)
    bounds = report.schedule.max_buffer_bounds()
    marking = net.initial_marking
    for cycle in report.schedule.cycles:
        current = marking
        for transition in cycle.sequence:
            current = net.fire(transition, current)
            for place, count in current.tokens.items():
                assert count <= bounds[place]


@settings(max_examples=20, deadline=None)
@given(schedulable_nets())
def test_reduction_count_never_exceeds_allocation_count(net):
    report = analyse(net)
    assert 1 <= report.reduction_count <= report.allocation_count


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=3), seeds)
def test_synthesized_code_replays_each_cycle(n_choices, seed):
    """Driving the generated code with a cycle's choice resolution fires the
    cycle's exact firing-count vector (summed over the program's tasks)."""
    net = random_free_choice_net(seed, n_choices=n_choices, max_branch_length=2)
    report = analyse(net)
    program = synthesize(report.schedule)
    for cycle in report.schedule.cycles:
        executor = ProgramExecutor(program)
        resolution = dict(cycle.allocation.choices)
        fired = []
        for source in net.source_transitions():
            result = executor.activate_source(source, resolution)
            fired.extend(result.fired)
        counts = {t: fired.count(t) for t in set(fired)}
        assert counts == cycle.counts


@settings(max_examples=15, deadline=None)
@given(schedulable_nets())
def test_task_partition_covers_every_scheduled_transition(net):
    report = analyse(net)
    partition = partition_tasks(report.schedule)
    assert partition.task_count == len(net.source_transitions())
    covered = set()
    for task in partition.tasks:
        covered |= set(task.transitions)
    assert covered == {t for cycle in report.schedule.cycles for t in cycle.counts}
