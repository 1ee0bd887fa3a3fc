"""Pins for the router and heating application case studies.

Both new app models must satisfy the same contract the ATM server does:
the net is free choice (so the whole QSS pipeline applies), every
environment event quiesces (the marking returns to the initial marking
after each event, which is what makes the fleet runtime total), the
functional-module partition covers every transition exactly once, the
declared choice probabilities are exactly the net's choice places, and
the workload generators are deterministic in their seed.
"""

from __future__ import annotations

import pytest

from repro.apps import atm, heating, router
from repro.petrinet import CORPUS_FAMILIES, classify, is_free_choice
from repro.qss import analyse, is_schedulable
from repro.runtime import (
    ExecutionStats,
    FleetSimulator,
    ModuleAssignment,
    ReactiveNetSimulator,
)

APPS = {
    "router": (
        router.build_router_net,
        router.MODULE_PARTITION,
        router.default_choice_probabilities,
        router.ROUTER_CHOICE_PLACES,
        router.make_testbench,
        router.make_fleet_testbench,
    ),
    "heating": (
        heating.build_heating_net,
        heating.MODULE_PARTITION,
        heating.default_choice_probabilities,
        heating.HEATING_CHOICE_PLACES,
        heating.make_testbench,
        heating.make_fleet_testbench,
    ),
}


@pytest.fixture(params=sorted(APPS), name="app")
def _app(request):
    return (request.param,) + APPS[request.param]


class TestModelStructure:
    def test_free_choice(self, app):
        _, build, *_ = app
        net = build()
        assert is_free_choice(net)
        assert classify(net) == "free-choice"

    def test_schedulable(self, app):
        _, build, *_ = app
        assert is_schedulable(build())

    def test_allocation_and_reduction_counts(self):
        # pinned exactly so a topology change is a conscious decision:
        # router has six binary choices (2^6 allocations), heating one
        # ternary and three binary (3*2^3)
        report = analyse(router.build_router_net())
        assert (report.allocation_count, report.reduction_count) == (64, 24)
        report = analyse(heating.build_heating_net())
        assert (report.allocation_count, report.reduction_count) == (24, 12)

    def test_partition_covers_every_transition_exactly_once(self, app):
        _, build, partition, *_ = app
        net = build()
        assigned = [t for group in partition.values() for t in group]
        assert sorted(assigned) == sorted(net.transition_names)

    def test_choice_probabilities_match_choice_places(self, app):
        _, build, _, probabilities, choice_places, *_ = app
        net = build()
        probs = probabilities()
        assert sorted(probs) == sorted(net.choice_places())
        assert sorted(probs) == sorted(choice_places)
        for place, branches in probs.items():
            successors = {
                arc.target for arc in net.arcs if arc.source == place
            }
            assert set(branches) == successors
            assert sum(branches.values()) == pytest.approx(1.0)

    def test_registered_as_corpus_families(self):
        for name in ("router", "heating"):
            family = CORPUS_FAMILIES[name]
            spec = family.spec(0)
            assert spec.param_dict == {}
            net = family.build(0, {})
            assert is_free_choice(net)


class TestQuiescence:
    """Every environment event returns the marking to the initial one."""

    def test_each_event_quiesces(self, app):
        _, build, partition, _, _, make_testbench, _ = app
        net = build()
        simulator = ReactiveNetSimulator(
            net, ModuleAssignment.from_groups(partition)
        )
        initial = simulator.marking
        stats = ExecutionStats()
        for event in make_testbench(25, seed=9):
            simulator.process_event(event, stats)
            assert simulator.marking == initial
        assert stats.events_processed == len(make_testbench(25, seed=9))


class TestWorkloads:
    def test_streams_are_time_ordered_and_choice_resolved(self, app):
        _, build, _, probabilities, _, make_testbench, _ = app
        events = make_testbench(30, seed=4)
        times = [e.time for e in events]
        assert times == sorted(times)
        probs = probabilities()
        for event in events:
            for place, branch in event.choices.items():
                assert branch in probs[place]

    def test_same_seed_identical_different_seed_not(self, app):
        _, _, _, _, _, make_testbench, make_fleet = app
        assert repr(make_testbench(20, seed=3)) == repr(make_testbench(20, seed=3))
        assert repr(make_testbench(20, seed=3)) != repr(make_testbench(20, seed=4))
        assert repr(make_fleet(3, 10, seed=3)) == repr(make_fleet(3, 10, seed=3))

    def test_fleet_instances_get_distinct_streams(self, app):
        _, _, _, _, _, _, make_fleet = app
        streams = make_fleet(4, 10, seed=7)
        assert len(streams) == 4
        reprs = {repr(stream) for stream in streams}
        assert len(reprs) == 4

    @pytest.mark.parametrize("name", ["atm", "router", "heating"])
    def test_fleet_instance_is_testbench_at_derived_seed(self, name):
        # instance i of a fleet is the one-instance testbench drawn at
        # seed * 1_000_003 + i
        module = {"atm": atm, "router": router, "heating": heating}[name]
        streams = module.make_fleet_testbench(3, 10, seed=7)
        for i in range(3):
            assert streams[i] == module.make_testbench(10, seed=7 * 1_000_003 + i)

    def test_fleet_run_serves_every_event(self, app):
        _, build, partition, _, _, _, make_fleet = app
        net = build()
        streams = make_fleet(6, 8, seed=11)
        result = FleetSimulator(
            net, ModuleAssignment.from_groups(partition)
        ).run(streams)
        assert result.stats.events_processed == sum(len(s) for s in streams)
        assert result.stats.budget_stops == 0

    def test_atm_arrival_override_is_byte_compatible(self):
        # the new arrival parameter must not move the paper's default
        # testbench by a single byte
        default = atm.make_testbench(cells=20, seed=2026)
        explicit = atm.make_testbench(cells=20, seed=2026, arrival="exponential")
        assert repr(default) == repr(explicit)
        bursty = atm.make_testbench(cells=20, seed=2026, arrival="bursty")
        assert repr(default) != repr(bursty)
