"""Unit tests for the runtime substrate: cost model, events, RTOS, reactive."""

from __future__ import annotations

import pytest

from repro.codegen import synthesize
from repro.gallery import figure3a_schedulable, figure5_two_inputs
from repro.qss import compute_valid_schedule
from repro.runtime import (
    ChoiceSampler,
    CostModel,
    Event,
    ModuleAssignment,
    ReactiveNetSimulator,
    RTOS,
)
from repro.runtime.events import StreamCollector, arrival_times, periodic_times


class TestCostModel:
    def test_defaults_are_positive(self):
        model = CostModel()
        assert model.transition_cycles > 0
        assert model.activation_cycles > model.test_cycles

    def test_with_activation(self):
        model = CostModel()
        assert model.with_activation(999).activation_cycles == 999
        # original is unchanged (frozen dataclass semantics)
        assert model.activation_cycles != 999


class TestEvents:
    def test_periodic_times(self):
        assert periodic_times(period=2.0, count=3) == [0.0, 2.0, 4.0]

    def test_periodic_validation(self):
        with pytest.raises(ValueError):
            periodic_times(period=0, count=1)

    def test_exponential_times_reproducible_and_sorted(self):
        a = arrival_times("exponential", mean_interval=1.0, count=10, seed=5)
        b = arrival_times("exponential", mean_interval=1.0, count=10, seed=5)
        assert a == b
        assert a == sorted(a)

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            arrival_times("exponential", mean_interval=0, count=1)

    def test_collector_merges_parts_in_time_order(self):
        collector = StreamCollector()
        collector.add(
            (("a", periodic_times(3.0, 3)), ("b", periodic_times(2.0, 3))),
            ChoiceSampler({}),
        )
        merged = collector.finish()[0]
        assert [e.time for e in merged] == sorted(e.time for e in merged)
        assert len(merged) == 6
        # a tie goes to the earlier part
        assert [e.source for e in merged][:2] == ["a", "b"]

    def test_choice_sampler_respects_per_source(self):
        sampler = ChoiceSampler(
            {"p1": {"x": 1.0}, "p2": {"y": 1.0}},
            per_source={"s1": ["p1"], "s2": ["p2"]},
        )
        assert sampler.sample("s1") == {"p1": "x"}
        assert sampler.sample("s2") == {"p2": "y"}

    def test_choice_sampler_distribution_roughly_matches(self):
        sampler = ChoiceSampler({"p": {"a": 0.8, "b": 0.2}}, seed=1)
        draws = [sampler.sample()["p"] for _ in range(500)]
        share_a = draws.count("a") / len(draws)
        assert 0.7 < share_a < 0.9

    def test_collector_attaches_resolutions(self):
        collector = StreamCollector()
        collector.add((("s", periodic_times(1.0, 2)),), ChoiceSampler({"p1": {"x": 1.0}}))
        events = collector.finish()[0]
        assert len(events) == 2
        assert all(e.choices == {"p1": "x"} for e in events)


class TestRTOS:
    def test_rtos_charges_activation_per_event(self, fig3a):
        program = synthesize(compute_valid_schedule(fig3a))
        model = CostModel(activation_cycles=500)
        rtos = RTOS(program, model)
        events = [
            Event(time=0.0, source="t1", choices={"p1": "t2"}),
            Event(time=1.0, source="t1", choices={"p1": "t3"}),
        ]
        stats = rtos.run(events)
        assert stats.events_processed == 2
        assert stats.activation_cycles == 1000
        assert stats.total_cycles == stats.activation_cycles + stats.body_cycles
        assert stats.firings["t1"] == 2
        assert stats.firings["t4"] == 1
        assert stats.firings["t5"] == 1

    def test_rtos_orders_events_by_time(self, fig5):
        program = synthesize(compute_valid_schedule(fig5))
        rtos = RTOS(program)
        events = [
            Event(time=5.0, source="t1", choices={"p1": "t2"}),
            Event(time=1.0, source="t8"),
        ]
        stats = rtos.run(events)
        assert stats.activations["task_t8"] == 1
        assert stats.activations["task_t1"] == 1

    def test_stats_describe(self, fig3a):
        program = synthesize(compute_valid_schedule(fig3a))
        stats = RTOS(program).run([Event(time=0, source="t1", choices={"p1": "t2"})])
        text = stats.describe()
        assert "total cycles" in text
        assert "task_t1" in text

    def test_rtos_reset(self, fig3a):
        program = synthesize(compute_valid_schedule(fig3a))
        rtos = RTOS(program)
        rtos.run([Event(time=0, source="t1", choices={"p1": "t2"})])
        rtos.reset()  # should not raise and counters go back to zero
        assert all(
            executor.counters == executor.task.counters
            for executor in rtos.executor.tasks.values()
        )


class TestReactiveSimulator:
    def test_single_task_has_no_queue_traffic(self, fig3a):
        assignment = ModuleAssignment.single_task(fig3a)
        simulator = ReactiveNetSimulator(fig3a, assignment)
        stats = simulator.run([Event(time=0, source="t1", choices={"p1": "t2"})])
        assert stats.queue_cycles == 0
        assert stats.total_activations == 1
        assert stats.firings == {"t1": 1, "t2": 1, "t4": 1}

    def test_split_tasks_pay_queue_and_activation(self, fig3a):
        assignment = ModuleAssignment.from_groups(
            {"front": ["t1", "t2", "t3"], "back": ["t4", "t5"]}
        )
        simulator = ReactiveNetSimulator(fig3a, assignment)
        stats = simulator.run([Event(time=0, source="t1", choices={"p1": "t2"})])
        assert stats.queue_cycles > 0
        assert stats.total_activations == 2

    def test_one_task_per_transition_is_most_expensive(self, fig3a):
        event = [Event(time=0, source="t1", choices={"p1": "t2"})]
        single = ReactiveNetSimulator(
            fig3a, ModuleAssignment.single_task(fig3a)
        ).run(event)
        dynamic = ReactiveNetSimulator(
            fig3a, ModuleAssignment.one_task_per_transition(fig3a)
        ).run(event)
        assert dynamic.total_cycles > single.total_cycles

    def test_choice_resolution_respected(self, fig3a):
        assignment = ModuleAssignment.single_task(fig3a)
        simulator = ReactiveNetSimulator(fig3a, assignment)
        stats = simulator.run([Event(time=0, source="t1", choices={"p1": "t3"})])
        assert "t5" in stats.firings
        assert "t2" not in stats.firings

    def test_marking_persists_between_events(self, fig5):
        assignment = ModuleAssignment.single_task(fig5)
        simulator = ReactiveNetSimulator(fig5, assignment)
        simulator.run([Event(time=0, source="t1", choices={"p1": "t2"})])
        # one firing of t2 leaves two tokens in p2; t4 fired twice? p2 gets 2
        # tokens, t4 consumes 1 each, so the marking is back to empty except
        # for p4 which t6 drains; just check no negative tokens and reset works
        assert all(v >= 0 for v in simulator.marking.tokens.values())
        simulator.reset()
        assert simulator.marking == fig5.initial_marking

    def test_module_assignment_module_names(self, fig3a):
        assignment = ModuleAssignment.from_groups(
            {"a": ["t1"], "b": ["t2", "t3", "t4", "t5"]}
        )
        assert assignment.module_names == ["a", "b"]
        assert assignment.module_of("t3") == "b"
