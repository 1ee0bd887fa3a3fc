"""Tests for the ATM server model, workload, analysis and the Table I experiment.

These are the integration tests asserting the facts the paper reports in
Section 5: model size (49 transitions, 41 places, 11 choices), 120
finite complete cycles, two tasks, and the direction of the Table I
comparison (QSS smaller and faster than functional task partitioning).
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    build_comparison,
    functional_metrics,
    overhead_sensitivity,
    qss_metrics,
    total_buffer_tokens,
)
from repro.apps.atm import (
    ATM_CHOICE_PLACES,
    CELL_CHOICES,
    CELL_SOURCE,
    MODULE_PARTITION,
    TICK_CHOICES,
    TICK_SOURCE,
    AtmWorkload,
    build_atm_server_net,
    default_choice_probabilities,
    make_testbench,
)
from repro.baselines import build_functional_implementation
from repro.codegen import emit_c, synthesize
from repro.petrinet import is_free_choice
from repro.qss import partition_tasks
from repro.runtime import CostModel


class TestAtmModel:
    def test_size_matches_paper(self, atm_net):
        assert len(atm_net.transition_names) == 49
        assert len(atm_net.place_names) == 41
        assert len(atm_net.choice_places()) == 11

    def test_model_is_free_choice(self, atm_net):
        assert is_free_choice(atm_net)

    def test_two_independent_inputs(self, atm_net):
        assert set(atm_net.source_transitions()) == {CELL_SOURCE, TICK_SOURCE}

    def test_choice_places_listed(self, atm_net):
        assert set(ATM_CHOICE_PLACES) == set(atm_net.choice_places())
        assert len(CELL_CHOICES) + len(TICK_CHOICES) == 11

    def test_module_partition_covers_all_transitions(self, atm_net):
        assigned = [t for ts in MODULE_PARTITION.values() for t in ts]
        assert sorted(assigned) == sorted(atm_net.transition_names)
        assert len(MODULE_PARTITION) == 5  # the five modules of Figure 8

    def test_schedulable_with_120_cycles(self, atm_report):
        assert atm_report.schedulable
        assert atm_report.allocation_count == 2 ** 11
        assert atm_report.reduction_count == 120
        assert atm_report.schedule is not None
        assert atm_report.schedule.cycle_count == 120

    def test_every_cycle_contains_both_inputs(self, atm_report):
        for cycle in atm_report.schedule.cycles:
            assert cycle.contains(CELL_SOURCE)
            assert cycle.contains(TICK_SOURCE)

    def test_schedule_verifies(self, atm_report):
        assert atm_report.schedule.verify()

    def test_two_tasks_with_shared_wfq(self, atm_report):
        partition = partition_tasks(atm_report.schedule)
        assert partition.task_count == 2
        cell_task = partition.task_for_source(CELL_SOURCE)
        tick_task = partition.task_for_source(TICK_SOURCE)
        for shared in ("t_wfq_start", "t_compute_finish", "t_update_schedule"):
            assert shared in cell_task.transitions
            assert shared in tick_task.transitions
            assert shared in cell_task.shared_transitions

    def test_buffer_bounds_are_small(self, atm_report):
        bounds = atm_report.schedule.max_buffer_bounds()
        assert max(bounds.values()) <= 2
        assert total_buffer_tokens(atm_report.schedule) <= len(bounds) * 2


class TestAtmWorkload:
    def test_testbench_has_requested_cells(self):
        events = make_testbench(cells=15, seed=3)
        assert sum(1 for e in events if e.source == CELL_SOURCE) == 15
        assert any(e.source == TICK_SOURCE for e in events)
        assert [e.time for e in events] == sorted(e.time for e in events)

    def test_testbench_reproducible(self):
        a = make_testbench(cells=10, seed=1)
        b = make_testbench(cells=10, seed=1)
        assert [(e.time, e.source, dict(e.choices)) for e in a] == [
            (e.time, e.source, dict(e.choices)) for e in b
        ]

    def test_events_carry_only_their_choices(self):
        for event in make_testbench(cells=5, seed=2):
            if event.source == CELL_SOURCE:
                assert set(event.choices) == set(CELL_CHOICES)
            else:
                assert set(event.choices) == set(TICK_CHOICES)

    def test_probabilities_cover_all_choices(self, atm_net):
        probabilities = default_choice_probabilities()
        assert set(probabilities) == set(atm_net.choice_places())
        for place, branches in probabilities.items():
            assert set(branches) == set(atm_net.postset_names(place))

    def test_workload_summary(self):
        summary = AtmWorkload(cells=5, seed=1).summary()
        assert summary["cells"] == 5
        assert summary["events"] == summary["cells"] + summary["ticks"]


class TestTableOne:
    def test_table1_shape(self, atm_net, atm_events_small):
        """The headline result: QSS has fewer tasks, less code and fewer
        cycles than functional task partitioning."""
        table = build_comparison(atm_net, MODULE_PARTITION, atm_events_small)
        qss = table.row("QSS")
        functional = table.row("Functional task partitioning")
        assert qss.tasks == 2
        assert functional.tasks == 5
        assert qss.lines_of_code < functional.lines_of_code
        assert qss.clock_cycles < functional.clock_cycles
        # the improvements are significant but not extreme (paper: ~25-30%)
        assert 1.05 < table.ratio("clock_cycles", "QSS", "Functional task partitioning") < 1.8
        assert 1.05 < table.ratio("lines_of_code", "QSS", "Functional task partitioning") < 1.8
        rendered = table.render()
        assert "Number of tasks" in rendered
        assert "Clock cycles" in rendered

    def test_qss_metrics_returns_program(self, atm_net, atm_events_small):
        metrics, program = qss_metrics(atm_net, atm_events_small)
        assert metrics.tasks == program.task_count == 2
        assert metrics.clock_cycles > 0
        source = emit_c(program).source
        assert "void task_t_cell(void)" in source
        assert "void task_t_tick(void)" in source

    def test_functional_metrics(self, atm_net, atm_events_small):
        metrics = functional_metrics(atm_net, MODULE_PARTITION, atm_events_small)
        assert metrics.tasks == 5
        assert metrics.queue_cycles > 0

    def test_ratio_helpers(self, atm_net, atm_events_small):
        table = build_comparison(atm_net, MODULE_PARTITION, atm_events_small)
        with pytest.raises(KeyError):
            table.row("nope")
        assert table.ratio("tasks", "QSS", "Functional task partitioning") == 2.5


class TestTradeoffs:
    def test_overhead_sensitivity_ratio_grows(self, atm_net, atm_events_small):
        functional = build_functional_implementation(atm_net, MODULE_PARTITION)
        records = overhead_sensitivity(
            atm_net,
            atm_events_small,
            activation_cycles=[0, 400],
            run_baseline=functional.run,
        )
        assert len(records) == 2
        assert records[1]["ratio"] > records[0]["ratio"]
