"""Unit tests for code generation, C emission and IR interpretation."""

from __future__ import annotations

import pytest

from repro.codegen import (
    CodegenError,
    EmitOptions,
    ExecutionError,
    ProgramExecutor,
    TaskExecutor,
    emit_c,
    generate_program,
    synthesize,
)
from repro.codegen.ir import ChoiceIf, FireTransition, Guarded
from repro.gallery import figure3a_schedulable, figure4_weighted, figure5_two_inputs
from repro.petrinet import NetBuilder
from repro.qss import compute_valid_schedule, partition_tasks
from repro.runtime import CostModel


@pytest.fixture
def fig4_program(fig4):
    return synthesize(compute_valid_schedule(fig4))


@pytest.fixture
def fig5_program(fig5):
    return synthesize(compute_valid_schedule(fig5))


class TestGeneration:
    def test_one_task_per_source(self, fig4_program, fig5_program):
        assert fig4_program.task_count == 1
        assert fig5_program.task_count == 2

    def test_choice_becomes_if(self, fig4_program):
        task = fig4_program.tasks[0]
        body = task.fragments["t1"].body
        choice_statements = [s for s in body if isinstance(s, ChoiceIf)]
        assert len(choice_statements) == 1
        branches = dict(choice_statements[0].branches)
        assert set(branches) == {"t2", "t3"}

    def test_multirate_counters_created(self, fig4_program):
        task = fig4_program.tasks[0]
        assert set(task.counters) == {"p2", "p3"}
        assert all(value == 0 for value in task.counters.values())

    def test_guard_kinds_follow_rate_relation(self, fig4_program):
        """consumer slower -> if test; producer faster -> while loop, as in
        the paper's Task routine."""
        task = fig4_program.tasks[0]

        def find_guard(fragment):
            for statement in task.fragments[fragment].body:
                if isinstance(statement, Guarded):
                    return statement
            return None

        assert find_guard("t2").kind == "if"
        assert find_guard("t3").kind == "while"

    def test_statement_count_positive(self, fig5_program):
        assert fig5_program.statement_count() > 10

    def test_shared_fragment_called_from_both_tasks(self, fig5_program):
        for task in fig5_program.tasks:
            assert "t6" in task.fragments

    def test_entry_fragments_are_sources(self, fig5_program):
        for task in fig5_program.tasks:
            assert set(task.entry_fragments) == set(task.source_transitions)

    def test_weighted_choice_rejected(self):
        net = (
            NetBuilder("weighted_choice")
            .source("t_in")
            .arc("t_in", "p_c")
            .arc("p_c", "t_a", weight=2)
            .arc("p_c", "t_b")
            .arc("t_a", "p_a")
            .arc("p_a", "t_a2")
            .arc("t_b", "p_b")
            .arc("p_b", "t_b2")
            .build()
        )
        # the net is free-choice in the graph sense used by the builder,
        # but the structured generator refuses the weighted choice arc
        from repro.qss import analyse

        report = analyse(net)
        if report.schedulable:
            with pytest.raises(CodegenError):
                synthesize(report.schedule)

    def test_program_task_lookup(self, fig5_program):
        assert fig5_program.task("task_t1").source_transitions == ("t1",)
        with pytest.raises(KeyError):
            fig5_program.task("nope")


class TestCEmission:
    def test_paper_listing_shape(self, fig4_program):
        """The Figure 4 code must have the structure of the Section 4 listing:
        while(1), if/else on p1, counter if==2 pattern, counter while>=1."""
        source = emit_c(fig4_program, EmitOptions(standalone_loop=True)).source
        assert "while (1) {" in source
        assert "choice_p1()" in source
        assert "count_p2++;" in source
        assert "if (count_p2 >= 2) {" in source
        assert "count_p3 += 2;" in source
        assert "while (count_p3 >= 1) {" in source
        assert "t4();" in source and "t5();" in source

    def test_externs_declared(self, fig4_program):
        source = emit_c(fig4_program).source
        for transition in ("t1", "t2", "t3", "t4", "t5"):
            assert f"extern void {transition}(void);" in source
        assert "extern int choice_p1(void);" in source

    def test_counters_declared_static(self, fig4_program):
        source = emit_c(fig4_program).source
        assert "static int count_p2 = 0;" in source

    def test_source_is_balanced_c(self, fig5_program):
        source = emit_c(fig5_program).source
        assert source.count("{") == source.count("}")

    def test_shared_fragments_become_one_helper_each(self, atm_report):
        """A fragment referenced from more than one site is emitted once,
        as a ``static void`` helper; singly referenced ones are inlined."""
        program = synthesize(atm_report.schedule)
        source = emit_c(program).source
        shared = 0
        for task in program.tasks:
            for name, fragment in task.fragments.items():
                signature = f"static void {task.name}_{name}(void)"
                if fragment.call_count > 1:
                    shared += 1
                    # one forward declaration plus one definition
                    assert source.count(signature + ";") == 1
                    assert source.count(signature + "\n") == 1
                    assert source.count(f"    {task.name}_{name}();") >= 2
                else:
                    assert signature not in source
        assert shared == source.count("static void") // 2 > 0


class TestInterpreter:
    def test_figure4_execution_matches_semantics(self, fig4_program):
        executor = ProgramExecutor(fig4_program)
        r1 = executor.activate_source("t1", {"p1": "t2"})
        assert r1.fired == ["t1", "t2"]
        r2 = executor.activate_source("t1", {"p1": "t2"})
        assert r2.fired == ["t1", "t2", "t4"]
        r3 = executor.activate_source("t1", {"p1": "t3"})
        assert r3.fired == ["t1", "t3", "t5", "t5"]

    def test_counters_persist_across_activations(self, fig4_program):
        """The paper's Figure 4 discussion: one token may remain in p2 and is
        consumed two activations later."""
        executor = ProgramExecutor(fig4_program)
        executor.activate_source("t1", {"p1": "t2"})
        task = executor.tasks["task_t1"]
        assert task.counters["p2"] == 1
        executor.activate_source("t1", {"p1": "t3"})
        assert task.counters["p2"] == 1
        result = executor.activate_source("t1", {"p1": "t2"})
        assert "t4" in result.fired
        assert task.counters["p2"] == 0

    def test_cycles_respect_cost_model(self, fig4_program):
        cheap = ProgramExecutor(fig4_program, CostModel(transition_cycles=1))
        costly = ProgramExecutor(fig4_program, CostModel(transition_cycles=100))
        choices = {"p1": "t2"}
        assert (
            costly.activate_source("t1", choices).cycles
            > cheap.activate_source("t1", choices).cycles
        )

    def test_choices_taken_recorded(self, fig4_program):
        executor = ProgramExecutor(fig4_program)
        result = executor.activate_source("t1", {"p1": "t3"})
        assert result.choices_taken == {"p1": "t3"}

    def test_missing_resolution_raises(self, fig4_program):
        executor = ProgramExecutor(fig4_program)
        with pytest.raises(KeyError, match="choice place 'p1'"):
            executor.activate_source("t1", {})

    def test_unknown_source_raises(self, fig4_program):
        executor = ProgramExecutor(fig4_program)
        with pytest.raises(KeyError):
            executor.activate_source("t99", {})

    def test_reset_restores_counters(self, fig4_program):
        executor = ProgramExecutor(fig4_program)
        executor.activate_source("t1", {"p1": "t2"})
        executor.reset()
        assert executor.tasks["task_t1"].counters["p2"] == 0

    def test_two_task_execution_shared_code(self, fig5_program):
        executor = ProgramExecutor(fig5_program)
        tick = executor.activate_source("t8", {})
        assert tick.fired == ["t8", "t9", "t6"]
        cell = executor.activate_source("t1", {"p1": "t3"})
        assert cell.fired == ["t1", "t3", "t5", "t7", "t7"]

    def test_interpreter_agrees_with_valid_schedule(self, fig5):
        """Driving every choice resolution through the generated code fires
        exactly the transitions of the corresponding finite complete cycle
        (up to interleaving of the two tasks)."""
        schedule = compute_valid_schedule(fig5)
        program = synthesize(schedule)
        for cycle in schedule.cycles:
            executor = ProgramExecutor(program)
            resolution = dict(cycle.allocation.choices)
            fired = []
            for source in fig5.source_transitions():
                result = executor.activate_source(source, resolution)
                fired.extend(result.fired)
            counts = {t: fired.count(t) for t in set(fired)}
            assert counts == cycle.counts
