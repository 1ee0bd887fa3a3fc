"""Additional coverage: analysis helpers and C-emitter details."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ComparisonTable,
    ImplementationMetrics,
    qss_metrics,
    total_buffer_tokens,
)
from repro.baselines import TASK_BOILERPLATE_LINES
from repro.codegen import EmitOptions, emit_c, synthesize
from repro.codegen.ir import Block, DecCount, FireTransition, Program, TaskProgram, Fragment
from repro.codegen.emit_c import _TaskEmitter
from repro.gallery import figure4_weighted, figure5_two_inputs
from repro.qss import compute_valid_schedule
from repro.runtime import CostModel, Event


class TestComparisonTable:
    def test_render_and_rows(self):
        table = ComparisonTable(title="demo")
        table.rows.append(ImplementationMetrics("A", tasks=2, lines_of_code=100, clock_cycles=1000))
        table.rows.append(ImplementationMetrics("B", tasks=5, lines_of_code=150, clock_cycles=1500))
        text = table.render()
        assert "demo" in text and "A" in text and "B" in text
        assert table.ratio("clock_cycles", "A", "B") == 1.5
        assert table.row("A") == ImplementationMetrics(
            "A", tasks=2, lines_of_code=100, clock_cycles=1000
        )

    def test_zero_division_guard(self):
        table = ComparisonTable(title="demo")
        table.rows.append(ImplementationMetrics("A", tasks=0, lines_of_code=0, clock_cycles=0))
        table.rows.append(ImplementationMetrics("B", tasks=1, lines_of_code=1, clock_cycles=1))
        with pytest.raises(ZeroDivisionError):
            table.ratio("clock_cycles", "A", "B")


class TestScheduleBufferMetrics:
    def test_bounds_and_total(self, fig4):
        schedule = compute_valid_schedule(fig4)
        bounds = schedule.max_buffer_bounds()
        assert bounds["p2"] == 2
        assert total_buffer_tokens(schedule) == sum(bounds.values())

    def test_qss_metrics_on_figure5(self, fig5):
        events = [
            Event(time=0.0, source="t1", choices={"p1": "t2"}),
            Event(time=1.0, source="t8", choices={}),
        ]
        metrics, program = qss_metrics(fig5, events, CostModel(), name="fig5")
        assert metrics.name == "fig5"
        assert metrics.tasks == 2
        assert metrics.clock_cycles > 0
        assert metrics.activations == 2

    def test_qss_metrics_counts_task_boilerplate(self, fig5):
        metrics, program = qss_metrics(fig5, [], CostModel())
        emitted = emit_c(program).lines_of_code
        assert program.task_count == 2
        assert metrics.lines_of_code == emitted + TASK_BOILERPLATE_LINES * 2


class TestEmitterDetails:
    def test_dec_by_one_uses_decrement_operator(self):
        task = TaskProgram(
            name="demo",
            source_transitions=("t",),
            counters={"p": 0},
            fragments={
                "t": Fragment(
                    name="t",
                    transition="t",
                    body=Block([FireTransition("t"), DecCount("p", 1)]),
                )
            },
            entry_fragments=("t",),
        )
        program = Program(name="demo", tasks=[task])
        source = emit_c(program).source
        assert "count_p--;" in source

    def test_unknown_statement_rejected(self):
        emitter = _TaskEmitter(
            TaskProgram(name="x", source_transitions=(), fragments={}, entry_fragments=()),
            EmitOptions(),
        )
        with pytest.raises(TypeError):
            emitter._emit_statement(object(), 0)

    def test_choice_macros_defined_once(self, fig4):
        program = synthesize(compute_valid_schedule(fig4))
        source = emit_c(program).source
        assert source.count("#define CHOICE_T2 ") == 1
