"""Implementation metrics and the Table I comparison builder.

Table I of the paper compares two software implementations of the ATM
server — QSS and functional task partitioning — on three metrics:
number of tasks, lines of C code, and clock cycles over a testbench of
50 ATM cells.  This module computes the same three metrics for any
schedulable net, plus the static buffer size of a valid schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

from ..baselines.functional_partitioning import (
    TASK_BOILERPLATE_LINES,
    build_functional_implementation,
)
from ..codegen.emit_c import emit_c
from ..codegen.generator import synthesize
from ..codegen.ir import Program
from ..petrinet import ENGINE_COMPILED, ENGINE_NATIVE, PetriNet
from ..qss.scheduler import compute_valid_schedule
from ..qss.schedule import ValidSchedule
from ..runtime.cost import CostModel
from ..runtime.events import Event
from ..runtime.rtos import RTOS, ExecutionStats


@dataclass
class ImplementationMetrics:
    """The Table I row of one implementation."""

    name: str
    tasks: int
    lines_of_code: int
    clock_cycles: int
    activations: int = 0
    queue_cycles: int = 0


@dataclass
class ComparisonTable:
    """A Table-I style comparison between implementations."""

    title: str
    rows: List[ImplementationMetrics] = field(default_factory=list)

    def row(self, name: str) -> ImplementationMetrics:
        for entry in self.rows:
            if entry.name == name:
                return entry
        raise KeyError(f"no row named {name!r}")

    def ratio(self, metric: str, name_a: str, name_b: str) -> float:
        """``metric(name_b) / metric(name_a)`` — e.g. how much bigger the
        baseline is relative to QSS."""
        a = getattr(self.row(name_a), metric)
        b = getattr(self.row(name_b), metric)
        if a == 0:
            raise ZeroDivisionError(f"metric {metric!r} of {name_a!r} is zero")
        return b / a

    def render(self) -> str:
        """Render the table in the layout of the paper's Table I."""
        names = [row.name for row in self.rows]
        lines = [self.title]
        header = "Sw implementation".ljust(26) + "".join(n.ljust(30) for n in names)
        lines.append(header)
        lines.append(
            "Number of tasks".ljust(26)
            + "".join(str(row.tasks).ljust(30) for row in self.rows)
        )
        lines.append(
            "Lines of C code".ljust(26)
            + "".join(str(row.lines_of_code).ljust(30) for row in self.rows)
        )
        lines.append(
            "Clock cycles".ljust(26)
            + "".join(str(row.clock_cycles).ljust(30) for row in self.rows)
        )
        return "\n".join(lines)


def qss_metrics(
    net: PetriNet,
    events: Sequence[Event],
    cost_model: Optional[CostModel] = None,
    schedule: Optional[ValidSchedule] = None,
    rate_groups: Optional[Sequence[Sequence[str]]] = None,
    name: str = "QSS",
    engine: str = ENGINE_COMPILED,
) -> Tuple[ImplementationMetrics, Program]:
    """Synthesize the QSS implementation of ``net`` and measure it.

    Returns the metrics together with the generated program (so callers
    can also inspect or emit the C source).  ``engine`` selects the
    execution core for both the schedule synthesis and the RTOS/IR
    interpretation of the testbench.  ``"native"`` runs the testbench
    on the compiled shared library; the schedule synthesis (an analysis,
    not an execution) then uses the compiled engine.
    """
    if schedule is None:
        analysis_engine = ENGINE_COMPILED if engine == ENGINE_NATIVE else engine
        schedule = compute_valid_schedule(net, engine=analysis_engine)
    program = synthesize(schedule, rate_groups=rate_groups)
    rtos = RTOS(program, cost_model, engine=engine)
    stats = rtos.run(events)
    metrics = ImplementationMetrics(
        name=name,
        tasks=program.task_count,
        lines_of_code=emit_c(program).lines_of_code
        + TASK_BOILERPLATE_LINES * program.task_count,
        clock_cycles=stats.total_cycles,
        activations=stats.total_activations,
        queue_cycles=stats.queue_cycles,
    )
    return metrics, program


def functional_metrics(
    net: PetriNet,
    modules: Mapping[str, Sequence[str]],
    events: Sequence[Event],
    cost_model: Optional[CostModel] = None,
    name: str = "Functional task partitioning",
    engine: str = ENGINE_COMPILED,
) -> ImplementationMetrics:
    """Measure the one-task-per-module baseline implementation.

    ``engine`` selects the reactive simulator core executing the
    testbench (identical stats on either).  The baseline interprets the
    net directly — there is no synthesized C to compile — so
    ``"native"`` maps to the compiled simulator core.
    """
    implementation = build_functional_implementation(net, modules)
    simulator_engine = ENGINE_COMPILED if engine == ENGINE_NATIVE else engine
    stats = implementation.run(events, cost_model, engine=simulator_engine)
    return ImplementationMetrics(
        name=name,
        tasks=implementation.task_count,
        lines_of_code=implementation.lines_of_code(),
        clock_cycles=stats.total_cycles,
        activations=stats.total_activations,
        queue_cycles=stats.queue_cycles,
    )


def build_comparison(
    net: PetriNet,
    modules: Mapping[str, Sequence[str]],
    events: Sequence[Event],
    cost_model: Optional[CostModel] = None,
    title: str = "Table I",
    engine: str = ENGINE_COMPILED,
) -> ComparisonTable:
    """Build the full Table I comparison for ``net``.

    ``engine`` selects the execution core for both rows: the QSS
    schedule synthesis and the baseline's reactive simulation.
    """
    table = ComparisonTable(title=title)
    qss_row, _ = qss_metrics(net, events, cost_model, engine=engine)
    table.rows.append(qss_row)
    table.rows.append(
        functional_metrics(net, modules, events, cost_model, engine=engine)
    )
    return table


# ----------------------------------------------------------------------
# Buffer metrics
# ----------------------------------------------------------------------
def total_buffer_tokens(schedule: ValidSchedule) -> int:
    """Total statically allocated buffer slots implied by the schedule."""
    return sum(schedule.max_buffer_bounds().values())
