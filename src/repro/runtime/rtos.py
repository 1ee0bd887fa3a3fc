"""A minimal Real-Time Operating System model.

The paper's synthesized tasks "are invoked at run-time by the RTOS either
by interrupt or polling"; the RTOS itself is out of the paper's scope but
its activation overhead is what makes implementations with more tasks
slower and larger (Table I).  This module provides that executive: tasks
are registered against the input events that trigger them, events are
dispatched in time order, and every activation is charged the cost
model's activation overhead on top of the cycles reported by the task
body itself.

The executive forwards ``engine`` to the IR interpreter:
``"compiled"`` (default) executes the task bodies in their lowered
integer-opcode form, the fast path for short runs since it builds
nothing; ``"native"`` runs them as compiled C
(:mod:`repro.codegen.native`), the fast path for sustained runs,
falling back to ``"compiled"`` with a warning when no C compiler is
available; ``"legacy"`` tree-walks the IR statement objects and is the
oracle both are checked against.  All three charge identical cycles
(`tests/test_runtime_compiled_differential.py`,
`tests/test_codegen_native.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from typing import TYPE_CHECKING

from ..petrinet.compiled import ENGINE_COMPILED
from .cost import CostModel
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from ..codegen.ir import Program


@dataclass
class ExecutionStats:
    """Aggregate statistics of a simulated run.

    Attributes
    ----------
    total_cycles:
        Total clock cycles, including task bodies and all overheads.
    activation_cycles / body_cycles / queue_cycles:
        Breakdown of the total into RTOS activation overhead, task body
        work, and inter-task queue traffic.
    activations:
        Number of activations per task.
    firings:
        Number of firings per transition across the whole run.
    events_processed:
        Number of input events dispatched.
    budget_stops:
        Number of events abandoned by the ``on_budget="stop"`` policy of
        the reactive/fleet simulators (always 0 under ``"error"``).
    delay_ticks:
        Total timed firing delay charged by a
        :class:`~repro.runtime.stochastic.TimingModel` (always 0 for
        untimed runs).  Ticks are a separate axis from cycles: cycles
        model the cost structure the paper measures, ticks the timed
        workload realism layered on top.
    """

    total_cycles: int = 0
    activation_cycles: int = 0
    body_cycles: int = 0
    queue_cycles: int = 0
    activations: Dict[str, int] = field(default_factory=dict)
    firings: Dict[str, int] = field(default_factory=dict)
    events_processed: int = 0
    budget_stops: int = 0
    delay_ticks: int = 0

    def record_activation(self, task: str, overhead: int) -> None:
        self.activations[task] = self.activations.get(task, 0) + 1
        self.activation_cycles += overhead
        self.total_cycles += overhead

    def record_body(self, cycles: int, fired: Iterable[str]) -> None:
        self.body_cycles += cycles
        self.total_cycles += cycles
        for transition in fired:
            self.firings[transition] = self.firings.get(transition, 0) + 1

    def record_queue(self, cycles: int) -> None:
        self.queue_cycles += cycles
        self.total_cycles += cycles

    def record_delay(self, ticks: int) -> None:
        self.delay_ticks += ticks

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate ``other`` into this stats object (fleet aggregation)."""
        self.total_cycles += other.total_cycles
        self.activation_cycles += other.activation_cycles
        self.body_cycles += other.body_cycles
        self.queue_cycles += other.queue_cycles
        self.events_processed += other.events_processed
        self.budget_stops += other.budget_stops
        self.delay_ticks += other.delay_ticks
        for task, count in other.activations.items():
            self.activations[task] = self.activations.get(task, 0) + count
        for transition, count in other.firings.items():
            self.firings[transition] = self.firings.get(transition, 0) + count

    @property
    def total_activations(self) -> int:
        return sum(self.activations.values())

    def describe(self) -> str:
        lines = [
            f"events processed : {self.events_processed}",
            f"total cycles     : {self.total_cycles}",
            f"  task bodies    : {self.body_cycles}",
            f"  activations    : {self.activation_cycles} "
            f"({self.total_activations} activations)",
            f"  queue traffic  : {self.queue_cycles}",
        ]
        if self.budget_stops:
            lines.append(f"  budget stops   : {self.budget_stops}")
        if self.delay_ticks:
            lines.append(f"  delay ticks    : {self.delay_ticks}")
        for task, count in sorted(self.activations.items()):
            lines.append(f"  activations[{task}] = {count}")
        return "\n".join(lines)


class RTOS:
    """Event-driven executive for a quasi-statically scheduled program.

    Each task of the program is triggered by its source transitions; the
    executive dispatches the merged event stream in time order, charging
    one activation per event plus the cycles reported by the task body.

    ``engine`` selects how the task bodies execute: ``"compiled"``
    (default) runs the lowered integer-opcode form, ``"legacy"``
    tree-walks the IR statements, ``"native"`` runs the compiled
    shared library; see
    :class:`~repro.codegen.interpreter.TaskExecutor`.
    """

    def __init__(
        self,
        program: "Program",
        cost_model: Optional[CostModel] = None,
        engine: str = ENGINE_COMPILED,
    ) -> None:
        # imported here to keep repro.runtime importable without pulling in
        # repro.codegen (which itself depends on repro.runtime.cost)
        from ..codegen.interpreter import ProgramExecutor

        self.cost = cost_model or CostModel()
        self.engine = engine
        self.executor = ProgramExecutor(program, self.cost, engine=engine)
        self.program = program

    def reset(self) -> None:
        self.executor.reset()

    def run(self, events: Sequence[Event]) -> ExecutionStats:
        """Dispatch ``events`` (already time-ordered or not) and return stats."""
        stats = ExecutionStats()
        activation_cycles = self.cost.activation_cycles
        task_for_source = self.executor.task_for_source
        for event in sorted(events, key=lambda e: e.time):
            stats.events_processed += 1
            task_executor = task_for_source(event.source)
            stats.record_activation(task_executor.task.name, activation_cycles)
            result = task_executor.activate(event.choices)
            stats.record_body(result.cycles, result.fired)
        return stats
