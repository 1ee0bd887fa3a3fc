"""Cycle cost model for the simulated execution target.

The paper measures clock cycles of the generated C programs on an
embedded processor; this reproduction replaces that target with a
deterministic cost model charged by the IR interpreter and the RTOS
simulator.  The default constants are loosely calibrated so that a
transition body dominates a control test, a counter update is cheap, and
a task activation (context switch plus dispatcher work) costs roughly an
order of magnitude more than a single transition — the relationship that
makes implementations with more tasks slower, which is the effect
Table I demonstrates.

All experiments report the constants they use, and the overhead
sensitivity ablation (benchmarks/bench_ablation_overhead.py) sweeps the
activation cost to show how the QSS advantage varies with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Abstract clock-cycle costs of the simulated target.

    Attributes
    ----------
    transition_cycles:
        Cycles per unit of transition cost (a transition with
        ``cost == c`` charges ``c * transition_cycles``).
    test_cycles:
        Cycles per control test (choice test, counter guard evaluation).
    counter_cycles:
        Cycles per counting-variable update.
    call_cycles:
        Cycles per fragment call (function-call overhead of shared code).
    activation_cycles:
        Cycles per task activation: RTOS dispatch plus context switch.
    queue_op_cycles:
        Cycles per inter-task message enqueue/dequeue (only paid by
        multi-task partitionings that communicate through queues).
    idle_tick_cycles:
        Cycles burnt by the RTOS when an event arrives but no task needs
        to run (e.g. a Tick with an empty system in some baselines).
    """

    transition_cycles: int = 40
    test_cycles: int = 4
    counter_cycles: int = 2
    call_cycles: int = 6
    activation_cycles: int = 180
    queue_op_cycles: int = 80
    idle_tick_cycles: int = 10

    def with_activation(self, activation_cycles: int) -> "CostModel":
        """A copy of the model with a different task-activation cost."""
        return replace(self, activation_cycles=activation_cycles)


#: Cost model used by the Table I reproduction.
DEFAULT_COST_MODEL = CostModel()
