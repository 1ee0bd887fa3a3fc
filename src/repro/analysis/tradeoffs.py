"""Schedule/implementation trade-off exploration.

The paper's conclusions point to future work: "explore different
schedules, evaluating tradeoffs between code and buffer size".  This
module sweeps the RTOS activation overhead, the knob that determines
how much a coarser task partition wins, and reports its effect on the
cycle counts of the QSS implementation and a baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..codegen.generator import synthesize
from ..petrinet import PetriNet
from ..qss.schedule import ValidSchedule
from ..qss.scheduler import compute_valid_schedule
from ..runtime.cost import CostModel
from ..runtime.events import Event
from ..runtime.rtos import RTOS


def overhead_sensitivity(
    net: PetriNet,
    events: Sequence[Event],
    activation_cycles: Sequence[int],
    run_baseline,
    cost_model: Optional[CostModel] = None,
    schedule: Optional[ValidSchedule] = None,
) -> List[Dict[str, float]]:
    """Sweep the RTOS activation overhead and report QSS vs baseline cycles.

    Parameters
    ----------
    run_baseline:
        Callable ``(events, cost_model) -> ExecutionStats`` executing the
        baseline implementation (e.g.
        ``FunctionalImplementation(...).run``).

    Returns one record per overhead value with the absolute cycle counts
    and the baseline/QSS ratio; the ratio grows with the overhead, which
    is the mechanism behind Table I.
    """
    if schedule is None:
        schedule = compute_valid_schedule(net)
    program = synthesize(schedule)
    base_model = cost_model or CostModel()
    records: List[Dict[str, float]] = []
    for overhead in activation_cycles:
        model = base_model.with_activation(overhead)
        qss_cycles = RTOS(program, model).run(events).total_cycles
        baseline_cycles = run_baseline(events, model).total_cycles
        records.append(
            {
                "activation_cycles": float(overhead),
                "qss_cycles": float(qss_cycles),
                "baseline_cycles": float(baseline_cycles),
                "ratio": baseline_cycles / qss_cycles if qss_cycles else float("inf"),
            }
        )
    return records
