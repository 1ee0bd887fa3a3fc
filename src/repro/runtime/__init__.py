"""Runtime substrate: cost model, event streams, RTOS, reactive and fleet execution.

Every execution path in this package takes the stack-wide
``engine="compiled"`` (default) / ``engine="legacy"`` switch:
:class:`ReactiveNetSimulator` runs the event loop either on the
integer-indexed :class:`~repro.petrinet.compiled.CompiledNet` view or on
the string-keyed token game, :class:`RTOS` forwards the switch to the IR
interpreter (lowered opcodes vs direct tree walking), and
:class:`FleetSimulator` batches N net instances into one ``(N, P)``
numpy marking matrix on the compiled engine (its legacy engine is the
per-instance baseline).  Engines always produce identical
:class:`ExecutionStats`; `tests/test_runtime_compiled_differential.py`
is the cross-check suite and `benchmarks/bench_runtime_fleet.py` the
fleet performance contract.
"""

from .cost import DEFAULT_COST_MODEL, CostModel
from .events import (
    ARRIVAL_PROCESSES,
    ChoiceSampler,
    Event,
    EventColumns,
    EventStreams,
    as_columns,
    validate_arrival,
)
from .fleet import (
    FleetEngine,
    FleetResult,
    FleetSimulator,
    SignatureTable,
    synthetic_streams,
)
from .reactive import (
    BUDGET_POLICIES,
    ModuleAssignment,
    ReactiveNetSimulator,
    validate_budget_policy,
)
from .rtos import RTOS, ExecutionStats
from .stochastic import (
    TIMING_SPECS,
    TimingModel,
    parse_timing,
)

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Event",
    "EventColumns",
    "EventStreams",
    "as_columns",
    "ARRIVAL_PROCESSES",
    "validate_arrival",
    "ChoiceSampler",
    "RTOS",
    "ExecutionStats",
    "ModuleAssignment",
    "ReactiveNetSimulator",
    "BUDGET_POLICIES",
    "validate_budget_policy",
    "FleetSimulator",
    "FleetEngine",
    "FleetResult",
    "SignatureTable",
    "synthetic_streams",
    "TimingModel",
    "TIMING_SPECS",
    "parse_timing",
]
