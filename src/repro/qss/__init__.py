"""Quasi-Static Scheduling of Free-Choice Petri Nets (the paper's core).

Typical use::

    from repro.qss import compute_valid_schedule, partition_tasks

    schedule = compute_valid_schedule(net)      # raises if unschedulable
    tasks = partition_tasks(schedule)           # one task per input rate
"""

from .allocation import (
    TAllocation,
    count_allocations,
    enumerate_allocations,
)
from .compiled_reduction import (
    CompiledReduction,
    QSSContext,
    count_distinct_reductions,
    iter_compiled_reductions,
)
from .reduction import (
    ReductionStep,
    TReduction,
    enumerate_reductions,
    reduce_net,
)
from .schedulability import (
    MAX_CYCLE_SCALE,
    ReductionVerdict,
    check_compiled_reduction,
    check_reduction,
    covering_counts,
)
from .schedule import FiniteCompleteCycle, ValidSchedule
from .scheduler import (
    SchedulabilityReport,
    analyse,
    compute_valid_schedule,
    is_schedulable,
)
from .tasks import TaskDefinition, TaskPartition, partition_tasks

__all__ = [
    "TAllocation",
    "enumerate_allocations",
    "count_allocations",
    "TReduction",
    "ReductionStep",
    "reduce_net",
    "enumerate_reductions",
    "count_distinct_reductions",
    "CompiledReduction",
    "QSSContext",
    "iter_compiled_reductions",
    "ReductionVerdict",
    "check_reduction",
    "check_compiled_reduction",
    "covering_counts",
    "MAX_CYCLE_SCALE",
    "FiniteCompleteCycle",
    "ValidSchedule",
    "SchedulabilityReport",
    "analyse",
    "is_schedulable",
    "compute_valid_schedule",
    "TaskDefinition",
    "TaskPartition",
    "partition_tasks",
]
