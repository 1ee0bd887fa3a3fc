"""The Quasi-Static Scheduling algorithm (Section 3 of the paper).

The top-level entry points are :func:`is_schedulable` and
:func:`compute_valid_schedule`:

1. check that the net is a Free-Choice Petri Net;
2. decompose it into T-reductions, one per resolution of the
   non-deterministic choices (deduplicating allocations that induce the
   same reduction);
3. statically schedule each reduction with the SDF-style machinery
   (T-invariants + deadlock-free constrained simulation);
4. if every reduction is schedulable (Theorem 3.1), assemble the valid
   schedule — a set of finite complete cycles, one per reduction, each
   carrying its reduction's minimal T-invariants for task partitioning
   — from which C code is synthesized by :mod:`repro.codegen`.

When the net is not schedulable a :class:`SchedulabilityReport` explains
which reductions fail and why, so the designer is "notified that there
exists no implementation that can be executed forever with bounded
memory".

Both entry points go through :func:`analyse`, whose ``engine`` picks the
mask pipeline (``"compiled"``: ``iter_compiled_reductions`` and
``check_compiled_reduction``) or its oracle (``"legacy"``:
``enumerate_reductions`` and ``check_reduction``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..petrinet import (
    ENGINE_COMPILED,
    ENGINE_LEGACY,
    Marking,
    PetriNet,
    validate_engine,
)
from ..petrinet.exceptions import NotFreeChoiceError, NotSchedulableError
from ..petrinet.structure import is_free_choice
from .allocation import count_allocations
from .compiled_reduction import iter_compiled_reductions
from .reduction import enumerate_reductions
from .schedulability import (
    ReductionVerdict,
    check_compiled_reduction,
    check_reduction,
)
from .schedule import FiniteCompleteCycle, ValidSchedule


@dataclass
class SchedulabilityReport:
    """Full outcome of the QSS schedulability analysis of a net.

    Attributes
    ----------
    net:
        The analysed net.
    schedulable:
        True iff every T-reduction is schedulable (Theorem 3.1).
    verdicts:
        Per-reduction verdicts with diagnostics.
    allocation_count:
        Number of T-allocations (product of the choice out-degrees).
    reduction_count:
        Number of *distinct* T-reductions — the number of finite complete
        cycles a valid schedule will contain.
    schedule:
        The valid schedule when the net is schedulable, else ``None``.
    """

    net: PetriNet
    schedulable: bool
    verdicts: List[ReductionVerdict] = field(default_factory=list)
    allocation_count: int = 0
    reduction_count: int = 0
    schedule: Optional[ValidSchedule] = None
    #: False when a ``fail_fast`` analysis stopped at a failing
    #: T-reduction instead of checking (or, under the streaming
    #: pipeline, enumerating) everything; ``verdicts`` then holds only
    #: the partial results and ``reduction_count`` counts only the
    #: reductions examined.  Both engines set this identically: any
    #: fail-fast stop reports ``complete=False``, even if the failing
    #: reduction happened to be the final one.
    complete: bool = True

    @property
    def failing_verdicts(self) -> List[ReductionVerdict]:
        return [v for v in self.verdicts if not v.schedulable]

    def explain(self) -> str:
        """Multi-line human readable report."""
        lines = [
            f"net {self.net.name!r}: {self.allocation_count} T-allocations, "
            f"{self.reduction_count} distinct T-reductions"
            + ("" if self.complete else " examined (fail-fast stop)")
        ]
        if self.schedulable:
            lines.append("the net is quasi-statically schedulable")
        else:
            lines.append("the net is NOT quasi-statically schedulable")
            for verdict in self.failing_verdicts:
                lines.append("  - " + verdict.explain())
        return "\n".join(lines)


def analyse(
    net: PetriNet,
    marking: Optional[Marking] = None,
    engine: str = ENGINE_COMPILED,
    fail_fast: bool = False,
) -> SchedulabilityReport:
    """Run the complete QSS analysis and build the valid schedule if any.

    ``engine`` selects the synthesis pipeline: ``"compiled"`` (default)
    streams mask-based T-reductions over one compiled parent net —
    zero per-allocation net rebuilds or recompiles — while ``"legacy"``
    rebuilds and checks a Python subnet per allocation, as the original
    implementation did, and serves as the compiled pipeline's oracle.
    Both produce identical verdicts and cycles.

    Parameters
    ----------
    fail_fast:
        Stop at the first unschedulable T-reduction instead of checking
        (and, under the streaming compiled pipeline, enumerating) every
        one.  The report then carries the partial verdicts computed so
        far, ``complete=False`` and ``reduction_count`` equal to the
        number of reductions examined.

    Raises
    ------
    NotFreeChoiceError
        If the net is not free-choice.
    """
    validate_engine(engine)
    if not is_free_choice(net):
        raise NotFreeChoiceError(
            f"net {net.name!r} is not a Free-Choice Petri Net; the QSS "
            "algorithm is only defined (and complete) for FCPNs"
        )
    reductions: Iterable
    if engine == ENGINE_LEGACY:
        reductions = enumerate_reductions(net)
    else:
        reductions = iter_compiled_reductions(net)
    verdicts: List[ReductionVerdict] = []
    complete = True
    for reduction in reductions:
        if engine == ENGINE_LEGACY:
            verdict = check_reduction(net, reduction, marking)
        else:
            verdict = check_compiled_reduction(reduction, marking)
        verdicts.append(verdict)
        if fail_fast and not verdict.schedulable:
            complete = False
            break
    schedulable = all(v.schedulable for v in verdicts)
    report = SchedulabilityReport(
        net=net,
        schedulable=schedulable,
        verdicts=verdicts,
        allocation_count=count_allocations(net),
        reduction_count=len(verdicts),
        complete=complete,
    )
    if schedulable and complete:
        schedule = ValidSchedule(net=net)
        for verdict in verdicts:
            assert verdict.cycle is not None
            schedule.cycles.append(
                FiniteCompleteCycle.from_sequence(
                    verdict.cycle,
                    allocation=verdict.reduction.allocation,
                    reduction_transitions=verdict.reduction.transition_set,
                    invariants=verdict.invariants,
                )
            )
        report.schedule = schedule
    return report


def is_schedulable(
    net: PetriNet,
    marking: Optional[Marking] = None,
    engine: str = ENGINE_COMPILED,
    fail_fast: bool = True,
) -> bool:
    """True iff the FCPN is quasi-statically schedulable (Definition 3.2).

    Only the boolean verdict is needed here, so the analysis defaults to
    ``fail_fast=True``: the first unschedulable T-reduction already
    falsifies Theorem 3.1's "every reduction is schedulable", and the
    streaming pipeline stops enumerating right there.  Pass
    ``fail_fast=False`` to force the exhaustive check.
    """
    return analyse(net, marking, engine=engine, fail_fast=fail_fast).schedulable


def compute_valid_schedule(
    net: PetriNet, marking: Optional[Marking] = None, engine: str = ENGINE_COMPILED
) -> ValidSchedule:
    """Compute a valid schedule, raising when the net is not schedulable.

    Raises
    ------
    NotSchedulableError
        With the full diagnostic report in the message when the net has
        no valid schedule.
    """
    report = analyse(net, marking, engine=engine)
    if not report.schedulable or report.schedule is None:
        raise NotSchedulableError(report.explain())
    return report.schedule

