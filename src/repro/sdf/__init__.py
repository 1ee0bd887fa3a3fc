"""Synchronous Dataflow substrate: graphs, balance equations and static schedules.

Section 2 of the paper: the balance equations (:mod:`repro.sdf.balance`,
on integer matrices) give the repetition vector, and the PASS
simulation behind :func:`static_schedule` / :func:`simulate_schedule`
orders one iteration.  That simulation is one dict loop and takes no
``engine=`` switch (see :mod:`repro.sdf.schedule`).  The QSS pipeline does not call this
package: it orders each T-reduction's covering T-invariant with the
greedy walk of
:meth:`repro.qss.compiled_reduction.CompiledReduction.find_finite_complete_cycle`,
or, on the legacy oracle, with the firing-order search of
:mod:`repro.petrinet.simulation`.
"""

from .balance import InconsistentSDFError, repetition_vector
from .convert import petri_to_sdf, sdf_to_petri
from .graph import Actor, Edge, SDFError, SDFGraph
from .schedule import (
    DeadlockError,
    LoopedSchedule,
    StaticSchedule,
    compact_schedule,
    simulate_schedule,
    static_schedule,
    total_buffer_requirement,
)

__all__ = [
    "SDFGraph",
    "Actor",
    "Edge",
    "SDFError",
    "InconsistentSDFError",
    "DeadlockError",
    "repetition_vector",
    "static_schedule",
    "simulate_schedule",
    "StaticSchedule",
    "LoopedSchedule",
    "compact_schedule",
    "total_buffer_requirement",
    "sdf_to_petri",
    "petri_to_sdf",
]
