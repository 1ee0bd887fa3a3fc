"""Synchronous Dataflow substrate: graphs, balance equations and static schedules.

Section 2 of the paper: the balance equations (:mod:`repro.sdf.balance`,
on integer matrices) give the repetition vector, and the PASS
simulation behind :func:`static_schedule` / :func:`simulate_schedule` /
:func:`is_statically_schedulable` orders one iteration.  That
simulation is one dict loop and takes no ``engine=`` switch (see
:mod:`repro.sdf.schedule`).  The QSS pipeline does not call this
package: it schedules each T-reduction with the firing-order search of
:mod:`repro.petrinet.simulation`.
"""

from .balance import (
    InconsistentSDFError,
    is_sample_rate_consistent,
    iteration_token_change,
    repetition_vector,
)
from .convert import petri_to_sdf, sdf_to_petri
from .graph import Actor, Edge, SDFError, SDFGraph
from .schedule import (
    DeadlockError,
    LoopedSchedule,
    StaticSchedule,
    compact_schedule,
    is_statically_schedulable,
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
    "is_sample_rate_consistent",
    "iteration_token_change",
    "static_schedule",
    "simulate_schedule",
    "is_statically_schedulable",
    "StaticSchedule",
    "LoopedSchedule",
    "compact_schedule",
    "total_buffer_requirement",
    "sdf_to_petri",
    "petri_to_sdf",
]
