"""Exception hierarchy for the Petri net substrate.

All errors raised by :mod:`repro.petrinet` derive from
:class:`PetriNetError` so callers can catch substrate-level failures with a
single ``except`` clause while still distinguishing the specific condition
when needed.
"""

from __future__ import annotations


class PetriNetError(Exception):
    """Base class for all Petri net related errors."""


class DuplicateNodeError(PetriNetError):
    """A place or transition with the same name already exists in the net."""


class UnknownNodeError(PetriNetError):
    """A referenced place or transition does not exist in the net."""


class InvalidArcError(PetriNetError):
    """An arc was declared between two nodes of the same kind or with a
    non-positive weight."""


class NotEnabledError(PetriNetError):
    """A transition was fired from a marking in which it is not enabled."""


class InvalidMarkingError(PetriNetError):
    """A marking assigns a negative token count or references unknown places."""


class NotFreeChoiceError(PetriNetError):
    """An operation that requires a Free-Choice net was applied to a net
    that is not free-choice."""


class NotSchedulableError(PetriNetError):
    """The net (or one of its T-reductions) is not quasi-statically
    schedulable."""


class SerializationError(PetriNetError):
    """A net description could not be parsed or emitted."""
