"""Intermediate representation of synthesized task code.

The C code generation algorithm of Section 4 turns a valid schedule into
structured code: plain statements for transitions, ``if/then/else`` for
choice places, counting variables with ``if``/``while`` tests for
multirate arcs, and shared fragments for merge places (the paper uses
labels and ``goto``; we use shared fragments, which are emitted either
inline, as labelled code, or as helper functions — see
:mod:`repro.codegen.emit_c`).

The same IR is consumed by two backends:

* :mod:`repro.codegen.emit_c` pretty-prints compilable C and measures the
  generated code size (the "lines of C code" column of Table I);
* :mod:`repro.codegen.interpreter` executes the IR against a cycle cost
  model, standing in for the paper's target processor (the "clock
  cycles" column of Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union


@dataclass
class FireTransition:
    """Execute the computation associated with a transition."""

    transition: str
    cost: int = 1


@dataclass
class IncCount:
    """``count_<place> += amount`` — tokens produced into a buffer."""

    place: str
    amount: int


@dataclass
class DecCount:
    """``count_<place> -= amount`` — tokens consumed from a buffer."""

    place: str
    amount: int


@dataclass
class CallFragment:
    """Invoke the code fragment of another transition.

    Fragments realize the paper's code sharing at merge places: the
    fragment of a transition reachable from several producers is
    generated once and referenced from every producer site.
    """

    fragment: str


@dataclass
class Guarded:
    """Counter-guarded execution.

    ``kind`` is ``"if"`` (fires at most once — consumer rate >= producer
    rate) or ``"while"`` (may fire several times — producer rate >
    consumer rate).  ``conditions`` lists ``(place, threshold)`` pairs
    that must all hold (several pairs model a join transition).
    """

    kind: str
    conditions: Tuple[Tuple[str, int], ...]
    body: "Block"


@dataclass
class ChoiceIf:
    """Data-dependent branch on the token value in a choice place.

    ``branches`` maps each alternative successor transition to the block
    executed when the run-time data selects it; the generated C reads the
    choice outcome through ``choice_<place>()``.
    """

    place: str
    branches: Tuple[Tuple[str, "Block"], ...]


Statement = Union[FireTransition, IncCount, DecCount, CallFragment, Guarded, ChoiceIf]


@dataclass
class Block:
    """A sequence of statements."""

    statements: List[Statement] = field(default_factory=list)

    def append(self, statement: Statement) -> None:
        self.statements.append(statement)

    def extend(self, statements: Sequence[Statement]) -> None:
        self.statements.extend(statements)

    def __iter__(self):
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)


@dataclass
class Fragment:
    """The code fragment of one transition: fire it, then propagate tokens."""

    name: str
    transition: str
    body: Block
    call_count: int = 0


@dataclass
class TaskProgram:
    """The synthesized code of one software task.

    Attributes
    ----------
    name:
        Task (function) name.
    source_transitions:
        The environment inputs that trigger the task.
    counters:
        ``{place: initial value}`` for every counting variable of the task.
    fragments:
        All transition fragments, keyed by fragment name.
    entry_fragments:
        Fragment names executed when the task is activated (one per
        triggering source transition).
    """

    name: str
    source_transitions: Tuple[str, ...]
    counters: Dict[str, int] = field(default_factory=dict)
    fragments: Dict[str, Fragment] = field(default_factory=dict)
    entry_fragments: Tuple[str, ...] = ()

    def fragment(self, name: str) -> Fragment:
        return self.fragments[name]

    def statement_count(self) -> int:
        """Total number of IR statements across all fragments."""

        def count_block(block: Block) -> int:
            total = 0
            for statement in block:
                total += 1
                if isinstance(statement, Guarded):
                    total += count_block(statement.body)
                elif isinstance(statement, ChoiceIf):
                    for _, branch in statement.branches:
                        total += count_block(branch)
            return total

        return sum(count_block(f.body) for f in self.fragments.values())


@dataclass
class Program:
    """A complete synthesized implementation: a set of tasks."""

    name: str
    tasks: List[TaskProgram] = field(default_factory=list)

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    def task(self, name: str) -> TaskProgram:
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(f"no task named {name!r}")

    def statement_count(self) -> int:
        return sum(task.statement_count() for task in self.tasks)
