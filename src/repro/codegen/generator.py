"""Code generation: from a task partition to structured task code.

This is the implementation of Section 4 of the paper.  The synthesized
code for a task is obtained by traversing the task's portion of the net
(the transitions of the T-invariants triggered by the task's input),
starting from the source transition and propagating tokens downstream:

* a transition becomes a plain statement (a call to the user-provided
  function implementing the computation);
* a choice place becomes an ``if/then/else`` on the run-time data;
* a rate mismatch between producer and consumer (weighted arcs) becomes
  a counting variable plus an ``if`` test (consumer slower to enable:
  ``f(t_i) < f(t_{i-1})``) or a ``while`` loop (consumer fires several
  times: ``f(t_i) > f(t_{i-1})``), exactly the rules of the paper's
  ``Task`` routine;
* a merge place (a transition reachable from several producers — code
  shared between branches or between tasks) becomes a shared fragment
  referenced from every producer site, the structured equivalent of the
  paper's label/``goto`` sharing.

The generated :class:`~repro.codegen.ir.Program` is backend independent:
it can be pretty-printed to C or executed directly by the interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..petrinet import PetriNet
from ..qss.schedule import ValidSchedule
from ..qss.tasks import TaskDefinition, TaskPartition, partition_tasks
from .ir import (
    Block,
    CallFragment,
    ChoiceIf,
    DecCount,
    FireTransition,
    Fragment,
    Guarded,
    IncCount,
    Program,
    TaskProgram,
)


class CodegenError(Exception):
    """Raised when a task subnet cannot be turned into structured code."""


class _TaskGenerator:
    """Generates the fragments of a single task."""

    def __init__(self, net: PetriNet, task: TaskDefinition) -> None:
        self.net = net
        self.task = task
        self.task_transitions = set(task.transitions)
        self.task_places = set(task.places)
        self.counters: Dict[str, int] = {}
        self.fragments: Dict[str, Fragment] = {}
        initial = net.initial_marking
        self._initial = initial

    # -- helpers -----------------------------------------------------------
    def _consumers_in_task(self, place: str) -> List[str]:
        return [
            t for t in self.net.postset_names(place) if t in self.task_transitions
        ]

    def _producers_in_task(self, place: str) -> List[str]:
        return [
            t for t in self.net.preset_names(place) if t in self.task_transitions
        ]

    def _needs_counter(self, place: str, consumer: str) -> bool:
        """A place needs a counting variable unless it is a plain 1-to-1
        link: single producer, single consumer, equal weights, no initial
        tokens, and the consumer has no other input place."""
        producers = self._producers_in_task(place)
        if len(producers) != 1:
            return True
        if self._initial[place] != 0:
            return True
        produce = self.net.arc_weight(producers[0], place)
        consume = self.net.arc_weight(place, consumer)
        if produce != consume:
            return True
        if len(self.net.preset(consumer)) != 1:
            return True
        return False

    def _ensure_counter(self, place: str) -> None:
        if place not in self.counters:
            self.counters[place] = self._initial[place]

    # -- fragment construction ----------------------------------------------
    def fragment_for(self, transition: str, stack: Tuple[str, ...] = ()) -> str:
        """Return the fragment name for ``transition``, creating it if needed."""
        name = transition
        if name in self.fragments:
            return name
        if transition in stack:
            # cycle in the task net: reference the fragment being built
            return name
        fragment = Fragment(name=name, transition=transition, body=Block())
        self.fragments[name] = fragment
        fragment.body = self._build_body(transition, stack + (transition,))
        return name

    def _build_body(self, transition: str, stack: Tuple[str, ...]) -> Block:
        cost = self.net.transition(transition).cost
        body = Block([FireTransition(transition=transition, cost=cost)])
        # 1. Produce into all downstream places first (so that join
        #    transitions see every token produced by this firing).
        productions: List[Tuple[str, int, List[str]]] = []
        for place, weight in self.net.postset(transition).items():
            consumers = self._consumers_in_task(place)
            if not consumers:
                continue
            productions.append((place, weight, consumers))

        handled_consumers: Set[str] = set()
        deferred: List[Tuple[str, List[str]]] = []
        for place, weight, consumers in productions:
            if len(consumers) > 1:
                # data-dependent choice: handled in step 2
                deferred.append((place, consumers))
                continue
            consumer = consumers[0]
            if self._needs_counter(place, consumer):
                self._ensure_counter(place)
                body.append(IncCount(place=place, amount=weight))
            deferred.append((place, consumers))

        # 2. Then attempt every distinct downstream consumer once.
        for place, consumers in deferred:
            if len(consumers) > 1:
                body.append(self._choice_statement(place, consumers, stack))
                continue
            consumer = consumers[0]
            if consumer in handled_consumers:
                continue
            handled_consumers.add(consumer)
            body.extend(self._consumer_statements(place, consumer, stack))
        return body

    def _choice_statement(
        self, place: str, consumers: Sequence[str], stack: Tuple[str, ...]
    ) -> ChoiceIf:
        """An if/then/else resolving the data-dependent choice at ``place``."""
        for consumer in consumers:
            if self.net.arc_weight(place, consumer) != 1:
                raise CodegenError(
                    f"choice place {place!r} has a weighted output arc to "
                    f"{consumer!r}; weighted choices are not supported by the "
                    "structured code generator"
                )
        branches = []
        for consumer in consumers:
            branch = Block()
            branch.extend(self._call_statements(consumer, stack))
            branches.append((consumer, branch))
        return ChoiceIf(place=place, branches=tuple(branches))

    def _consumer_statements(
        self, place: str, consumer: str, stack: Tuple[str, ...]
    ) -> List:
        """Code that attempts to fire ``consumer`` after tokens arrived in
        ``place``."""
        if not self._needs_counter(place, consumer):
            return list(self._call_statements(consumer, stack))
        # counting-variable pattern: guard on every input place of the
        # consumer that lies in this task (a join needs them all).
        conditions: List[Tuple[str, int]] = []
        for input_place, weight in self.net.preset(consumer).items():
            if input_place in self.task_places:
                self._ensure_counter(input_place)
                conditions.append((input_place, weight))
        produce = max(
            (self.net.arc_weight(p, place) for p in self._producers_in_task(place)),
            default=1,
        )
        consume = self.net.arc_weight(place, consumer)
        kind = "while" if produce > consume or self._initial[place] > consume else "if"
        guard_body = Block()
        for input_place, weight in conditions:
            guard_body.append(DecCount(place=input_place, amount=weight))
        guard_body.extend(self._call_statements(consumer, stack))
        return [Guarded(kind=kind, conditions=tuple(conditions), body=guard_body)]

    def _call_statements(self, transition: str, stack: Tuple[str, ...]) -> List:
        """Reference (or inline) the fragment of ``transition``."""
        name = self.fragment_for(transition, stack)
        return [CallFragment(fragment=name)]

    # -- entry point ----------------------------------------------------------
    def generate(self) -> TaskProgram:
        entries = []
        for source in self.task.source_transitions:
            entries.append(self.fragment_for(source))
        # record call counts for the emitter's inline-vs-shared decision
        self._count_calls()
        return TaskProgram(
            name=self.task.name,
            source_transitions=tuple(self.task.source_transitions),
            counters=dict(self.counters),
            fragments=self.fragments,
            entry_fragments=tuple(entries),
        )

    def _count_calls(self) -> None:
        def walk(block: Block) -> None:
            for statement in block:
                if isinstance(statement, CallFragment):
                    self.fragments[statement.fragment].call_count += 1
                elif isinstance(statement, Guarded):
                    walk(statement.body)
                elif isinstance(statement, ChoiceIf):
                    for _, branch in statement.branches:
                        walk(branch)

        for fragment in self.fragments.values():
            walk(fragment.body)
        for entry in set(
            e for e in self.fragments if e in self.task.source_transitions
        ):
            self.fragments[entry].call_count += 1


def generate_task_program(net: PetriNet, task: TaskDefinition) -> TaskProgram:
    """Generate the structured code of one task."""
    return _TaskGenerator(net, task).generate()


def generate_program(partition: TaskPartition) -> Program:
    """Generate the structured code of every task of a partition."""
    program = Program(name=partition.net.name)
    for task in partition.tasks:
        program.tasks.append(generate_task_program(partition.net, task))
    return program


def synthesize(
    schedule: ValidSchedule,
    rate_groups: Optional[Sequence[Sequence[str]]] = None,
    task_names: Optional[Dict[str, str]] = None,
) -> Program:
    """End-to-end software synthesis from a valid schedule.

    Convenience wrapper combining task partitioning
    (:func:`repro.qss.tasks.partition_tasks`) and code generation; this is
    the function the examples and benchmarks call after
    :func:`repro.qss.compute_valid_schedule`.
    """
    partition = partition_tasks(schedule, rate_groups=rate_groups, task_names=task_names)
    return generate_program(partition)
