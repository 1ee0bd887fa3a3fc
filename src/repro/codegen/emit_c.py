"""C code emission from the task IR.

The emitter produces a self-contained, compilable C translation unit:

* one ``void <task>(void)`` function per task, invoked by the RTOS when
  the task's input event occurs;
* ``static int count_<place>`` counting variables for multirate buffers
  (initialized from the initial marking and persistent across
  activations, exactly like the paper's ``count()`` variables);
* ``extern`` declarations for the user-supplied transition functions
  (``void t_name(void)``) and choice readers (``int choice_place(void)``);
* shared fragments: a fragment referenced from more than one site is
  emitted once as a ``static void`` helper (the structured counterpart
  of the paper's label/``goto`` sharing); singly-referenced fragments
  are inlined so that simple nets produce exactly the nested
  ``while (1) { t1; if (p1) { ... } else { ... } }`` shape shown in the
  paper's Section 4 listing.

Net names are arbitrary strings (corpus generators produce dashes,
spaces, leading digits, ...), so every identifier in the emitted unit is
allocated through a :class:`_NameTable`: names are sanitized to C
identifier syntax and collisions (including cross-task counter
collisions and C keywords) are resolved with deterministic ``_2``,
``_3``, ... suffixes.  The resulting name maps are published on the
emission as :class:`CNames` so that the native tier
(:mod:`repro.codegen.native`) can generate a matching driver.

The emitter also reports the generated code size in lines, the base of
the "Lines of C code" metric of Table I (to which
:func:`repro.analysis.qss_metrics` adds the per-task RTOS boilerplate).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

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

INDENT = "    "


@dataclass
class EmitOptions:
    """Options controlling the C rendering.

    Attributes
    ----------
    standalone_loop:
        Emit each task wrapped in ``while (1) { ... }`` (the paper's
        single-task listing style) instead of a per-activation function
        body called by the RTOS.
    instrument:
        Emit the unit the native tier compiles.  The interpreter's cycle
        accounting is threaded through the code: every fragment entry,
        guard test, choice test, counter update and transition firing
        charges the corresponding ``qss_*_cycles`` runtime variable
        (defined by the native driver).  The last branch of every
        choice becomes an explicit ``else if (choice == ...)`` instead
        of the paper's catch-all ``else``, which would run that branch
        even when the data selected an alternative of another task
        (where the interpreter and the net do nothing), so compiled and
        interpreted runs agree choice for choice.  Off by default so the
        paper-facing listing stays clean.
    """

    standalone_loop: bool = False
    instrument: bool = False


@dataclass
class CNames:
    """Identifier maps of an emission, for tooling layered on the C text.

    All dicts preserve emission order (macro values are the dict order
    of :attr:`choice_values`).  ``counters`` is keyed per task because
    two tasks may legitimately count the same place independently — the
    emitted identifiers then differ (``count_p``, ``count_p_2``).
    """

    transitions: Dict[str, str] = field(default_factory=dict)
    choice_macros: Dict[str, str] = field(default_factory=dict)
    choice_values: Dict[str, int] = field(default_factory=dict)
    choice_places: Dict[str, str] = field(default_factory=dict)
    tasks: Dict[str, str] = field(default_factory=dict)
    counters: Dict[str, Dict[str, str]] = field(default_factory=dict)


@dataclass
class CEmission:
    """Result of emitting a program: the source text and size metrics."""

    source: str
    lines_of_code: int
    names: CNames = field(default_factory=CNames)


_IDENT_BAD = re.compile(r"[^0-9A-Za-z_]")

#: C keywords (C99) plus a few common library identifiers the driver
#: pulls in; pre-seeded as "used" so a net element named ``if`` or
#: ``free`` cannot shadow them.
_RESERVED = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary
    main malloc realloc free memcpy
    """.split()
)


def sanitize_identifier(name: str) -> str:
    """Best-effort C identifier for ``name`` (no uniqueness guarantee).

    Non-identifier characters become ``_``, a leading digit gets an
    ``n`` prefix, and the empty string becomes ``_``.  Collision-proof
    allocation is :class:`_NameTable`'s job.
    """
    base = _IDENT_BAD.sub("_", name)
    if not base:
        return "_"
    if base[0].isdigit():
        base = "n" + base
    return base


class _NameTable:
    """Deterministic, collision-proof identifier allocation.

    All emitted identifiers (macros, extern functions, choice readers,
    task functions, counters, fragment helpers) share one namespace.
    The first request for a candidate gets it verbatim (so C-safe nets
    emit exactly the paper's ``count_p2`` / ``t1`` names); later
    colliding requests get ``_2``, ``_3``, ... suffixes.  The ``qss_``
    and ``repro_qss_`` prefixes are reserved for the native driver.
    """

    def __init__(self) -> None:
        self._used: Set[str] = set(_RESERVED)
        self._assigned: Dict[Tuple, str] = {}

    def assign(self, key: Tuple, candidate: str) -> str:
        if key in self._assigned:
            return self._assigned[key]
        base = sanitize_identifier(candidate)
        if base.startswith("qss_") or base.startswith("repro_qss_"):
            base = "x_" + base
        name = base
        suffix = 2
        while name in self._used:
            name = f"{base}_{suffix}"
            suffix += 1
        self._used.add(name)
        self._assigned[key] = name
        return name

    def get(self, key: Tuple) -> str:
        return self._assigned[key]


def _collect_externs(program: Program) -> Tuple[List[str], List[str]]:
    transitions: Set[str] = set()
    choices: Set[str] = set()

    def walk(block: Block) -> None:
        for statement in block:
            if isinstance(statement, FireTransition):
                transitions.add(statement.transition)
            elif isinstance(statement, Guarded):
                walk(statement.body)
            elif isinstance(statement, ChoiceIf):
                choices.add(statement.place)
                for choice, branch in statement.branches:
                    transitions.add(choice)
                    walk(branch)

    for task in program.tasks:
        for fragment in task.fragments.values():
            walk(fragment.body)
    return sorted(transitions), sorted(choices)


def _recursive_fragments(task: TaskProgram) -> Set[str]:
    """Names of fragments that sit on a call cycle of the task."""
    graph: Dict[str, Set[str]] = {name: set() for name in task.fragments}

    def walk(owner: str, block: Block) -> None:
        for statement in block:
            if isinstance(statement, Guarded):
                walk(owner, statement.body)
            elif isinstance(statement, ChoiceIf):
                for _, branch in statement.branches:
                    walk(owner, branch)
            elif isinstance(statement, CallFragment):
                graph[owner].add(statement.fragment)

    for name, fragment in task.fragments.items():
        walk(name, fragment.body)

    recursive: Set[str] = set()
    for start in graph:
        stack = list(graph[start])
        seen: Set[str] = set()
        while stack:
            node = stack.pop()
            if node == start:
                recursive.add(start)
                break
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph.get(node, ()))
    return recursive


class _TaskEmitter:
    def __init__(
        self,
        task: TaskProgram,
        options: EmitOptions,
        names: Optional[_NameTable] = None,
    ) -> None:
        self.task = task
        self.options = options
        self.names = names if names is not None else _NameTable()
        self.lines: List[str] = []
        self._inline_stack: List[str] = []
        self._recursive = _recursive_fragments(task)

    # -- name lookups ------------------------------------------------------
    def _counter(self, place: str) -> str:
        return self.names.assign(
            ("counter", self.task.name, place), f"count_{place}"
        )

    def _transition_fn(self, transition: str) -> str:
        return self.names.assign(("fn", transition), transition)

    def _choice_reader(self, place: str) -> str:
        return self.names.assign(("choice", place), f"choice_{place}")

    def _choice_macro(self, transition: str) -> str:
        return self.names.assign(("macro", transition), f"CHOICE_{transition.upper()}")

    def _task_fn(self) -> str:
        return self.names.assign(("task", self.task.name), self.task.name)

    def _helper_fn(self, fragment: Fragment) -> str:
        return self.names.assign(
            ("helper", self.task.name, fragment.name),
            f"{self._task_fn()}_{fragment.name}",
        )

    # -- low level -------------------------------------------------------
    def _emit(self, depth: int, text: str) -> None:
        self.lines.append(INDENT * depth + text)

    def _is_inline(self, fragment: Fragment) -> bool:
        if fragment.name in self._inline_stack:
            # recursive fragment (cyclic task net): must stay a helper call
            return False
        return fragment.call_count <= 1

    def _helper_fragments(self) -> List[Fragment]:
        """Fragments that need an emitted helper body: everything
        referenced more than once, plus fragments on call cycles (which
        surface as helper calls when inlining hits the recursion)."""
        return [
            fragment
            for fragment in self.task.fragments.values()
            if fragment.call_count > 1 or fragment.name in self._recursive
        ]

    # -- statement rendering ------------------------------------------------
    def _emit_body(self, block: Block, depth: int) -> None:
        """Emit a fragment body entered with call semantics (charges the
        fragment-call overhead when instrumenting)."""
        if self.options.instrument:
            self._emit(depth, "qss_cycles += qss_call_cycles;")
        self._emit_block(block, depth)

    def _emit_block(self, block: Block, depth: int) -> None:
        for statement in block:
            self._emit_statement(statement, depth)

    def _guard_condition(self, statement: Guarded) -> str:
        condition = " && ".join(
            f"{self._counter(place)} >= {threshold}"
            for place, threshold in statement.conditions
        )
        if self.options.instrument:
            # comma expression: charge one control test per evaluation,
            # including the failing test that exits a while loop — the
            # interpreter charges the same way.
            return f"(qss_cycles += qss_test_cycles, {condition})"
        return condition

    def _emit_statement(self, statement, depth: int) -> None:
        instrument = self.options.instrument
        if isinstance(statement, FireTransition):
            call = f"{self._transition_fn(statement.transition)}();"
            if instrument:
                if statement.cost == 1:
                    call += " qss_cycles += qss_tr_unit;"
                else:
                    call += f" qss_cycles += qss_tr_unit * {statement.cost};"
            self._emit(depth, call)
        elif isinstance(statement, IncCount):
            name = self._counter(statement.place)
            if statement.amount == 1:
                text = f"{name}++;"
            else:
                text = f"{name} += {statement.amount};"
            if instrument:
                text += " qss_cycles += qss_counter_cycles;"
            self._emit(depth, text)
        elif isinstance(statement, DecCount):
            name = self._counter(statement.place)
            if statement.amount == 1:
                text = f"{name}--;"
            else:
                text = f"{name} -= {statement.amount};"
            if instrument:
                text += " qss_cycles += qss_counter_cycles;"
            self._emit(depth, text)
        elif isinstance(statement, Guarded):
            keyword = "while" if statement.kind == "while" else "if"
            self._emit(depth, f"{keyword} ({self._guard_condition(statement)}) {{")
            self._emit_block(statement.body, depth + 1)
            self._emit(depth, "}")
        elif isinstance(statement, ChoiceIf):
            reader = f"{self._choice_reader(statement.place)}()"
            last = len(statement.branches) - 1
            for index, (choice, branch) in enumerate(statement.branches):
                comparison = f"{reader} == {self._choice_macro(choice)}"
                if index == 0 and instrument:
                    # one control test per choice, like the interpreter
                    comparison = f"(qss_cycles += qss_test_cycles, {comparison})"
                if index == 0:
                    self._emit(depth, f"if ({comparison}) {{")
                elif index < last or instrument:
                    self._emit(depth, f"}} else if ({comparison}) {{")
                else:
                    self._emit(depth, "} else {")
                self._emit_block(branch, depth + 1)
            self._emit(depth, "}")
        elif isinstance(statement, CallFragment):
            fragment = self.task.fragments[statement.fragment]
            if self._is_inline(fragment):
                self._inline_stack.append(fragment.name)
                self._emit_body(fragment.body, depth)
                self._inline_stack.pop()
            else:
                self._emit(depth, f"{self._helper_fn(fragment)}();")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown IR statement {statement!r}")

    # -- task rendering ---------------------------------------------------
    def emit(self) -> List[str]:
        task_fn = self._task_fn()
        # counters
        for place, initial in sorted(self.task.counters.items()):
            self._emit(0, f"static int {self._counter(place)} = {initial};")
        if self.task.counters:
            self._emit(0, "")
        # shared fragment helpers (everything referenced more than once,
        # plus call-cycle members), forward-declared so helpers may call
        # helpers defined later
        helpers = self._helper_fragments()
        if helpers:
            for fragment in helpers:
                self._emit(0, f"static void {self._helper_fn(fragment)}(void);")
            self._emit(0, "")
        for fragment in helpers:
            self._emit(0, f"static void {self._helper_fn(fragment)}(void)")
            self._emit(0, "{")
            self._inline_stack.append(fragment.name)
            self._emit_body(fragment.body, 1)
            self._inline_stack.pop()
            self._emit(0, "}")
            self._emit(0, "")
        # the task entry function
        self._emit(0, f"void {task_fn}(void)")
        self._emit(0, "{")
        body_depth = 1
        if self.options.standalone_loop:
            self._emit(1, "while (1) {")
            body_depth = 2
        for entry in self.task.entry_fragments:
            fragment = self.task.fragments[entry]
            if self._is_inline(fragment):
                self._inline_stack.append(fragment.name)
                self._emit_body(fragment.body, body_depth)
                self._inline_stack.pop()
            else:
                # the fragment-call overhead is charged inside the helper
                self._emit(body_depth, f"{self._helper_fn(fragment)}();")
        if self.options.standalone_loop:
            self._emit(1, "}")
        self._emit(0, "}")
        return self.lines


def emit_c(program: Program, options: Optional[EmitOptions] = None) -> CEmission:
    """Emit the complete C translation unit for ``program``."""
    options = options or EmitOptions()
    transitions, choices = _collect_externs(program)
    table = _NameTable()
    names = CNames()
    # allocate the global namespace in emission order so that C-safe nets
    # get exactly the historical identifiers
    for index, transition in enumerate(transitions):
        names.choice_macros[transition] = table.assign(
            ("macro", transition), f"CHOICE_{transition.upper()}"
        )
        names.choice_values[transition] = index
    for transition in transitions:
        names.transitions[transition] = table.assign(("fn", transition), transition)
    for place in choices:
        names.choice_places[place] = table.assign(("choice", place), f"choice_{place}")

    lines: List[str] = []
    lines.append(f"/* Generated by repro.codegen for model {program.name!r}. */")
    lines.append("/* Quasi-statically scheduled implementation; one function per task. */")
    lines.append("")
    for transition in transitions:
        value = names.choice_values[transition]
        lines.append(f"#define {names.choice_macros[transition]} {value}")
    if transitions:
        lines.append("")
    for transition in transitions:
        lines.append(f"extern void {names.transitions[transition]}(void);")
    for place in choices:
        lines.append(f"extern int {names.choice_places[place]}(void);")
    if options.instrument:
        lines.append("")
        lines.append("/* cycle accounting: defined by the native driver */")
        lines.append("extern long long qss_cycles;")
        lines.append(
            "extern long long qss_call_cycles, qss_test_cycles, "
            "qss_counter_cycles, qss_tr_unit;"
        )
    lines.append("")

    for task in program.tasks:
        lines.extend(_TaskEmitter(task, options, names=table).emit())
        lines.append("")
        names.tasks[task.name] = table.get(("task", task.name))
        names.counters[task.name] = {
            place: table.get(("counter", task.name, place))
            for place in sorted(task.counters)
        }

    source = "\n".join(lines).rstrip() + "\n"
    return CEmission(
        source=source,
        lines_of_code=len(source.splitlines()),
        names=names,
    )
