"""Native execution tier: compile and run the synthesized C.

The paper's end product is generated embedded C; everywhere else in this
reproduction that C is only *printed* (:mod:`repro.codegen.emit_c`) while
execution goes through the IR interpreter
(:mod:`repro.codegen.interpreter`).  This module closes the loop: the
emitted translation unit is wrapped with a small generated driver (task
entry points, counter state access, a recorded trace of transition
firings and choice consumptions so results are observable from Python),
compiled to a shared library with the host C compiler, and loaded via
``ctypes`` behind the same activation interface as the interpreter.

Cycle accounting uses the instrumented emission mode
(``EmitOptions(instrument=True)``): the generated code charges the same
fragment-call / control-test / counter-update / transition costs as the
interpreter against runtime cost variables, which are set from the
:class:`~repro.runtime.cost.CostModel` after loading — so one cached
artifact serves every cost model.

Artifacts are cached on disk under ``~/.cache/repro-qss`` (override with
``REPRO_QSS_CACHE_DIR``), keyed by a content hash of the C source, the
compiler identity, and the flags; writes are atomic and a corrupt or
stale artifact is quarantined and rebuilt once.  A machine without a C
compiler raises :class:`NativeUnavailableError` from the capability
probe; the interpreter layer catches it and falls back with a warning,
so ``engine="native"`` degrades gracefully.

Every activation is scripted: each choice reader returns the value its
activation's ``{place: transition}`` map put in the driver's script
row, and a single activation is a one-row script.  One known,
documented divergence from the interpreter is not observable on
well-formed programs: the interpreter raises mid-activation on a
missing choice resolution or a negative counter; the compiled code
cannot unwind, so the native tier raises *after* the run (missing
resolution) or skips the negative-counter check entirely (generated
guards prevent it).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..runtime.cost import CostModel
from .emit_c import CEmission, EmitOptions, emit_c
from .interpreter import ActivationResult, missing_choice
from .ir import Block, ChoiceIf, Guarded, Program, TaskProgram

#: Bump when the generated driver's exported interface changes; baked
#: into both the artifact hash and the library itself
#: (``repro_qss_abi``), so a stale cache entry can never be misloaded.
ABI_VERSION = 3

_BASE_CFLAGS = ("-O2", "-shared", "-fPIC")

#: Trace record kinds (first int of each 3-int trace row).
_TRACE_FIRE = 0
_TRACE_CHOICE = 1
_TRACE_ACTIVATION = 2

#: Choice values outside the macro range, used by the driver protocol.
_CHOICE_UNKNOWN = -1  # resolved to a transition this program never fires
_CHOICE_MISSING = -4  # the script has no resolution for this place


class NativeUnavailableError(RuntimeError):
    """No usable C compiler on this machine (capability probe failed)."""


class NativeBuildError(RuntimeError):
    """The C compiler was found but compilation or loading failed."""


# --------------------------------------------------------------------------
# capability probe and artifact cache
# --------------------------------------------------------------------------

_probe_cache: Dict[Tuple[Optional[str], Optional[str], Optional[str]], Optional[Tuple[str, str]]] = {}


def _probe_key() -> Tuple[Optional[str], Optional[str], Optional[str]]:
    env = os.environ
    return (env.get("REPRO_QSS_CC"), env.get("CC"), env.get("PATH"))


def find_compiler() -> Tuple[str, str]:
    """Locate the C compiler; returns ``(path, identity)``.

    ``REPRO_QSS_CC`` pins (or masks) the compiler: when set, only that
    command is considered.  Otherwise ``CC``, then ``cc``/``gcc``/
    ``clang`` on ``PATH``.  The identity string (path, size, mtime) goes
    into the artifact hash — deliberately computed from ``stat`` rather
    than ``--version`` so that a warm cache needs zero compiler
    invocations.  Raises :class:`NativeUnavailableError` when nothing
    resolves.
    """
    key = _probe_key()
    if key not in _probe_cache:
        pinned = os.environ.get("REPRO_QSS_CC")
        if pinned:
            candidates = [pinned]
        else:
            candidates = []
            if os.environ.get("CC"):
                candidates.append(os.environ["CC"])
            candidates.extend(["cc", "gcc", "clang"])
        found: Optional[Tuple[str, str]] = None
        for candidate in candidates:
            path = shutil.which(candidate)
            if path is None:
                continue
            try:
                st = os.stat(path)
            except OSError:
                continue
            found = (path, f"{path}|{st.st_size}|{st.st_mtime_ns}")
            break
        _probe_cache[key] = found
    found = _probe_cache[key]
    if found is None:
        raise NativeUnavailableError(
            "no C compiler found (tried REPRO_QSS_CC, CC, cc, gcc, clang)"
        )
    return found


def native_available() -> bool:
    """True when a C compiler is available for the native tier."""
    try:
        find_compiler()
    except NativeUnavailableError:
        return False
    return True


def cache_root() -> Path:
    """Artifact cache directory (``REPRO_QSS_CACHE_DIR`` overrides)."""
    override = os.environ.get("REPRO_QSS_CACHE_DIR")
    if override:
        return Path(override)
    return Path(os.path.expanduser("~")) / ".cache" / "repro-qss"


def _compile_flags() -> List[str]:
    flags = list(_BASE_CFLAGS)
    extra = os.environ.get("REPRO_QSS_CFLAGS")
    if extra:
        flags.extend(shlex.split(extra))
    return flags


def _run_compiler(command: Sequence[str]) -> "subprocess.CompletedProcess[str]":
    """Single seam through which every compiler invocation goes (the
    cache tests count calls by patching this)."""
    return subprocess.run(command, capture_output=True, text=True)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def artifact_key(source: str) -> str:
    """Content hash identifying the cached artifact for ``source``."""
    _, compiler_id = find_compiler()
    digest = hashlib.sha256()
    for part in (f"repro-qss-native/{ABI_VERSION}", compiler_id, " ".join(_compile_flags()), source):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:32]


def build_shared_library(source: str, directory: Optional[Path] = None) -> Path:
    """Compile ``source`` to a cached shared library; return its path.

    A cache hit returns immediately without invoking the compiler.  The
    build is atomic (compile to a temp name, ``os.replace`` into place)
    so concurrent builders cannot observe a partial artifact.
    """
    compiler, _ = find_compiler()
    key = artifact_key(source)
    root = directory if directory is not None else cache_root()
    artifact = root / f"qss_{key}.so"
    if artifact.exists():
        return artifact
    root.mkdir(parents=True, exist_ok=True)
    source_path = root / f"qss_{key}.c"
    _atomic_write_text(source_path, source)
    tmp_artifact = root / f"qss_{key}.{os.getpid()}.so.tmp"
    command = [compiler, *_compile_flags(), "-o", str(tmp_artifact), str(source_path)]
    try:
        result = _run_compiler(command)
    except OSError as err:
        raise NativeBuildError(f"failed to run C compiler {compiler!r}: {err}") from err
    if result.returncode != 0:
        tail = (result.stderr or result.stdout or "").strip().splitlines()[-8:]
        raise NativeBuildError(
            "C compilation failed (exit %d):\n%s" % (result.returncode, "\n".join(tail))
        )
    os.replace(tmp_artifact, artifact)
    return artifact


# --------------------------------------------------------------------------
# driver generation
# --------------------------------------------------------------------------


@dataclass
class _Layout:
    """Index spaces shared between the generated driver and Python."""

    task_names: List[str]
    transition_names: List[str]  # index == choice macro value == fire id
    choice_places: List[str]
    counters: List[Tuple[str, str, int]]  # (task, place, initial marking)


def _layout_for(program: Program, emission: CEmission) -> _Layout:
    counters: List[Tuple[str, str, int]] = []
    for task in program.tasks:
        for place in sorted(task.counters):
            counters.append((task.name, place, task.counters[place]))
    return _Layout(
        task_names=[task.name for task in program.tasks],
        transition_names=list(emission.names.transitions),
        choice_places=list(emission.names.choice_places),
        counters=counters,
    )


def _driver_source(program: Program, emission: CEmission, layout: _Layout) -> str:
    names = emission.names
    n_tasks = len(layout.task_names)
    n_choices = len(layout.choice_places)
    n_counters = len(layout.counters)
    lines: List[str] = []
    out = lines.append
    out("")
    out("/* ==== repro-qss native driver (generated; not part of the paper's")
    out("   Section 4 listing — it makes the synthesized code observable and")
    out("   callable from the Python harness). ==== */")
    out("")
    out("#include <stdlib.h>")
    out("#include <string.h>")
    out("")
    out("long long qss_cycles = 0;")
    out("long long qss_call_cycles = 0;")
    out("long long qss_test_cycles = 0;")
    out("long long qss_counter_cycles = 0;")
    out("long long qss_tr_unit = 0;")
    out("")
    out(f"static int qss_choice_current[{max(n_choices, 1)}];")
    out("static int *qss_trace = 0;")
    out("static long qss_trace_cap = 0;")
    out("static long qss_trace_used = 0;")
    out("static int qss_trace_oom = 0;")
    out("")
    out("static void qss_trace_put(int kind, int a, int b)")
    out("{")
    out("    if (qss_trace_oom) return;")
    out("    if (qss_trace_used + 3 > qss_trace_cap) {")
    out("        long cap = qss_trace_cap ? qss_trace_cap * 2 : 4096;")
    out("        int *grown = (int *) realloc(qss_trace, (size_t) cap * sizeof(int));")
    out("        if (!grown) { qss_trace_oom = 1; return; }")
    out("        qss_trace = grown;")
    out("        qss_trace_cap = cap;")
    out("    }")
    out("    qss_trace[qss_trace_used] = kind;")
    out("    qss_trace[qss_trace_used + 1] = a;")
    out("    qss_trace[qss_trace_used + 2] = b;")
    out("    qss_trace_used += 3;")
    out("}")
    out("")
    out("/* transition bodies: record the firing (cycles are charged at the")
    out("   call site, where the per-transition cost is known statically) */")
    for index, transition in enumerate(layout.transition_names):
        out(f"void {names.transitions[transition]}(void)")
        out("{")
        out(f"    qss_trace_put({_TRACE_FIRE}, {index}, 0);")
        out("}")
        out("")
    out("/* choice readers: the activation's scripted value, traced */")
    for index, place in enumerate(layout.choice_places):
        out(f"int {names.choice_places[place]}(void)")
        out("{")
        out(f"    int value = qss_choice_current[{index}];")
        out(f"    qss_trace_put({_TRACE_CHOICE}, {index}, value);")
        out("    return value;")
        out("}")
        out("")
    out(f"int repro_qss_abi(void) {{ return {ABI_VERSION}; }}")
    out(f"int repro_qss_task_count(void) {{ return {n_tasks}; }}")
    out(f"int repro_qss_choice_count(void) {{ return {n_choices}; }}")
    out(f"int repro_qss_transition_count(void) {{ return {len(layout.transition_names)}; }}")
    out(f"int repro_qss_counter_count(void) {{ return {n_counters}; }}")
    out("")
    counter_idents = [
        names.counters[task][place] for task, place, _ in layout.counters
    ]
    out("void repro_qss_counters_read(int *out)")
    out("{")
    for index, ident in enumerate(counter_idents):
        out(f"    out[{index}] = {ident};")
    out("    (void) out;")
    out("}")
    out("")
    out("void repro_qss_counters_write(const int *in)")
    out("{")
    for index, ident in enumerate(counter_idents):
        out(f"    {ident} = in[{index}];")
    out("    (void) in;")
    out("}")
    out("")
    out("void repro_qss_reset(void)")
    out("{")
    for (task, place, initial), ident in zip(layout.counters, counter_idents):
        out(f"    {ident} = {initial};")
    out("    qss_cycles = 0;")
    out("    qss_trace_used = 0;")
    out("    qss_trace_oom = 0;")
    out("}")
    out("")
    out("void repro_qss_set_costs(long long call, long long test, long long counter,")
    out("                         long long transition_unit)")
    out("{")
    out("    qss_call_cycles = call;")
    out("    qss_test_cycles = test;")
    out("    qss_counter_cycles = counter;")
    out("    qss_tr_unit = transition_unit;")
    out("}")
    out("")
    out("long repro_qss_trace_len(void) { return qss_trace_used; }")
    out("void repro_qss_trace_clear(void) { qss_trace_used = 0; qss_trace_oom = 0; }")
    out("")
    out("void repro_qss_trace_copy(int *out)")
    out("{")
    out("    if (qss_trace_used)")
    out("        memcpy(out, qss_trace, (size_t) qss_trace_used * sizeof(int));")
    out("}")
    out("")
    out("int repro_qss_run(int task, long n, const int *script, long long *cycles_out)")
    out("{")
    out("    long i;")
    out(f"    if (task < 0 || task >= {n_tasks}) return -1;")
    out("    for (i = 0; i < n; i++) {")
    out("        long long before;")
    if n_choices:
        out("        if (script) {")
        out("            int j;")
        out(f"            for (j = 0; j < {n_choices}; j++)")
        out(f"                qss_choice_current[j] = script[i * {n_choices} + j];")
        out("        }")
    else:
        out("        (void) script;")
    out(f"        qss_trace_put({_TRACE_ACTIVATION}, (int) i, 0);")
    out("        before = qss_cycles;")
    out("        switch (task) {")
    for index, task_name in enumerate(layout.task_names):
        out(f"        case {index}: {names.tasks[task_name]}(); break;")
    out("        }")
    out("        if (cycles_out) cycles_out[i] = qss_cycles - before;")
    out("        if (qss_trace_oom) return -2;")
    out("    }")
    out("    return 0;")
    out("}")
    return "\n".join(lines) + "\n"


def _native_unit(program: Program) -> Tuple[CEmission, _Layout, str]:
    """The instrumented emission, its layout and the complete native
    translation unit (the emission plus the generated driver)."""
    emission = emit_c(program, EmitOptions(instrument=True))
    layout = _layout_for(program, emission)
    return emission, layout, emission.source + _driver_source(program, emission, layout)


def native_source(program: Program) -> str:
    """The complete native translation unit: instrumented emission plus
    the generated driver (what ``repro-qss synthesize --driver``
    writes)."""
    return _native_unit(program)[2]


def task_choice_branches(task: TaskProgram) -> Dict[str, Tuple[str, ...]]:
    """Choice places evaluated by ``task`` mapped to their branch
    transitions — the alphabet a scripted choice stream must cover."""
    branches: Dict[str, Set[str]] = {}

    def walk(block: Block) -> None:
        for statement in block:
            if isinstance(statement, Guarded):
                walk(statement.body)
            elif isinstance(statement, ChoiceIf):
                bucket = branches.setdefault(statement.place, set())
                for choice, branch in statement.branches:
                    bucket.add(choice)
                    walk(branch)

    for fragment in task.fragments.values():
        walk(fragment.body)
    return {place: tuple(sorted(options)) for place, options in sorted(branches.items())}


# --------------------------------------------------------------------------
# library loading
# --------------------------------------------------------------------------

_INT_P = ctypes.POINTER(ctypes.c_int)
_LONGLONG_P = ctypes.POINTER(ctypes.c_longlong)


class _AbiMismatch(Exception):
    pass


def _load_private(artifact: Path) -> ctypes.CDLL:
    """dlopen a *private copy* of the artifact.

    ``dlopen`` dedupes by path, so loading the cached ``.so`` twice
    would share one set of static counters between executors.  Each
    load therefore copies the artifact to a fresh temp file, opens it,
    and unlinks the copy (the mapping survives the unlink on POSIX).
    """
    fd, tmp_name = tempfile.mkstemp(prefix="repro-qss-", suffix=".so")
    try:
        with os.fdopen(fd, "wb") as tmp:
            with open(artifact, "rb") as src:
                shutil.copyfileobj(src, tmp)
        return ctypes.CDLL(tmp_name)
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - best effort
            pass


def _bind(lib: ctypes.CDLL, layout: _Layout) -> ctypes.CDLL:
    lib.repro_qss_abi.restype = ctypes.c_int
    lib.repro_qss_task_count.restype = ctypes.c_int
    lib.repro_qss_choice_count.restype = ctypes.c_int
    lib.repro_qss_transition_count.restype = ctypes.c_int
    lib.repro_qss_counter_count.restype = ctypes.c_int
    lib.repro_qss_counters_read.argtypes = [_INT_P]
    lib.repro_qss_counters_write.argtypes = [_INT_P]
    lib.repro_qss_reset.restype = None
    lib.repro_qss_set_costs.argtypes = [
        ctypes.c_longlong,
        ctypes.c_longlong,
        ctypes.c_longlong,
        ctypes.c_longlong,
    ]
    lib.repro_qss_trace_len.restype = ctypes.c_long
    lib.repro_qss_trace_copy.argtypes = [_INT_P]
    lib.repro_qss_run.argtypes = [ctypes.c_int, ctypes.c_long, _INT_P, _LONGLONG_P]
    lib.repro_qss_run.restype = ctypes.c_int
    if lib.repro_qss_abi() != ABI_VERSION:
        raise _AbiMismatch("driver ABI mismatch")
    if (
        lib.repro_qss_task_count() != len(layout.task_names)
        or lib.repro_qss_choice_count() != len(layout.choice_places)
        or lib.repro_qss_transition_count() != len(layout.transition_names)
        or lib.repro_qss_counter_count() != len(layout.counters)
    ):
        raise _AbiMismatch("driver layout mismatch")
    return lib


# --------------------------------------------------------------------------
# executors
# --------------------------------------------------------------------------


def _activation_from_trace(
    task: str,
    cycles: int,
    trace: Sequence[int],
    start: int,
    stop: int,
    layout: _Layout,
    choices: Optional[Mapping[str, str]],
) -> ActivationResult:
    """One activation's result from its trace records ``trace[start:stop]``
    (a flat int list of ``(kind, a, b)`` triples after its activation
    marker).

    A choice resolved to a transition of the program is named from the
    trace; one resolved outside the program takes its name from
    ``choices`` (left out when the script came without its maps).
    """
    names = layout.transition_names
    places = layout.choice_places
    fired: List[str] = []
    taken: Dict[str, str] = {}
    for k in range(start, stop, 3):
        a = trace[k + 1]
        if trace[k] == _TRACE_FIRE:
            fired.append(names[a])
            continue
        value = trace[k + 2]
        if value >= 0:
            taken[places[a]] = names[value]
        elif value == _CHOICE_MISSING:
            raise missing_choice(places[a])
        elif choices is not None:
            taken[places[a]] = choices[places[a]]
    return ActivationResult(task, cycles, fired, taken)


class NativeBatchResult:
    """Outcome of a scripted multi-activation run.

    The raw trace (a flat ``(kind, a, b)`` int32 array) and the
    per-activation cycle counts are captured eagerly; the per-activation
    :class:`~repro.codegen.interpreter.ActivationResult` list is
    materialized lazily on first access to :attr:`results` — sustained
    runs that only need aggregate numbers skip the Python-object cost
    entirely (same idea as the compiled reachability graph's lazy named
    views).
    """

    def __init__(
        self,
        task_name: str,
        layout: _Layout,
        trace: np.ndarray,
        cycles: np.ndarray,
        choice_names: Optional[Sequence[Mapping[str, str]]],
    ) -> None:
        self.task_name = task_name
        self._layout = layout
        self.trace = trace.reshape(-1, 3)
        self.cycles = cycles
        self._choice_names = choice_names
        self._results: Optional[List[ActivationResult]] = None

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def total_cycles(self) -> int:
        return int(self.cycles.sum())

    @property
    def results(self) -> List[ActivationResult]:
        """Per-activation :class:`ActivationResult` list (lazy)."""
        if self._results is None:
            markers = np.flatnonzero(self.trace[:, 0] == _TRACE_ACTIVATION)
            starts = (3 * markers + 3).tolist()
            stops = (3 * markers).tolist()[1:] + [self.trace.size]
            trace = self.trace.ravel().tolist()
            cycles = self.cycles.tolist()
            maps = self._choice_names
            self._results = [
                _activation_from_trace(
                    self.task_name,
                    cycles[index],
                    trace,
                    start,
                    stop,
                    self._layout,
                    maps[index] if maps is not None else None,
                )
                for index, (start, stop) in enumerate(zip(starts, stops))
            ]
        return self._results


class NativeProgram:
    """A synthesized program compiled to a shared library.

    One instance owns one private copy of the library (its own static
    counter state) plus the Python-side index maps; per-task access goes
    through :meth:`task_backend`.
    """

    def __init__(
        self,
        program: Program,
        cost_model: Optional[CostModel] = None,
        directory: Optional[Path] = None,
    ) -> None:
        self.program = program
        self.cost = cost_model or CostModel()
        self.emission, self.layout, self.source = _native_unit(program)
        self.artifact = build_shared_library(self.source, directory)
        try:
            self._lib = _bind(_load_private(self.artifact), self.layout)
        except (OSError, _AbiMismatch) as err:
            # corrupt or stale artifact: quarantine and rebuild once
            try:
                self.artifact.unlink()
            except OSError:  # pragma: no cover - best effort
                pass
            self.artifact = build_shared_library(self.source, directory)
            try:
                self._lib = _bind(_load_private(self.artifact), self.layout)
            except (OSError, _AbiMismatch) as second:
                raise NativeBuildError(
                    f"artifact failed to load even after a rebuild: {second}"
                ) from err
        self._task_ids = {name: i for i, name in enumerate(self.layout.task_names)}
        self._choice_ids = {p: i for i, p in enumerate(self.layout.choice_places)}
        self._choice_values = self.emission.names.choice_values
        self._counter_slices: Dict[str, slice] = {}
        start = 0
        for task in program.tasks:
            width = len(task.counters)
            self._counter_slices[task.name] = slice(start, start + width)
            start += width
        self._counter_places = [place for _, place, _ in self.layout.counters]
        self._initials = np.array(
            [initial for _, _, initial in self.layout.counters], dtype=np.int32
        )
        self._n_counters = len(self.layout.counters)
        width = max(len(self.layout.choice_places), 1)
        self._blank_row = [_CHOICE_MISSING] * width
        # single activations reuse these ctypes buffers, so they build
        # no numpy arrays per call
        self._row = (ctypes.c_int * width)()
        self._row_cycles = (ctypes.c_longlong * 1)()
        self._trace = (ctypes.c_int * 4096)()
        self.set_cost_model(self.cost)

    # -- configuration -----------------------------------------------------
    def set_cost_model(self, cost_model: CostModel) -> None:
        self.cost = cost_model
        self._lib.repro_qss_set_costs(
            cost_model.call_cycles,
            cost_model.test_cycles,
            cost_model.counter_cycles,
            cost_model.transition_cycles,
        )

    # -- state -------------------------------------------------------------
    def read_counters(self) -> np.ndarray:
        buffer = np.zeros(max(self._n_counters, 1), dtype=np.int32)
        self._lib.repro_qss_counters_read(buffer.ctypes.data_as(_INT_P))
        return buffer[: self._n_counters]

    def write_counters(self, values: np.ndarray) -> None:
        buffer = np.ascontiguousarray(values, dtype=np.int32)
        self._lib.repro_qss_counters_write(buffer.ctypes.data_as(_INT_P))

    def reset(self) -> None:
        self._lib.repro_qss_reset()

    # -- execution ---------------------------------------------------------
    def _script_row(self, choices: Mapping[str, str]) -> List[int]:
        """One activation's script row: a choice value per choice place of
        the program (``_CHOICE_MISSING`` where ``choices`` has none)."""
        row = list(self._blank_row)
        ids = self._choice_ids
        values = self._choice_values
        for place, chosen in choices.items():
            column = ids.get(place)
            if column is not None:
                row[column] = values.get(chosen, _CHOICE_UNKNOWN)
        return row

    def _run(self, task_id: int, n: int, script, cycles) -> int:
        """Invoke the driver loop over ``n`` script rows, writing each
        activation's cycles to ``cycles``; returns the trace length."""
        lib = self._lib
        lib.repro_qss_trace_clear()
        status = lib.repro_qss_run(task_id, n, script, cycles)
        if status == -2:
            raise MemoryError("native trace buffer allocation failed")
        if status != 0:  # pragma: no cover - defensive
            raise RuntimeError(f"native driver returned status {status}")
        return lib.repro_qss_trace_len()

    def _run_one(self, task_id: int, choices: Mapping[str, str]) -> Tuple[List[int], int]:
        """One activation as a one-row script; returns ``(trace as a
        flat int list, cycles)``."""
        self._row[:] = self._script_row(choices)
        length = self._run(task_id, 1, self._row, self._row_cycles)
        if length > len(self._trace):
            self._trace = (ctypes.c_int * (2 * length))()
        self._lib.repro_qss_trace_copy(self._trace)
        return self._trace[:length], self._row_cycles[0]

    def _run_batch(self, task_id: int, script: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One activation per script row; returns ``(trace, cycles)``
        as int32 and int64 arrays."""
        width = len(self._blank_row)
        if script.shape[1:] != (width,):
            raise ValueError(f"script rows must have {width} columns, got {script.shape}")
        cycles = np.zeros(len(script), dtype=np.int64)
        length = self._run(
            task_id,
            len(script),
            script.ctypes.data_as(_INT_P),
            cycles.ctypes.data_as(_LONGLONG_P),
        )
        trace = np.zeros(max(length, 1), dtype=np.int32)
        if length:
            self._lib.repro_qss_trace_copy(trace.ctypes.data_as(_INT_P))
        return trace[:length], cycles

    def task_backend(self, task_name: str) -> "NativeTaskBackend":
        task = self.program.task(task_name)
        return NativeTaskBackend(self, task)


class NativeTaskBackend:
    """Per-task view of a :class:`NativeProgram`: the native counterpart
    of :class:`~repro.codegen.interpreter.TaskExecutor`'s storage and
    activation machinery."""

    def __init__(self, native: NativeProgram, task: TaskProgram) -> None:
        self.native = native
        self.task = task
        self.task_id = native._task_ids[task.name]
        self._slice = native._counter_slices[task.name]
        self._places = native._counter_places[self._slice]

    # -- state -------------------------------------------------------------
    @property
    def counters(self) -> Dict[str, int]:
        values = self.native.read_counters()[self._slice]
        return {place: int(value) for place, value in zip(self._places, values)}

    @counters.setter
    def counters(self, values: Mapping[str, int]) -> None:
        """Set this task's counters (0 where ``values`` has none)."""
        current = self.native.read_counters()
        current[self._slice] = [values.get(place, 0) for place in self._places]
        self.native.write_counters(current)

    def reset(self) -> None:
        current = self.native.read_counters()
        current[self._slice] = self.native._initials[self._slice]
        self.native.write_counters(current)

    # -- execution ---------------------------------------------------------
    def activate(self, choices: Mapping[str, str]) -> ActivationResult:
        """One activation, run as a one-row script (interpreter-compatible)."""
        native = self.native
        trace, cycles = native._run_one(self.task_id, choices)
        return _activation_from_trace(
            self.task.name, cycles, trace, 3, len(trace), native.layout, choices
        )

    def encode_script(
        self, choice_maps: Sequence[Mapping[str, str]]
    ) -> np.ndarray:
        """Pack per-activation choice resolutions into the driver's
        scripted form (one int32 row per activation, one column per
        choice place of the whole program)."""
        rows = [self.native._script_row(mapping) for mapping in choice_maps]
        return np.array(rows, dtype=np.int32).reshape(
            len(rows), len(self.native._blank_row)
        )

    def run_scripted(
        self, script: Union[np.ndarray, Sequence[Mapping[str, str]]]
    ) -> NativeBatchResult:
        """Run a batch of scripted activations in one native call.

        ``script`` is either a sequence of per-activation
        ``{place: transition}`` maps or a pre-encoded int32 array from
        :meth:`encode_script` (benchmarks pre-encode outside the timed
        region).  Raises ``KeyError``, as the interpreter does, if an
        activation consults a choice place its map does not resolve,
        after the batch completes.
        """
        if isinstance(script, np.ndarray):
            encoded = np.ascontiguousarray(script, dtype=np.int32)
            choice_names = None
        else:
            encoded = self.encode_script(script)
            choice_names = script
        trace, cycles = self.native._run_batch(self.task_id, encoded)
        rows = trace.reshape(-1, 3)
        missing = (rows[:, 0] == _TRACE_CHOICE) & (rows[:, 2] == _CHOICE_MISSING)
        if missing.any():
            place = self.native.layout.choice_places[int(rows[missing][0, 1])]
            raise missing_choice(place)
        return NativeBatchResult(
            self.task.name, self.native.layout, trace, cycles, choice_names
        )

    def activate_many(
        self, choice_maps: Sequence[Mapping[str, str]]
    ) -> List[ActivationResult]:
        """Scripted batch, materialized to per-activation results."""
        return self.run_scripted(choice_maps).results


def native_task_backend(
    task: TaskProgram,
    cost_model: Optional[CostModel] = None,
    directory: Optional[Path] = None,
) -> NativeTaskBackend:
    """Compile a single task (wrapped in a one-task program) and return
    its backend — the entry point :class:`TaskExecutor` uses."""
    program = Program(name=f"{task.name}.solo", tasks=[task])
    return NativeProgram(program, cost_model, directory).task_backend(task.name)
