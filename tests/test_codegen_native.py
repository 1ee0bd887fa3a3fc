"""Native execution tier: differential, artifact-cache, fallback and
identifier-mangling tests.

The differential suite pins the tentpole guarantee: ``engine="native"``
(the synthesized C compiled to a shared library) produces step-for-step
identical firing sequences, choice consumption, counter trajectories
and cycle charges to the IR interpreter, on the paper gallery and on a
corpus-seeded net population, under identical scripted choice streams.

Everything that needs a C compiler is skipped (not failed) when the
machine has none — the fallback tests below prove that configuration
still executes correctly through the interpreter.
"""

from __future__ import annotations

import random
import re

import numpy as np
import pytest

import repro.codegen.native as native_mod
from repro.codegen import (
    CodegenError,
    NativeProgram,
    ProgramExecutor,
    TaskExecutor,
    emit_c,
    EmitOptions,
    native_available,
    native_source,
    synthesize,
    task_choice_branches,
)
from repro.codegen.emit_c import _NameTable, sanitize_identifier
from repro.gallery import figure3a_schedulable, figure4_weighted, figure5_two_inputs
from repro.petrinet import NetBuilder
from repro.petrinet.corpus import generate_corpus
from repro.qss import analyse, compute_valid_schedule
from repro.runtime import RTOS, CostModel

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no C compiler on this machine"
)

#: A non-default cost model, so cycle parity is not an accident of the
#: default constants (and the cost-model-independent artifact cache is
#: exercised: both models share one compiled library).
ODD_COSTS = CostModel(
    transition_cycles=7, test_cycles=3, counter_cycles=5, call_cycles=11
)


def scripted_maps(task, activations, seed, outside="elsewhere"):
    """Seeded random choice streams over the task's choice alphabet.

    One map in ~6 also resolves a choice to a transition *outside* the
    task's branches (the data selected an alternative handled elsewhere)
    — the case where the paper's catch-all ``else`` and the interpreter
    disagree, which the native tier's explicit choice tail fixes.
    """
    branches = task_choice_branches(task)
    rng = random.Random(seed)
    maps = []
    for _ in range(activations):
        mapping = {}
        for place, options in branches.items():
            pool = list(options) + [outside]
            mapping[place] = rng.choice(pool)
        maps.append(mapping)
    return maps


def assert_native_matches_interpreter(task, maps, cost_model=None):
    """Step-for-step differential run of one task under both engines."""
    interp = TaskExecutor(task, cost_model)
    native = TaskExecutor(task, cost_model, engine="native")
    assert native.engine == "native"
    assert native.active_engine == "native"
    assert native.native_backend is not None
    for step, mapping in enumerate(maps):
        expected = interp.activate(mapping)
        actual = native.activate(mapping)
        assert actual.task == expected.task
        assert actual.fired == expected.fired, f"step {step}: firing sequences differ"
        assert actual.choices_taken == expected.choices_taken, (
            f"step {step}: choice consumption differs"
        )
        assert actual.cycles == expected.cycles, f"step {step}: cycles differ"
        assert native.counters == interp.counters, (
            f"step {step}: counter trajectories differ"
        )
    # the scripted batch path must agree with the sequential path
    interp.reset()
    native.reset()
    batch = native.activate_many(maps)
    sequential = interp.activate_many(maps)
    assert len(batch) == len(sequential)
    for expected, actual in zip(sequential, batch):
        assert actual.fired == expected.fired
        assert actual.choices_taken == expected.choices_taken
        assert actual.cycles == expected.cycles
    assert native.counters == interp.counters


@pytest.fixture(scope="module")
def corpus_programs():
    """Schedulable, synthesizable corpus-seeded programs (>= 10)."""
    families = [
        "pipeline",
        "choice_fan",
        "independent_choices",
        "nested_choices",
        "multirate_choice",
        "random_marked_graph",
        "producer_consumer_ring",
        "fork_join_pipeline",
        "unbalanced_choice",
    ]
    programs = []
    for spec in generate_corpus(27, seed=11, families=families):
        net = spec.build()
        report = analyse(net)
        if not report.schedulable or report.schedule is None:
            continue
        try:
            program = synthesize(report.schedule)
        except CodegenError:
            continue
        if program.task_count == 0:
            continue
        programs.append((f"{spec.family}/{spec.seed}", program))
        if len(programs) >= 14:
            break
    assert len(programs) >= 10
    return programs


@needs_cc
class TestDifferentialGallery:
    @pytest.mark.parametrize(
        "build", [figure3a_schedulable, figure4_weighted, figure5_two_inputs]
    )
    def test_gallery_nets_step_for_step(self, build):
        program = synthesize(compute_valid_schedule(build()))
        for index, task in enumerate(program.tasks):
            maps = scripted_maps(task, 120, seed=500 + index)
            assert_native_matches_interpreter(task, maps)

    def test_figure4_with_odd_cost_model(self, fig4):
        program = synthesize(compute_valid_schedule(fig4))
        (task,) = program.tasks
        assert_native_matches_interpreter(
            task, scripted_maps(task, 80, seed=7), cost_model=ODD_COSTS
        )

    def test_atm_program_step_for_step(self, atm_report):
        program = synthesize(atm_report.schedule)
        for index, task in enumerate(program.tasks):
            maps = scripted_maps(task, 60, seed=900 + index)
            assert_native_matches_interpreter(task, maps)

    def test_atm_rtos_stats_identical(self, atm_report, atm_events_small):
        program = synthesize(atm_report.schedule)
        compiled = RTOS(program, engine="compiled").run(atm_events_small)
        native = RTOS(program, engine="native").run(atm_events_small)
        assert native.total_cycles == compiled.total_cycles
        assert native.body_cycles == compiled.body_cycles
        assert native.firings == compiled.firings
        assert native.activations == compiled.activations


@needs_cc
class TestDifferentialCorpus:
    def test_corpus_programs_step_for_step(self, corpus_programs):
        assert len(corpus_programs) >= 10
        for rank, (label, program) in enumerate(corpus_programs):
            for index, task in enumerate(program.tasks):
                maps = scripted_maps(task, 40, seed=1_000 + 37 * rank + index)
                try:
                    assert_native_matches_interpreter(task, maps)
                except AssertionError as err:  # pragma: no cover - diagnostics
                    raise AssertionError(f"{label}, task {task.name}: {err}") from err


@needs_cc
class TestNativeSemantics:
    def test_missing_resolution_raises_keyerror(self, fig4):
        program = synthesize(compute_valid_schedule(fig4))
        executor = ProgramExecutor(program, engine="native")
        with pytest.raises(KeyError, match="choice place 'p1'"):
            executor.activate_source("t1", {})

    def test_missing_resolution_in_batch_raises_keyerror(self, fig4):
        program = synthesize(compute_valid_schedule(fig4))
        (task,) = program.tasks
        executor = TaskExecutor(task, engine="native")
        with pytest.raises(KeyError, match="choice place 'p1'"):
            executor.activate_many([{"p1": "t2"}, {}])

    def test_script_of_the_wrong_width_is_refused(self, fig4):
        program = synthesize(compute_valid_schedule(fig4))
        (task,) = program.tasks
        backend = TaskExecutor(task, engine="native").native_backend
        assert backend.encode_script([{"p1": "t2"}]).shape == (1, 1)
        with pytest.raises(ValueError, match="1 columns"):
            backend.run_scripted(np.full((2, 3), -4, dtype=np.int32))

    def test_counters_survive_and_can_be_set(self, fig4):
        program = synthesize(compute_valid_schedule(fig4))
        (task,) = program.tasks
        executor = TaskExecutor(task, engine="native")
        executor.activate({"p1": "t2"})
        assert executor.counters["p2"] == 1
        executor.counters = {"p2": 5, "p3": 0}
        assert executor.counters == {"p2": 5, "p3": 0}
        executor.reset()
        assert executor.counters == {"p2": 0, "p3": 0}

    def test_program_executor_shares_one_artifact(self, fig5):
        program = synthesize(compute_valid_schedule(fig5))
        executor = ProgramExecutor(program, engine="native")
        assert executor.native_program is not None
        backends = [t.native_backend for t in executor.tasks.values()]
        assert all(b is not None for b in backends)
        assert len({id(b.native) for b in backends}) == 1

    def test_two_executors_have_independent_state(self, fig4):
        program = synthesize(compute_valid_schedule(fig4))
        (task,) = program.tasks
        first = TaskExecutor(task, engine="native")
        second = TaskExecutor(task, engine="native")
        first.activate({"p1": "t2"})
        assert first.counters["p2"] == 1
        assert second.counters["p2"] == 0

    def test_batch_result_aggregates(self, fig4):
        program = synthesize(compute_valid_schedule(fig4))
        (task,) = program.tasks
        executor = TaskExecutor(task, engine="native")
        maps = scripted_maps(task, 50, seed=3)
        batch = executor.native_backend.run_scripted(maps)
        results = batch.results
        assert batch.total_cycles == sum(r.cycles for r in results)
        assert len(batch) == len(results) == 50


@pytest.mark.parametrize(
    "engine", ["legacy", "compiled", pytest.param("native", marks=needs_cc)]
)
def test_counters_setter_agrees_across_engines(fig4, engine):
    """Assigning ``counters`` keeps every declared counter (0 where the
    mapping has none) and refuses a place the task does not declare."""
    program = synthesize(compute_valid_schedule(fig4))
    (task,) = program.tasks
    executor = TaskExecutor(task, engine=engine)
    assert executor.active_engine == engine
    executor.counters = {}
    assert executor.counters == {"p2": 0, "p3": 0}
    executor.counters = {"p3": 4}
    assert executor.counters == {"p2": 0, "p3": 4}
    with pytest.raises(KeyError) as raised:
        executor.counters = {"no_such_place": 3}
    assert raised.value.args == (
        f"task {task.name!r} has no counter for place 'no_such_place'",
    )
    assert executor.counters == {"p2": 0, "p3": 4}


class TestArtifactCache:
    """Cold build / warm hit / key change / corruption / dir override.

    These tests count compiler invocations through the single
    ``_run_compiler`` seam and isolate the cache in a temp directory via
    ``REPRO_QSS_CACHE_DIR``.
    """

    @pytest.fixture
    def compile_counter(self, monkeypatch):
        calls = []
        original = native_mod._run_compiler

        def counting(command):
            calls.append(list(command))
            return original(command)

        monkeypatch.setattr(native_mod, "_run_compiler", counting)
        return calls

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QSS_CACHE_DIR", str(tmp_path))
        return tmp_path

    @pytest.fixture
    def fig4_program(self, fig4):
        return synthesize(compute_valid_schedule(fig4))

    @needs_cc
    def test_cold_build_then_warm_hit(self, fig4_program, cache_dir, compile_counter):
        NativeProgram(fig4_program)
        assert len(compile_counter) == 1
        assert list(cache_dir.glob("qss_*.so"))
        # second program over the unchanged net: zero compiler invocations
        NativeProgram(fig4_program)
        assert len(compile_counter) == 1

    @needs_cc
    def test_key_changes_with_source(self, fig4_program, fig5, cache_dir, compile_counter):
        NativeProgram(fig4_program)
        NativeProgram(synthesize(compute_valid_schedule(fig5)))
        assert len(compile_counter) == 2
        assert len(list(cache_dir.glob("qss_*.so"))) == 2

    @needs_cc
    def test_key_changes_with_options(
        self, fig4_program, cache_dir, compile_counter, monkeypatch
    ):
        NativeProgram(fig4_program)
        monkeypatch.setenv("REPRO_QSS_CFLAGS", "-O1")
        NativeProgram(fig4_program)
        assert len(compile_counter) == 2
        assert len(list(cache_dir.glob("qss_*.so"))) == 2

    @needs_cc
    def test_corrupt_artifact_triggers_rebuild(
        self, fig4_program, cache_dir, compile_counter
    ):
        NativeProgram(fig4_program)
        (artifact,) = cache_dir.glob("qss_*.so")
        artifact.write_bytes(b"this is not a shared library")
        program = NativeProgram(fig4_program)
        assert len(compile_counter) == 2
        # the rebuilt artifact actually executes
        backend = program.task_backend(program.program.tasks[0].name)
        result = backend.activate({"p1": "t2"})
        assert result.fired == ["t1", "t2"]

    @needs_cc
    def test_cache_dir_override_respected(self, fig4_program, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QSS_CACHE_DIR", str(tmp_path / "deep" / "cache"))
        NativeProgram(fig4_program)
        assert list((tmp_path / "deep" / "cache").glob("qss_*.so"))

    def test_no_compiler_probe_fails(self, monkeypatch):
        monkeypatch.setenv("REPRO_QSS_CC", "/nonexistent-compiler")
        assert not native_mod.native_available()
        with pytest.raises(native_mod.NativeUnavailableError):
            native_mod.find_compiler()


class TestInterpreterFallback:
    """A machine with no C compiler must keep working through the
    interpreter, with a clear warning."""

    @pytest.fixture
    def no_compiler(self, monkeypatch):
        monkeypatch.setenv("REPRO_QSS_CC", "/nonexistent-compiler")

    def test_task_executor_falls_back_with_warning(self, fig4, no_compiler):
        program = synthesize(compute_valid_schedule(fig4))
        (task,) = program.tasks
        with pytest.warns(RuntimeWarning, match="falling back"):
            executor = TaskExecutor(task, engine="native")
        assert executor.engine == "native"
        assert executor.active_engine == "compiled"
        assert executor.native_backend is None
        reference = TaskExecutor(task)
        for mapping in ({"p1": "t2"}, {"p1": "t2"}, {"p1": "t3"}):
            expected = reference.activate(mapping)
            actual = executor.activate(mapping)
            assert actual.fired == expected.fired
            assert actual.cycles == expected.cycles

    def test_program_executor_falls_back_with_warning(self, fig5, no_compiler):
        program = synthesize(compute_valid_schedule(fig5))
        with pytest.warns(RuntimeWarning, match="native execution tier unavailable"):
            executor = ProgramExecutor(program, engine="native")
        assert executor.active_engine == "compiled"
        assert executor.native_program is None
        result = executor.activate_source("t8", {})
        assert result.fired == ["t8", "t9", "t6"]

    def test_rtos_falls_back_and_matches_compiled(
        self, atm_report, atm_events_small, no_compiler
    ):
        program = synthesize(atm_report.schedule)
        with pytest.warns(RuntimeWarning):
            stats = RTOS(program, engine="native").run(atm_events_small)
        reference = RTOS(program, engine="compiled").run(atm_events_small)
        assert stats.total_cycles == reference.total_cycles
        assert stats.firings == reference.firings


def weird_name_chain():
    """A schedulable pipeline whose names are hostile to C: dashes,
    spaces, leading digits, a C keyword, and a reserved prefix."""
    return (
        NetBuilder("weird names")
        .source("1st-read")
        .place("qss_cycles")
        .arc("1st-read", "p mid")
        .arc("p mid", "do-stuff")
        .arc("do-stuff", "p out-2")
        .arc("p out-2", "while")
        .arc("while", "qss_cycles")
        .arc("qss_cycles", "2nd emit")
        .build()
    )


def case_collision_choice():
    """A free-choice net whose branch transitions collide after the
    ``CHOICE_<NAME.upper()>`` macro mangling (``go`` vs ``GO``)."""
    return (
        NetBuilder("case-collision")
        .source("t in")
        .arc("t in", "p choice")
        .arc("p choice", "go")
        .arc("p choice", "GO")
        .arc("go", "p-a")
        .arc("p-a", "end-a")
        .arc("GO", "p-b")
        .arc("p-b", "end-b")
        .build()
    )


_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class TestIdentifierMangling:
    def test_sanitize_identifier(self):
        assert sanitize_identifier("t1") == "t1"
        assert sanitize_identifier("do-stuff") == "do_stuff"
        assert sanitize_identifier("p mid") == "p_mid"
        assert sanitize_identifier("2nd emit") == "n2nd_emit"
        assert sanitize_identifier("") == "_"

    def test_name_table_is_collision_proof_and_stable(self):
        table = _NameTable()
        first = table.assign(("fn", "t-x"), "t-x")
        second = table.assign(("fn", "t_x"), "t_x")
        assert first == "t_x"
        assert second == "t_x_2"
        assert table.assign(("fn", "t-x"), "t-x") == first  # stable
        assert table.assign(("fn", "while"), "while") != "while"  # C keyword
        assert not table.assign(("fn", "qss_cycles"), "qss_cycles").startswith("qss_")

    @pytest.mark.parametrize("build", [weird_name_chain, case_collision_choice])
    def test_emission_uses_only_valid_unique_identifiers(self, build):
        program = synthesize(compute_valid_schedule(build()))
        source = emit_c(program).source
        assert source.count("{") == source.count("}")
        statics = re.findall(r"static int (\S+) =", source)
        assert len(statics) == len(set(statics))
        for match in re.findall(r"#define (\S+)|extern \w+ (\w+)\(", source):
            for ident in match:
                if ident:
                    assert _IDENTIFIER.match(ident), ident

    def test_case_collision_macros_are_distinct(self):
        program = synthesize(compute_valid_schedule(case_collision_choice()))
        names = emit_c(program).names
        macros = list(names.choice_macros.values())
        assert len(macros) == len(set(macros))
        assert "CHOICE_GO" in macros and "CHOICE_GO_2" in macros

    def test_cross_task_counter_collision_resolved(self, atm_report):
        """Regression: both ATM tasks count p_wfq_ctx; the emission used
        to define ``count_p_wfq_ctx`` twice at file scope."""
        program = synthesize(atm_report.schedule)
        emission = emit_c(program)
        all_counters = [
            ident
            for per_task in emission.names.counters.values()
            for ident in per_task.values()
        ]
        assert len(all_counters) == len(set(all_counters))

    @needs_cc
    @pytest.mark.parametrize("build", [weird_name_chain, case_collision_choice])
    def test_weird_names_compile_and_run_natively(self, build):
        program = synthesize(compute_valid_schedule(build()))
        for index, task in enumerate(program.tasks):
            maps = scripted_maps(task, 40, seed=40 + index)
            assert_native_matches_interpreter(task, maps)

    @needs_cc
    def test_atm_translation_unit_compiles(self, atm_report, tmp_path):
        """Regression: shared-fragment helpers lacked forward
        declarations and duplicate counters broke the build."""
        program = synthesize(atm_report.schedule)
        unit = tmp_path / "atm.c"
        unit.write_text(native_source(program), encoding="utf-8")
        compiler, _ = native_mod.find_compiler()
        result = native_mod._run_compiler(
            [compiler, "-fsyntax-only", "-Wall", str(unit)]
        )
        assert result.returncode == 0, result.stderr
