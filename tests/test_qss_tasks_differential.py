"""Task partitioning reads the T-invariants the schedulability check computed.

Section 4 builds each task from the transitions of the T-invariants
containing the task's source.  Definition 3.5 already computes the
minimal T-invariants of every T-reduction during ``analyse``; each
finite complete cycle carries them (``FiniteCompleteCycle.invariants``)
and ``partition_tasks`` unions their supports instead of rebuilding an
all-places subnet and rerunning the Farkas elimination per cycle.  The
tests below pin why that is exact and that nothing observable moved:

* no surviving transition of any T-reduction touches a removed place,
  so the all-places subnet has the reduction's incidence matrix plus
  zero rows, and zero rows add no constraint to C·x = 0;
* every cycle's invariants equal that per-cycle recomputation;
* the partition equals the per-cycle recomputing loop, kept here as the
  oracle, for the default grouping and for one all-sources group;
* partitioning never reaches the exact Farkas elimination;
* both QSS engines give equal cycles and byte-identical C.

The nets are the paper's free-choice figures, the three applications
and the schedulable free-choice nets of ``generate_corpus(60, seed=0)``,
each analysed once per engine.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

import pytest

import repro.petrinet.invariants as invariants_module
from repro.apps import atm, heating, router
from repro.codegen import emit_c, synthesize
from repro.gallery import figures
from repro.petrinet import t_invariants
from repro.petrinet.corpus import generate_corpus
from repro.petrinet.structure import is_free_choice
from repro.qss import analyse, partition_tasks

ENGINES = ("compiled", "legacy")

#: At least this many nets of ``generate_corpus(60, seed=0)`` are
#: free-choice and schedulable, so a generator change cannot silently
#: empty the corpus case.
MIN_CORPUS_NETS = 40

Invariant = Tuple[Tuple[str, int], ...]


@pytest.fixture(scope="module")
def nets():
    cases = [(name, build()) for name, build in figures.paper_figures().items()]
    cases += [
        ("atm", atm.build_atm_server_net()),
        ("router", router.build_router_net()),
        ("heating", heating.build_heating_net()),
    ]
    cases += [
        (f"corpus[{index}]", spec.build())
        for index, spec in enumerate(generate_corpus(60, seed=0))
    ]
    return {name: net for name, net in cases if is_free_choice(net)}


@pytest.fixture(scope="module")
def reports(nets):
    """``{engine: {net name: report}}``, every net analysed once."""
    return {
        engine: {name: analyse(net, engine=engine) for name, net in nets.items()}
        for engine in ENGINES
    }


@pytest.fixture(scope="module")
def schedulable(reports):
    """``reports`` restricted to the schedulable nets."""
    by_engine = {
        engine: {name: r for name, r in by_name.items() if r.schedulable}
        for engine, by_name in reports.items()
    }
    assert by_engine["compiled"].keys() == by_engine["legacy"].keys()
    corpus = [name for name in by_engine["compiled"] if name.startswith("corpus")]
    assert len(corpus) >= MIN_CORPUS_NETS
    return by_engine


@pytest.fixture(scope="module")
def recomputed(nets):
    """``recomputed(name, reduction_transitions)``: the minimal
    T-invariants of that reduction rebuilt as an all-places subnet of
    net ``name`` and run through the exact Farkas elimination, in the
    canonical form of ``FiniteCompleteCycle.invariants``.  Memoized,
    since both engines schedule the same reductions."""
    cache: Dict[Tuple[str, FrozenSet[str]], Tuple[Invariant, ...]] = {}

    def invariants_of(name, reduction_transitions):
        key = (name, reduction_transitions)
        if key not in cache:
            net = nets[name]
            reduction_net = net.subnet(
                places=net.place_names,
                transitions=list(reduction_transitions),
                name=f"{net.name}_cycle",
            )
            cache[key] = tuple(
                tuple(sorted(invariant.items()))
                for invariant in t_invariants(reduction_net)
            )
        return cache[key]

    return invariants_of


def recomputing_partition(name, schedule, recomputed, rate_groups=None):
    """The partition loop that recomputes every cycle's invariants.

    Returns ``[(name, sources, transitions, places, shared, task-net
    places, task-net transitions)]`` per task.
    """
    net = schedule.net
    sources = net.source_transitions()
    if rate_groups is None:
        groups = [[s] for s in sources]
    else:
        groups = [list(group) for group in rate_groups]
        grouped = {s for group in groups for s in group}
        groups += [[s] for s in sources if s not in grouped]
    membership: Dict[str, Set[str]] = {group[0]: set(group) for group in groups}
    for cycle in schedule.cycles:
        invariants = recomputed(name, cycle.reduction_transitions)
        for group in groups:
            for invariant in invariants:
                support = {transition for transition, _ in invariant}
                if any(source in support for source in group):
                    membership[group[0]].update(support)
    claims: Dict[str, int] = {}
    for owned in membership.values():
        for transition in owned:
            claims[transition] = claims.get(transition, 0) + 1
    tasks = []
    for group in groups:
        owned = membership[group[0]]
        places = set()
        for transition in owned:
            places.update(net.preset_names(transition))
            places.update(net.postset_names(transition))
        task_name = f"task_{group[0]}"
        task_net = net.subnet(places=places, transitions=owned, name=task_name)
        tasks.append(
            (
                task_name,
                tuple(group),
                frozenset(owned),
                frozenset(places),
                frozenset(t for t in owned if claims[t] > 1),
                task_net.place_names,
                task_net.transition_names,
            )
        )
    return tasks


def observed_partition(partition):
    return [
        (
            task.name,
            task.source_transitions,
            task.transitions,
            task.places,
            task.shared_transitions,
            task.net.place_names,
            task.net.transition_names,
        )
        for task in partition.tasks
    ]


@pytest.mark.parametrize("engine", ENGINES)
def test_surviving_transitions_touch_only_reduction_places(nets, reports, engine):
    """The zero-rows argument: every verdict of every net, schedulable
    or not, keeps each surviving transition's preset and postset."""
    checked = 0
    for name, net in nets.items():
        for verdict in reports[engine][name].verdicts:
            places = verdict.reduction.place_set
            for transition in verdict.reduction.transition_set:
                touched = set(net.preset_names(transition))
                touched.update(net.postset_names(transition))
                assert touched <= places, (name, verdict.reduction.allocation)
                checked += 1
    assert checked


@pytest.mark.parametrize("engine", ENGINES)
def test_cycle_invariants_equal_recomputed(schedulable, recomputed, engine):
    for name, report in schedulable[engine].items():
        for cycle, verdict in zip(report.schedule.cycles, report.verdicts):
            assert cycle.invariants == recomputed(
                name, cycle.reduction_transitions
            ), (name, str(cycle))
            assert list(cycle.invariants) == [
                tuple(sorted(invariant.items())) for invariant in verdict.invariants
            ], (name, str(cycle))


@pytest.mark.parametrize("grouping", ["default", "all_sources"])
@pytest.mark.parametrize("engine", ENGINES)
def test_partition_equals_recomputing_loop(schedulable, recomputed, engine, grouping):
    for name, report in schedulable[engine].items():
        schedule = report.schedule
        sources = schedule.net.source_transitions()
        groups = None
        if grouping == "all_sources":
            if not sources:
                continue  # an empty group is refused
            groups = [sources]
        assert observed_partition(
            partition_tasks(schedule, rate_groups=groups)
        ) == recomputing_partition(name, schedule, recomputed, groups), name


@pytest.mark.parametrize("name", ["atm", "router"])
def test_partition_never_runs_exact_farkas(schedulable, monkeypatch, name):
    """Fails on a partition that recomputes invariants per cycle."""
    schedule = schedulable["compiled"][name].schedule

    def refuse(*args, **kwargs):
        raise AssertionError("partition_tasks reran the Farkas elimination")

    monkeypatch.setattr(invariants_module, "_minimal_semiflows", refuse)
    partition = partition_tasks(schedule)
    assert partition.task_count == len(schedule.net.source_transitions())


def test_engines_give_equal_cycles_and_identical_c(schedulable):
    for name, compiled in schedulable["compiled"].items():
        legacy = schedulable["legacy"][name]
        assert compiled.schedule.cycles == legacy.schedule.cycles, name
        assert (
            emit_c(synthesize(compiled.schedule)).source
            == emit_c(synthesize(legacy.schedule)).source
        ), name
