"""Task partitioning from a valid schedule.

Section 4 of the paper: the synthesized software consists of "as many
fragments of C code (tasks) as the number of source transitions with
independent firing rate", because transitions with independent rates
cannot be quasi-statically scheduled together.  A task is composed only
of transitions with dependent firing rates, i.e. transitions belonging
to the same T-invariants as the task's source transition.

Given a valid schedule this module

* groups the source transitions into rate classes (by default every
  source transition is its own class — e.g. *Cell* and *Tick* in the ATM
  server — but rationally-related inputs can be grouped explicitly);
* assigns to each task the transitions appearing in T-invariants that
  contain one of its source transitions, across all T-reductions
  (transitions reachable from several inputs — shared code such as the
  WFQ module of the ATM server — appear in several tasks).  Those are
  the minimal T-invariants the Definition 3.5 check already computed
  for every reduction, carried on each
  :class:`~repro.qss.schedule.FiniteCompleteCycle`; nothing is
  recomputed here;
* extracts the per-task subnet used by the code generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..petrinet import PetriNet
from .schedule import ValidSchedule


@dataclass
class TaskDefinition:
    """A software task synthesized from the valid schedule.

    Attributes
    ----------
    name:
        Task name (derived from its triggering input).
    source_transitions:
        The input (source) transitions that trigger the task; they share
        a firing rate.
    transitions:
        All transitions executed by the task (the union of the supports
        of the T-invariants containing the task's sources).
    places:
        The places connecting those transitions (the task's buffers and
        counters).
    net:
        The task subnet (used by code generation).
    shared_transitions:
        Transitions that also belong to another task — the code patterns
        the paper shares between tasks via labels/gotos.
    """

    name: str
    source_transitions: Tuple[str, ...]
    transitions: FrozenSet[str]
    places: FrozenSet[str]
    net: PetriNet
    shared_transitions: FrozenSet[str] = frozenset()


@dataclass
class TaskPartition:
    """The complete task set of a synthesized implementation."""

    net: PetriNet
    tasks: List[TaskDefinition] = field(default_factory=list)

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    def task_for_source(self, source: str) -> TaskDefinition:
        for task in self.tasks:
            if source in task.source_transitions:
                return task
        raise KeyError(f"no task triggered by source transition {source!r}")

    def describe(self) -> str:
        lines = [f"{self.task_count} task(s) for net {self.net.name!r}:"]
        for task in self.tasks:
            lines.append(
                f"  {task.name}: sources={list(task.source_transitions)}, "
                f"{len(task.transitions)} transitions"
                + (
                    f", shared={sorted(task.shared_transitions)}"
                    if task.shared_transitions
                    else ""
                )
            )
        return "\n".join(lines)


def _task_places(net: PetriNet, transitions: Set[str]) -> Set[str]:
    """Places with at least one arc to/from the task's transitions."""
    places: Set[str] = set()
    for transition in transitions:
        places.update(net.preset_names(transition))
        places.update(net.postset_names(transition))
    return places


def _rate_groups(
    net: PetriNet, rate_groups: Optional[Sequence[Sequence[str]]]
) -> List[List[str]]:
    """The task groups: the given ones, then one per ungrouped source.

    Raises ``ValueError`` on an empty group, on a member that is not a
    source transition of ``net`` and on a source named twice.
    """
    sources = net.source_transitions()
    if rate_groups is None:
        return [[s] for s in sources]
    groups = [list(group) for group in rate_groups]
    source_set = set(sources)
    grouped: Set[str] = set()
    for group in groups:
        if not group:
            raise ValueError("empty rate group: a task needs a source transition")
        for transition in group:
            if transition not in source_set:
                raise ValueError(
                    f"rate group {group} names {transition!r}, which is not "
                    f"a source transition of net {net.name!r}"
                )
            if transition in grouped:
                raise ValueError(
                    f"source transition {transition!r} is named twice in "
                    "the rate groups"
                )
            grouped.add(transition)
    groups.extend([s] for s in sources if s not in grouped)
    return groups


def partition_tasks(
    schedule: ValidSchedule,
    rate_groups: Optional[Sequence[Sequence[str]]] = None,
    task_names: Optional[Mapping[str, str]] = None,
) -> TaskPartition:
    """Partition a valid schedule into tasks.

    Parameters
    ----------
    schedule:
        The valid schedule produced by :mod:`repro.qss.scheduler`.
    rate_groups:
        Groups of source transitions that share a firing rate (and hence
        can live in the same task).  Defaults to one group per source
        transition — the paper's lower bound of one task per independent
        input.
    task_names:
        Optional ``{first source of group: task name}`` mapping used to
        give tasks application-level names (e.g. ``cell_task``).

    Raises
    ------
    ValueError
        Before any work, when a rate group is empty, names a transition
        that is not a source of the net, or repeats a source, and when
        two tasks would get the same name.
    """
    net = schedule.net
    groups = _rate_groups(net, rate_groups)
    names: List[str] = []
    for group in groups:
        name = (task_names or {}).get(group[0], f"task_{group[0]}")
        if name in names:
            raise ValueError(
                f"task name {name!r} is given to the tasks of sources "
                f"{groups[names.index(name)][0]!r} and {group[0]!r}"
            )
        names.append(name)

    # Transitions per task: union over every cycle (i.e. every reduction)
    # of the supports of the T-invariants containing the task's sources.
    # Each cycle carries its reduction's minimal T-invariants, computed
    # once by the Definition 3.5 check in ``analyse``.
    membership: Dict[str, Set[str]] = {group[0]: set(group) for group in groups}
    for cycle in schedule.cycles:
        for invariant in cycle.invariants:
            support = {transition for transition, _ in invariant}
            for group in groups:
                if not support.isdisjoint(group):
                    membership[group[0]].update(support)

    # Transitions claimed by several tasks are the shared code patterns.
    claim_count: Dict[str, int] = {}
    for owned in membership.values():
        for transition in owned:
            claim_count[transition] = claim_count.get(transition, 0) + 1

    partition = TaskPartition(net=net)
    for group, name in zip(groups, names):
        owned = membership[group[0]]
        places = _task_places(net, owned)
        task_net = net.subnet(places=places, transitions=owned, name=name)
        shared = frozenset(t for t in owned if claim_count.get(t, 0) > 1)
        partition.tasks.append(
            TaskDefinition(
                name=name,
                source_transitions=tuple(group),
                transitions=frozenset(owned),
                places=frozenset(places),
                net=task_net,
                shared_transitions=shared,
            )
        )
    return partition
