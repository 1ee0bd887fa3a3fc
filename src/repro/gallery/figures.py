"""Programmatic reconstructions of the paper's figure nets.

Every net below is reconstructed from the figure drawings and from the
quantitative facts stated in the text (T-invariants, valid schedules,
arc weights), so the analysis results quoted in the paper can be
regenerated exactly:

* Figure 1a/1b — free-choice vs non-free-choice example.
* Figure 2 — multirate SDF chain with repetition vector (4, 2, 1).
* Figure 3a — schedulable FCPN, valid schedule {(t1 t2 t4), (t1 t3 t5)}.
* Figure 3b — non-schedulable FCPN (branches of a choice must
  synchronize downstream).
* Figure 4 — schedulable FCPN with weighted arcs, valid schedule
  {(t1 t2 t1 t2 t4), (t1 t3 t5 t5)}.
* Figure 5 — two-input FCPN used to illustrate T-allocations and
  T-reductions; T-invariants of R1 are (1,1,0,2,0,4,0,0,0) and
  (0,0,0,0,0,1,0,1,1); a valid schedule is
  {(t1 t2 t4 t4 t6 t6 t6 t6 t8 t9 t6), (t1 t3 t5 t7 t7 t8 t9 t6)}.
* Figure 7 — non-schedulable FCPN whose two T-reductions are both
  inconsistent (each keeps a source place with no producer).
"""

from __future__ import annotations

from typing import Callable, Dict

from ..petrinet import NetBuilder, PetriNet


def figure1a_free_choice() -> PetriNet:
    """Figure 1a: a choice place whose successors have a single input each.

    The net is free-choice: whenever one of ``t1``/``t2`` is enabled, both
    are, so the choice can be resolved purely on data values.
    """
    return (
        NetBuilder("figure1a")
        .place("p1", tokens=1)
        .arc("p1", "t1")
        .arc("p1", "t2")
        .build()
    )


def figure1b_not_free_choice() -> PetriNet:
    """Figure 1b: not free-choice.

    ``t2`` has a second input place ``p2``, so there is a marking (one
    token in ``p1`` only) in which ``t3`` is enabled and ``t2`` is not —
    the defining violation of the free-choice property.
    """
    return (
        NetBuilder("figure1b")
        .place("p1", tokens=1)
        .place("p2", tokens=0)
        .arc("p1", "t2")
        .arc("p1", "t3")
        .arc("p2", "t2")
        .build()
    )


def figure2_sdf_chain() -> PetriNet:
    """Figure 2: a multirate SDF chain ``t1 -(1)-> p1 -(2)-> t2 -(1)-> p2 -(2)-> t3``.

    Its minimal T-invariant is ``f = (4, 2, 1)`` and a static schedule is
    the finite complete cycle ``t1 t1 t1 t1 t2 t2 t3`` repeated forever.
    """
    return (
        NetBuilder("figure2")
        .source("t1")
        .arc("t1", "p1")
        .arc("p1", "t2", weight=2)
        .arc("t2", "p2")
        .arc("p2", "t3", weight=2)
        .build()
    )


def figure3a_schedulable() -> PetriNet:
    """Figure 3a: schedulable FCPN.

    A source feeds a binary choice; each branch ends in its own sink.
    Valid schedule: ``{(t1 t2 t4), (t1 t3 t5)}``; the T-invariant space
    is spanned by ``a(1,1,0,1,0) + b(1,0,1,0,1)``.
    """
    return (
        NetBuilder("figure3a")
        .source("t1")
        .arc("t1", "p1")
        .arc("p1", "t2")
        .arc("t2", "p2")
        .arc("p2", "t4")
        .arc("p1", "t3")
        .arc("t3", "p3")
        .arc("p3", "t5")
        .build()
    )


def figure3b_unschedulable() -> PetriNet:
    """Figure 3b: non-schedulable FCPN.

    The two branches of the choice both feed transition ``t4``, which
    needs a token from each.  If the data always resolve the choice the
    same way, tokens accumulate without bound in the starved branch, so
    no valid schedule exists.
    """
    return (
        NetBuilder("figure3b")
        .source("t1")
        .arc("t1", "p1")
        .arc("p1", "t2")
        .arc("t2", "p2")
        .arc("p1", "t3")
        .arc("t3", "p3")
        .arc("p2", "t4")
        .arc("p3", "t4")
        .build()
    )


def figure4_weighted() -> PetriNet:
    """Figure 4: schedulable FCPN with weighted arcs.

    ``t4`` needs two tokens from ``p2`` (two firings of ``t2``), while
    ``t3`` produces two tokens into ``p3`` that ``t5`` drains one at a
    time.  A valid schedule is ``{(t1 t2 t1 t2 t4), (t1 t3 t5 t5)}``.
    The section-4 C code listing of the paper is generated from this net.
    """
    return (
        NetBuilder("figure4")
        .source("t1")
        .arc("t1", "p1")
        .arc("p1", "t2")
        .arc("t2", "p2")
        .arc("p2", "t4", weight=2)
        .arc("p1", "t3")
        .arc("t3", "p3", weight=2)
        .arc("p3", "t5")
        .build()
    )


def figure5_two_inputs() -> PetriNet:
    """Figure 5: the two-input FCPN used for T-allocations/T-reductions.

    Reconstruction notes
    --------------------
    The topology is recovered from the figure and from the quantitative
    facts in Section 3:

    * two T-allocations, ``A1`` containing ``t2`` and ``A2`` containing
      ``t3`` (one binary choice at ``p1``);
    * the T-invariants of the reduction ``R1`` are
      ``(1,1,0,2,0,4,0,0,0)`` and ``(0,0,0,0,0,1,0,1,1)`` over
      ``(t1..t9)``;
    * a valid schedule is ``{(t1 t2 t4 t4 t6 t6 t6 t6 t8 t9 t6),
      (t1 t3 t5 t7 t7 t8 t9 t6)}``.

    These pin down the arc weights: ``t2 -(2)-> p2``, ``t4 -(2)-> p4``,
    ``t5 -(2)-> p5`` and ``t5 -(2)-> p6``; ``t8`` is a second source
    transition whose stream (``t8 -> p7 -> t9 -> p4``) merges into the
    shared transition ``t6`` — the pattern the paper uses to illustrate
    code shared between tasks.
    """
    return (
        NetBuilder("figure5")
        .source("t1")
        .arc("t1", "p1")
        # choice at p1
        .arc("p1", "t2")
        .arc("p1", "t3")
        # branch through t2
        .arc("t2", "p2", weight=2)
        .arc("p2", "t4")
        .arc("t4", "p4", weight=2)
        .arc("p4", "t6")
        # branch through t3
        .arc("t3", "p3")
        .arc("p3", "t5")
        .arc("t5", "p5", weight=2)
        .arc("t5", "p6", weight=2)
        .arc("p5", "t7")
        .arc("p6", "t7")
        # second input stream merging into t6 through p4
        .source("t8")
        .arc("t8", "p7")
        .arc("p7", "t9")
        .arc("t9", "p4")
        .build()
    )


def figure7_unschedulable() -> PetriNet:
    """Figure 7: non-schedulable FCPN with inconsistent T-reductions.

    ``t6`` synchronizes the two branches of the choice at ``p1`` (it needs
    tokens from both ``p4`` and ``p5``), so each T-reduction keeps a
    source place with no producer and is inconsistent: firing
    ``t1 t2 t4 t6`` forever would require infinitely many tokens from the
    removed branch.
    """
    return (
        NetBuilder("figure7")
        .source("t1")
        .arc("t1", "p1")
        .arc("p1", "t2")
        .arc("p1", "t3")
        .arc("t2", "p2")
        .arc("p2", "t4")
        .arc("t3", "p3")
        .arc("p3", "t5")
        .arc("t4", "p4")
        .arc("t5", "p5")
        .arc("t5", "p6")
        .arc("p4", "t6")
        .arc("p5", "t6")
        .arc("p6", "t7")
        .build()
    )


def paper_figures() -> Dict[str, Callable[[], PetriNet]]:
    """All figure constructors keyed by a short identifier."""
    return {
        "figure1a": figure1a_free_choice,
        "figure1b": figure1b_not_free_choice,
        "figure2": figure2_sdf_chain,
        "figure3a": figure3a_schedulable,
        "figure3b": figure3b_unschedulable,
        "figure4": figure4_weighted,
        "figure5": figure5_two_inputs,
        "figure7": figure7_unschedulable,
    }
