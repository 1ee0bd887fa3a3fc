"""Gallery of the nets appearing in the paper's figures.

Each constructor returns a fresh :class:`~repro.petrinet.net.PetriNet`
reproducing one of the figures of Sgroi et al. (DAC 1999); the expected
analysis results quoted in the paper (T-invariants, valid schedules,
schedulability verdicts) are asserted by the test suite and regenerated
by the per-figure benchmarks.
"""

from .figures import (
    figure1a_free_choice,
    figure1b_not_free_choice,
    figure2_sdf_chain,
    figure3a_schedulable,
    figure3b_unschedulable,
    figure4_weighted,
    figure5_two_inputs,
    figure7_unschedulable,
    paper_figures,
)

__all__ = [
    "figure1a_free_choice",
    "figure1b_not_free_choice",
    "figure2_sdf_chain",
    "figure3a_schedulable",
    "figure3b_unschedulable",
    "figure4_weighted",
    "figure5_two_inputs",
    "figure7_unschedulable",
    "paper_figures",
]
