"""Incidence matrices and the state equation.

The QSS schedulability check relies on the *state equation*
``f(sigma)^T . D = 0`` (Sgroi et al. 1999, Section 2), where ``D`` is the
incidence matrix of the net and ``f(sigma)`` the firing-count vector of a
candidate cyclic sequence.  This module builds the input (``Pre``),
output (``Post``) and incidence (``D = Post - Pre``) matrices with a
fixed, documented row/column ordering so that vectors computed elsewhere
(T-invariants, firing counts) can be mapped back to transition names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .net import PetriNet


@dataclass(frozen=True)
class IncidenceMatrices:
    """Pre/Post/incidence matrices of a net with their index maps.

    Rows are transitions, columns are places (the convention of the paper,
    where the state equation is written ``f^T . D = 0`` with ``f`` indexed
    by transitions).

    Attributes
    ----------
    transitions / places:
        Orderings of the matrix rows / columns.
    pre:
        ``pre[i, j] = F(p_j, t_i)`` — tokens consumed from place ``j`` by
        transition ``i``.
    post:
        ``post[i, j] = F(t_i, p_j)`` — tokens produced into place ``j`` by
        transition ``i``.
    incidence:
        ``post - pre``.
    """

    transitions: Tuple[str, ...]
    places: Tuple[str, ...]
    pre: np.ndarray
    post: np.ndarray
    incidence: np.ndarray

    @property
    def transition_index(self) -> Dict[str, int]:
        return {t: i for i, t in enumerate(self.transitions)}

    @property
    def place_index(self) -> Dict[str, int]:
        return {p: i for i, p in enumerate(self.places)}

    def counts_from_vector(self, vector: Sequence[int]) -> Dict[str, int]:
        """Convert a row vector back to a ``{transition: count}`` mapping,
        dropping zero entries."""
        return {
            t: int(vector[i]) for i, t in enumerate(self.transitions) if vector[i]
        }


def incidence_matrices(net: PetriNet) -> IncidenceMatrices:
    """Build the Pre, Post and incidence matrices of ``net``."""
    transitions = tuple(net.transition_names)
    places = tuple(net.place_names)
    t_index = {t: i for i, t in enumerate(transitions)}
    p_index = {p: i for i, p in enumerate(places)}
    pre = np.zeros((len(transitions), len(places)), dtype=np.int64)
    post = np.zeros((len(transitions), len(places)), dtype=np.int64)
    for arc in net.arcs:
        if arc.source in p_index:
            # place -> transition: consumption
            pre[t_index[arc.target], p_index[arc.source]] = arc.weight
        else:
            # transition -> place: production
            post[t_index[arc.source], p_index[arc.target]] = arc.weight
    return IncidenceMatrices(
        transitions=transitions,
        places=places,
        pre=pre,
        post=post,
        incidence=post - pre,
    )
