"""Unit tests for structural classification (repro.petrinet.structure)."""

from __future__ import annotations

import pytest

from repro.gallery import (
    figure1a_free_choice,
    figure1b_not_free_choice,
    figure2_sdf_chain,
    figure3a_schedulable,
    figure5_two_inputs,
)
from repro.petrinet import NetBuilder
from repro.petrinet.structure import (
    classify,
    is_conflict_free,
    is_extended_free_choice,
    is_free_choice,
    is_marked_graph,
    is_ordinary,
)


class TestClassPredicates:
    def test_figure1(self):
        assert is_free_choice(figure1a_free_choice())
        assert not is_free_choice(figure1b_not_free_choice())

    def test_marked_graph(self):
        assert is_marked_graph(figure2_sdf_chain())
        assert not is_marked_graph(figure3a_schedulable())

    def test_conflict_free(self):
        assert is_conflict_free(figure2_sdf_chain())
        assert not is_conflict_free(figure3a_schedulable())

    def test_free_choice_includes_conflict_free(self):
        assert is_free_choice(figure2_sdf_chain())
        assert is_free_choice(figure3a_schedulable())

    def test_extended_free_choice(self):
        # two places sharing both successors: extended free choice but not FC
        net = (
            NetBuilder("efc")
            .place("p1", tokens=1)
            .place("p2", tokens=1)
            .arc("p1", "t1")
            .arc("p1", "t2")
            .arc("p2", "t1")
            .arc("p2", "t2")
            .build()
        )
        assert not is_free_choice(net)
        assert is_extended_free_choice(net)

    def test_ordinary(self):
        assert is_ordinary(figure3a_schedulable())
        assert not is_ordinary(figure2_sdf_chain())

    def test_classify_most_specific(self):
        assert classify(figure2_sdf_chain()) == "marked-graph"
        assert classify(figure3a_schedulable()) == "free-choice"
        assert classify(figure1b_not_free_choice()) == "general"

    def test_classify_conflict_free(self):
        net = (
            NetBuilder("cf")
            .transition("t1")
            .transition("t2")
            .transition("t3")
            .place("p1")
            .arc("t1", "p1")
            .arc("t2", "p1")
            .arc("p1", "t3")
            .build()
        )
        assert classify(net) == "conflict-free"

