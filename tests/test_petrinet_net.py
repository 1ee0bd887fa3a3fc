"""Unit tests for the core Petri net data model (repro.petrinet.net)."""

from __future__ import annotations

import pytest

from repro.petrinet import Marking, PetriNet
from repro.petrinet.exceptions import (
    DuplicateNodeError,
    InvalidArcError,
    InvalidMarkingError,
    NotEnabledError,
    UnknownNodeError,
)


def small_net() -> PetriNet:
    net = PetriNet("small")
    net.add_transition("t1")
    net.add_place("p1", tokens=1)
    net.add_transition("t2")
    net.add_arc("t1", "p1")
    net.add_arc("p1", "t2", weight=2)
    return net


class TestConstruction:
    def test_add_place_and_transition(self):
        net = PetriNet()
        place = net.add_place("p1", tokens=3)
        transition = net.add_transition("t1", cost=5)
        assert place.name == "p1"
        assert transition.cost == 5
        assert net.place_names == ["p1"]
        assert net.transition_names == ["t1"]

    def test_duplicate_name_rejected(self):
        net = PetriNet()
        net.add_place("x")
        with pytest.raises(DuplicateNodeError):
            net.add_place("x")
        with pytest.raises(DuplicateNodeError):
            net.add_transition("x")

    def test_empty_name_rejected(self):
        net = PetriNet()
        with pytest.raises(DuplicateNodeError):
            net.add_place("")

    def test_negative_initial_tokens_rejected(self):
        net = PetriNet()
        with pytest.raises(InvalidMarkingError):
            net.add_place("p", tokens=-1)

    def test_arc_requires_place_transition_pair(self):
        net = PetriNet()
        net.add_place("p1")
        net.add_place("p2")
        net.add_transition("t1")
        net.add_transition("t2")
        with pytest.raises(InvalidArcError):
            net.add_arc("p1", "p2")
        with pytest.raises(InvalidArcError):
            net.add_arc("t1", "t2")

    def test_arc_to_unknown_node(self):
        net = PetriNet()
        net.add_place("p1")
        with pytest.raises(UnknownNodeError):
            net.add_arc("p1", "missing")

    def test_arc_weight_must_be_positive(self):
        net = PetriNet()
        net.add_place("p1")
        net.add_transition("t1")
        with pytest.raises(InvalidArcError):
            net.add_arc("p1", "t1", weight=0)

    def test_arc_replaces_weight(self):
        net = small_net()
        net.add_arc("p1", "t2", weight=3)
        assert net.arc_weight("p1", "t2") == 3
        assert len(net.arcs) == 2


class TestQueries:
    def test_preset_postset(self):
        net = small_net()
        assert net.preset("p1") == {"t1": 1}
        assert net.postset("p1") == {"t2": 2}
        assert net.preset("t1") == {}
        assert net.postset("t2") == {}

    def test_arc_weight_missing_is_zero(self):
        net = small_net()
        assert net.arc_weight("p1", "t1") == 0

    def test_source_and_sink_transitions(self):
        net = small_net()
        assert net.source_transitions() == ["t1"]
        assert net.sink_transitions() == ["t2"]

    def test_choice_and_merge_places(self):
        net = small_net()
        net.add_transition("t3")
        net.add_arc("p1", "t3")
        net.add_transition("t4")
        net.add_arc("t4", "p1")
        assert net.choice_places() == ["p1"]
        assert [p for p in net.place_names if len(net.preset(p)) > 1] == ["p1"]

    def test_contains_and_len(self):
        net = small_net()
        assert "p1" in net
        assert "t1" in net
        assert "nope" not in net
        assert len(net) == 3

    def test_summary_mentions_counts(self):
        text = small_net().summary()
        assert "1 places" in text
        assert "2 transitions" in text


class TestSemantics:
    def test_initial_marking(self):
        net = small_net()
        assert net.initial_marking == Marking({"p1": 1})

    def test_is_enabled_and_fire(self):
        net = small_net()
        marking = net.initial_marking
        assert net.is_enabled("t1", marking)
        assert not net.is_enabled("t2", marking)  # needs 2 tokens
        after = net.fire("t1", marking)
        assert after["p1"] == 2
        assert net.is_enabled("t2", after)
        final = net.fire("t2", after)
        assert final["p1"] == 0

    def test_fire_not_enabled_raises(self):
        net = small_net()
        with pytest.raises(NotEnabledError):
            net.fire("t2", net.initial_marking)

    def test_enabled_transitions_order(self):
        net = small_net()
        marking = Marking({"p1": 2})
        assert net.enabled_transitions(marking) == ["t1", "t2"]


class TestMutation:
    def test_remove_transition_drops_arcs(self):
        net = small_net()
        net.remove_transition("t2")
        assert "t2" not in net
        assert net.postset("p1") == {}

    def test_remove_place_drops_arcs_and_tokens(self):
        net = small_net()
        net.remove_place("p1")
        assert "p1" not in net
        assert net.postset("t1") == {}
        assert net.initial_marking.total() == 0

    def test_remove_unknown_raises(self):
        net = small_net()
        with pytest.raises(UnknownNodeError):
            net.remove_place("zzz")
        with pytest.raises(UnknownNodeError):
            net.remove_transition("zzz")

    def test_set_initial_tokens(self):
        net = small_net()
        net.set_initial_tokens("p1", 5)
        assert net.initial_marking["p1"] == 5
        net.set_initial_tokens("p1", 0)
        assert net.initial_marking["p1"] == 0
        with pytest.raises(InvalidMarkingError):
            net.set_initial_tokens("p1", -1)

    def test_copy_is_independent(self):
        net = small_net()
        clone = net.copy()
        clone.add_place("extra")
        clone.set_initial_tokens("p1", 9)
        assert "extra" not in net
        assert net.initial_marking["p1"] == 1

    def test_subnet_preserves_structure(self, fig5):
        sub = fig5.subnet(places=["p1", "p2"], transitions=["t1", "t2", "t4"])
        assert set(sub.place_names) == {"p1", "p2"}
        assert set(sub.transition_names) == {"t1", "t2", "t4"}
        assert sub.arc_weight("t2", "p2") == 2
        # arcs to removed nodes are dropped
        assert sub.postset("p2") == {"t4": 1}

    def test_subnet_keeps_initial_tokens(self):
        net = small_net()
        sub = net.subnet(places=["p1"], transitions=["t1"])
        assert sub.initial_marking["p1"] == 1
