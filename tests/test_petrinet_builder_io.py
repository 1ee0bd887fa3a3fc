"""Unit tests for the builder, serialization, DOT export and generators."""

from __future__ import annotations

import pytest

from repro.gallery import figure4_weighted, figure5_two_inputs
from repro.petrinet import (
    NetBuilder,
    is_conflict_free,
    is_free_choice,
    is_marked_graph,
    load_net,
    net_from_dict,
    net_from_json,
    net_to_dict,
    net_to_dot,
    net_to_json,
    save_net,
    t_invariants,
)
from repro.petrinet.exceptions import SerializationError
from repro.petrinet.generators import (
    choice_fan_net,
    independent_choices_net,
    multirate_choice_net,
    nested_choices_net,
    pipeline_net,
    random_free_choice_net,
    random_marked_graph,
    unschedulable_merge_net,
)
from repro.qss import count_distinct_reductions, is_schedulable


class TestBuilder:
    def test_chain_with_weights(self):
        net = NetBuilder("chain").chain("t1", "p1", ("t2", 3)).build()
        assert net.arc_weight("p1", "t2") == 3
        assert net.arc_weight("t1", "p1") == 1

    def test_name_convention_infers_node_kind(self):
        net = NetBuilder("infer").arc("t1", "p1").arc("p1", "consume").build()
        assert net.has_transition("t1")
        assert net.has_place("p1")
        assert net.has_transition("consume")

    def test_choice_and_merge_helpers(self):
        net = (
            NetBuilder("helpers")
            .choice("p_c", ["t_a", "t_b"])
            .merge(["t_a", "t_b"], "p_m")
            .build()
        )
        assert net.choice_places() == ["p_c"]
        assert set(net.preset("p_m")) == {"t_a", "t_b"}

    def test_place_declaration_idempotent(self):
        builder = NetBuilder("idem").place("p1", tokens=1)
        builder.place("p1", tokens=4)
        assert builder.build().initial_marking["p1"] == 4

    def test_source_and_sink_flags(self):
        net = NetBuilder("s").source("t_in").sink("t_out").build()
        assert net.transition("t_in").is_source_hint
        assert net.transition("t_out").is_sink_hint

    def test_tokens_helper(self):
        net = NetBuilder("tok").place("p1").tokens("p1", 7).build()
        assert net.initial_marking["p1"] == 7


class TestSerialization:
    def test_dict_round_trip(self, fig5):
        restored = net_from_dict(net_to_dict(fig5))
        assert restored.name == fig5.name
        assert restored.place_names == fig5.place_names
        assert restored.transition_names == fig5.transition_names
        assert restored.initial_marking == fig5.initial_marking
        for arc in fig5.arcs:
            assert restored.arc_weight(arc.source, arc.target) == arc.weight

    def test_json_round_trip_preserves_analysis(self, fig4):
        restored = net_from_json(net_to_json(fig4))
        assert t_invariants(restored) == t_invariants(fig4)

    def test_file_round_trip(self, tmp_path, fig4):
        path = tmp_path / "net.json"
        save_net(fig4, path)
        assert load_net(path).transition_names == fig4.transition_names

    def test_invalid_json_raises(self):
        with pytest.raises(SerializationError):
            net_from_json("{not json")

    def test_malformed_dict_raises(self):
        with pytest.raises(SerializationError):
            net_from_dict({"places": [{"missing_name": True}]})

    def test_costs_and_labels_preserved(self):
        net = NetBuilder("meta").transition("t1", label="work", cost=7).build()
        restored = net_from_dict(net_to_dict(net))
        assert restored.transition("t1").cost == 7
        assert restored.transition("t1").label == "work"


class TestDot:
    def test_dot_contains_all_nodes_and_weights(self, fig4):
        dot = net_to_dot(fig4, title="Figure 4")
        assert dot.startswith("digraph")
        for node in fig4.place_names + fig4.transition_names:
            assert f'"{node}"' in dot
        assert '[label="2"]' in dot
        assert "Figure 4" in dot

    def test_choice_places_highlighted(self, fig4):
        dot = net_to_dot(fig4)
        assert "fillcolor" in dot


class TestGenerators:
    def test_pipeline_is_marked_graph(self):
        net = pipeline_net(4, rates=[1, 2, 3, 1])
        assert is_marked_graph(net)
        assert len(net.transition_names) == 5

    def test_pipeline_validation(self):
        with pytest.raises(ValueError):
            pipeline_net(0)
        with pytest.raises(ValueError):
            pipeline_net(2, rates=[1])

    def test_choice_fan_counts(self):
        net = choice_fan_net(3)
        assert is_free_choice(net)
        assert count_distinct_reductions(net) == 3

    def test_independent_choices_exponential(self):
        net = independent_choices_net(3, branches=2)
        assert count_distinct_reductions(net) == 8
        assert is_schedulable(net)

    def test_nested_choices_linear(self):
        net = nested_choices_net(4)
        assert len(net.choice_places()) == 4
        # nested choices collapse: far fewer reductions than 2**4 allocations
        assert count_distinct_reductions(net) == 5
        assert is_schedulable(net)

    def test_multirate_choice_matches_figure4(self):
        net = multirate_choice_net(2, 2)
        reference = figure4_weighted()
        assert sorted(t_invariants(net), key=str) == sorted(
            t_invariants(reference), key=str
        )

    def test_unschedulable_merge_net(self):
        assert not is_schedulable(unschedulable_merge_net())

    def test_random_free_choice_nets_are_schedulable(self):
        for seed in range(5):
            net = random_free_choice_net(seed, n_choices=2)
            assert is_free_choice(net)
            assert is_schedulable(net)

    def test_random_marked_graph_is_consistent(self):
        for seed in range(3):
            net = random_marked_graph(seed)
            assert is_marked_graph(net)
            invariants = t_invariants(net)
            assert invariants, "a ring always has a T-invariant"
