"""Unit tests for markings (repro.petrinet.marking)."""

from __future__ import annotations

import pytest

from repro.petrinet import Marking
from repro.petrinet.exceptions import InvalidMarkingError


class TestBasics:
    def test_lookup_defaults_to_zero(self):
        m = Marking({"p1": 2})
        assert m["p1"] == 2
        assert m["missing"] == 0
        assert m.get("missing", 7) == 7

    def test_zero_entries_are_normalized_away(self):
        assert Marking({"p1": 0, "p2": 1}) == Marking({"p2": 1})
        assert len(Marking({"p1": 0})) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidMarkingError):
            Marking({"p1": -1})

    def test_equality_with_plain_mapping(self):
        assert Marking({"p1": 1}) == {"p1": 1, "p2": 0}
        assert Marking({"p1": 1}) != {"p1": 2}

    def test_hashable_and_usable_as_key(self):
        seen = {Marking({"a": 1}): "x"}
        assert seen[Marking({"a": 1, "b": 0})] == "x"

    def test_repr_is_sorted(self):
        assert repr(Marking({"b": 1, "a": 2})) == "Marking({a: 2, b: 1})"

    def test_total(self):
        assert Marking({"a": 2, "b": 3}).total() == 5
        assert Marking().total() == 0


class TestOperations:
    def test_add_and_remove_return_new_markings(self):
        m = Marking({"p": 1})
        m2 = m.add("p", 2)
        assert m2["p"] == 3
        assert m["p"] == 1
        m3 = m2.remove("p", 3)
        assert m3["p"] == 0

    def test_remove_below_zero_raises(self):
        with pytest.raises(InvalidMarkingError):
            Marking({"p": 1}).remove("p", 2)

    def test_covers(self):
        big = Marking({"a": 2, "b": 1})
        small = Marking({"a": 1})
        assert big.covers(small)
        assert not small.covers(big)
        assert big.covers(big)
