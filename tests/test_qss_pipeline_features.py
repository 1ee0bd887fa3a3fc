"""Feature tests for the mask-based QSS pipeline and its hot-path fixes.

Covers the PR's satellite guarantees:

* ``find_firing_sequence`` (the oracle's DFS) and the mask pipeline's
  greedy walk survive cycles longer than the interpreter recursion limit
  (explicit-stack DFS regression);
* ``TAllocation.as_dict`` is memoized, not rebuilt per lookup;
* ``analyse(fail_fast=True)`` stops at the first failing T-reduction and
  ``is_schedulable`` uses it by default;
* the streaming mask pipeline behaves like the legacy path;
* the corpus schedulability sweep mode (``analyse="qss"``) fills the new
  columns and round-trips through JSON/CSV.
"""

from __future__ import annotations

import csv
import json
import sys

import pytest

from repro.petrinet import (
    find_finite_complete_cycle,
    find_firing_sequence,
    is_finite_complete_cycle,
)
from repro.petrinet.corpus import (
    CORPUS_SCHEMA,
    corpus_from_json_dict,
    corpus_to_csv,
    corpus_to_json_dict,
    generate_corpus,
    run_corpus,
)
from repro.petrinet.generators import (
    independent_choices_net,
    multirate_choice_net,
    nested_choices_net,
    pipeline_net,
    unschedulable_merge_net,
)
from repro.qss import (
    TAllocation,
    analyse,
    check_compiled_reduction,
    is_schedulable,
    iter_compiled_reductions,
)


class TestLongCycleRecursionRegression:
    """The DFS used to recurse once per firing; long cycles blew the stack."""

    def test_sequence_longer_than_recursion_limit(self):
        firings = sys.getrecursionlimit() + 500
        net = pipeline_net(1, rates=[firings])
        counts = {"t0": 1, "t1": firings}
        sequence = find_firing_sequence(net, counts)
        assert sequence is not None
        assert len(sequence) == firings + 1
        assert sequence[0] == "t0"
        assert is_finite_complete_cycle(net, sequence)

    def test_cycle_longer_than_recursion_limit(self):
        firings = sys.getrecursionlimit() + 500
        net = pipeline_net(1, rates=[firings])
        cycle = find_finite_complete_cycle(net, {"t0": 1, "t1": firings})
        assert cycle is not None and len(cycle) == firings + 1

    def test_analyse_multirate_with_large_rates(self):
        """Full QSS analysis whose branch cycle exceeds the stack limit."""
        rate = sys.getrecursionlimit()
        net = multirate_choice_net(rate_a=rate, rate_b=1)
        report = analyse(net)
        assert report.schedulable
        assert max(len(v.cycle) for v in report.verdicts) > rate

    def test_masked_search_longer_than_recursion_limit(self):
        """The mask pipeline's greedy walk is a loop, not a recursion."""
        firings = sys.getrecursionlimit() + 500
        net = pipeline_net(1, rates=[firings])
        reduction = next(iter_compiled_reductions(net))
        cycle = reduction.find_finite_complete_cycle(
            {"t0": 1, "t1": firings}, reduction.initial
        )
        assert cycle is not None and len(cycle) == firings + 1


class TestAllocationMemoization:
    def test_as_dict_is_memoized(self):
        allocation = TAllocation.from_mapping({"p1": "t2", "p2": "t5"})
        first = allocation.as_dict
        assert allocation.as_dict is first, "as_dict must not be rebuilt per lookup"
        assert first == {"p1": "t2", "p2": "t5"}

    def test_memo_does_not_affect_equality_or_hashing(self):
        a = TAllocation.from_mapping({"p1": "t2"})
        b = TAllocation.from_mapping({"p1": "t2"})
        _ = a.as_dict  # memoize on one side only
        assert a == b
        assert hash(a) == hash(b)
        assert a.chosen("p1") == "t2"
        assert a.chosen("p9") is None


class TestFailFast:
    def test_fail_fast_stops_at_first_failure(self):
        net = unschedulable_merge_net()
        full = analyse(net)
        assert not full.schedulable and len(full.verdicts) == 2 and full.complete
        fast = analyse(net, fail_fast=True)
        assert not fast.schedulable
        assert len(fast.verdicts) == 1, "fail_fast must stop after the first failure"
        assert not fast.complete
        assert fast.reduction_count == 1
        assert "fail-fast" in fast.explain()
        # the partial verdict matches the exhaustive run's first verdict
        assert fast.verdicts[0].cycle == full.verdicts[0].cycle
        assert fast.verdicts[0].schedulable == full.verdicts[0].schedulable

    def test_fail_fast_on_schedulable_net_checks_everything(self):
        net = independent_choices_net(3, 2)
        report = analyse(net, fail_fast=True)
        assert report.schedulable and report.complete
        assert report.reduction_count == 8
        assert report.schedule is not None

    def test_is_schedulable_uses_fail_fast_by_default(self):
        assert is_schedulable(unschedulable_merge_net()) is False
        assert is_schedulable(independent_choices_net(2, 2)) is True

    def test_fail_fast_legacy_engine(self):
        fast = analyse(unschedulable_merge_net(), engine="legacy", fail_fast=True)
        assert not fast.schedulable and len(fast.verdicts) == 1

    def test_fail_fast_complete_flag_uniform_across_engines(self):
        """Any fail-fast stop reports complete=False, in every configuration."""
        net = unschedulable_merge_net()
        for engine in ("compiled", "legacy"):
            report = analyse(net, fail_fast=True, engine=engine)
            assert not report.schedulable
            assert not report.complete, engine

    def test_fail_fast_on_single_reduction_net(self):
        """A fail-fast stop at the only reduction still reports
        complete=False."""
        from repro.petrinet import NetBuilder

        # a token-free cycle: one T-reduction, consistent but deadlocked
        net = (
            NetBuilder("single_red_deadlock")
            .transition("a")
            .transition("b")
            .place("p1")
            .place("p2")
            .arc("a", "p1")
            .arc("p1", "b")
            .arc("b", "p2")
            .arc("p2", "a")
            .build()
        )
        for engine in ("compiled", "legacy"):
            report = analyse(net, fail_fast=True, engine=engine)
            assert not report.schedulable
            assert not report.complete, engine
            assert len(report.verdicts) == 1


class TestCompiledReductionSurface:
    def test_source_places_of_unschedulable_reductions(self):
        net = unschedulable_merge_net()
        reductions = list(iter_compiled_reductions(net))
        assert len(reductions) == 2
        for reduction in reductions:
            # Figure 3b: each reduction keeps the other branch's place as a
            # producer-less source place
            assert len(reduction.source_places()) == 1
            verdict = check_compiled_reduction(reduction)
            assert not verdict.schedulable

    def test_signatures_distinguish_reductions(self):
        net = independent_choices_net(2, 2)
        signatures = {r.signature() for r in iter_compiled_reductions(net)}
        assert len(signatures) == 4

    def test_decompile_only_on_demand(self):
        net = nested_choices_net(3)
        reduction = next(iter_compiled_reductions(net))
        assert "net" not in reduction._cache
        rebuilt = reduction.net
        assert "net" in reduction._cache
        assert set(rebuilt.transition_names) == reduction.transition_set


class TestFastSemiflows:
    def test_vectorized_prune_fallback_matches(self, monkeypatch):
        """Above the row limit the prune falls back to the O(n)-memory
        reference loop; forcing the fallback must not change results."""
        import numpy as np

        import repro.petrinet.invariants as invariants_module
        from repro.petrinet import incidence_matrices, fast_minimal_semiflows

        net = independent_choices_net(2, 3)
        matrix = incidence_matrices(net).incidence
        baseline = [v.tolist() for v in fast_minimal_semiflows(matrix)]
        monkeypatch.setattr(invariants_module, "_PRUNE_VECTOR_LIMIT", 1)
        forced = [v.tolist() for v in fast_minimal_semiflows(matrix)]
        assert forced == baseline
        exact = [
            [int(x) for x in v]
            for v in invariants_module._minimal_semiflows(matrix)
        ]
        assert baseline == exact
        assert all(
            (np.asarray(v) @ matrix == 0).all() for v in baseline
        )


class TestCorpusQSSSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        specs = generate_corpus(10, seed=7)
        return run_corpus(specs, analyse="qss")

    def test_sweep_fills_qss_columns(self, sweep):
        assert sweep.analyse == "qss"
        assert not sweep.errors
        free_choice = [r for r in sweep.records if r.free_choice]
        assert free_choice, "corpus draw must contain free-choice nets"
        for record in free_choice:
            assert record.schedulable is not None
            assert record.allocations is not None and record.allocations >= 1
            assert record.reductions is not None and record.reductions >= 1
            assert record.cycle_lengths is not None
            if record.schedulable:
                assert len(record.cycle_lengths) == record.reductions
                assert all(length > 0 for length in record.cycle_lengths)

    def test_sweep_skips_property_passes(self, sweep):
        for record in sweep.records:
            assert record.bounded is None
            assert record.reachable_markings is None
            assert not record.exploration_complete
            assert record.coverability_nodes == 0

    def test_sweep_json_round_trip(self, sweep):
        data = corpus_to_json_dict(sweep)
        assert data["schema"] == CORPUS_SCHEMA == "repro-qss.corpus/3"
        assert data["analyse"] == "qss"
        assert data["summary"]["qss"]["swept"] > 0
        assert data["summary"]["qss"]["allocations_total"] >= data["summary"][
            "qss"
        ]["reductions_total"]
        rebuilt = corpus_from_json_dict(data)
        assert corpus_to_json_dict(rebuilt) == data

    def test_sweep_matches_parallel_run(self, sweep):
        specs = generate_corpus(10, seed=7)
        parallel = run_corpus(specs, workers=2, analyse="qss")
        strip = lambda rs: [r.to_dict() | {"elapsed_ms": 0.0} for r in rs]
        assert strip(parallel.records) == strip(sweep.records)

    def test_sweep_csv_encodes_cycle_lengths(self, sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        corpus_to_csv(sweep, str(path))
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(sweep.records)
        for row, record in zip(rows, sweep.records):
            if record.cycle_lengths is not None:
                assert json.loads(row["cycle_lengths"]) == record.cycle_lengths
            else:
                assert row["cycle_lengths"] == ""

    def test_properties_mode_also_fills_sweep_columns(self):
        specs = generate_corpus(4, seed=3)
        result = run_corpus(specs, analyse="properties")
        assert result.analyse == "properties"
        for record in result.records:
            if record.free_choice:
                assert record.allocations is not None
                assert record.cycle_lengths is not None
            # property passes still run in this mode
            assert record.coverability_nodes > 0 or record.error

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus analysis mode"):
            run_corpus(generate_corpus(1, seed=0), analyse="everything")
