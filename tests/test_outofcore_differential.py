"""Differential suite for the out-of-core budgeted frontier exploration.

Pins the spill-to-disk exploration (the compiled engine plus
``memory_budget=``/``spill_dir=``) against the in-RAM explorer, the
legacy oracle and the compiled Karp–Miller construction on the paper
gallery plus seeded nets from the corpus families, under budgets tiny
enough that spilling and chunking trigger even on small nets:

* reachability graphs are **bit-identical** (same marking list, same
  edge list, same ``complete`` flag — the chunked BFS reproduces the
  in-RAM node numbering exactly, including the ``max_markings``
  cutoff point and the ``stop_on_target`` early exit);
* coverability verdicts, place bounds and node counts are identical;
* deadlock sets are identical;
* the budget parser, the spilling visited store and the engine
  validation guard behave as documented;
* every exploration gets a spill directory of its own, an in-RAM one
  makes none, and open logs are closed on every exit path;
* the one level loop equals the exact explorer in every storage (RAM,
  budget, spill directory alone), from the initial marking or another
  start and with a cutoff inside the graph, and under ``stop_on_target``
  both finish the level the target appears in;
* a net without places explores to zero-width rows in every storage.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.gallery import paper_figures
from repro.petrinet import (
    PetriNet,
    ReachabilityGraph,
    build_reachability_graph,
    compile_net,
    coverability_analysis,
    explore_frontier,
    find_deadlocks,
    parse_memory_budget,
)
from repro.petrinet.corpus import CORPUS_FAMILIES, generate_corpus, run_corpus
from repro.petrinet.frontier import _explore_exact
from repro.petrinet.outofcore import VisitedStore
from repro.petrinet.generators import (
    fork_join_pipeline,
    pipeline_net,
    producer_consumer_ring,
)
from repro.petrinet.reachability import _coverability_analysis_compiled

#: Small enough that even ~100-marking nets spill visited shards and
#: split frontiers into chunks (the spill floors are 64 entries / 64
#: rows, far below any real budget's).
TINY_BUDGET = 4096

GRAPH_CAP = 300
COVERABILITY_CAP = 500
SEEDS_PER_FAMILY = 4

GALLERY = sorted(paper_figures())
#: Every corpus family rides through the budgeted path (the issue floor
#: is five families; running all of them costs little at this cap).
FAMILY_CASES = [
    (family, seed)
    for family in sorted(CORPUS_FAMILIES)
    for seed in range(SEEDS_PER_FAMILY)
]


def _family_net(family: str, seed: int) -> PetriNet:
    return CORPUS_FAMILIES[family].spec(seed).build()


def assert_graphs_identical(budgeted: ReachabilityGraph, other: ReachabilityGraph):
    assert budgeted.markings == other.markings
    assert budgeted.edges == other.edges
    assert budgeted.complete == other.complete


def assert_explorations_identical(hashed, exact):
    """Raw arrays, ``complete`` and ``target_index`` are all equal."""
    assert np.array_equal(np.asarray(hashed.matrix), exact.matrix)
    assert np.array_equal(np.asarray(hashed.edge_src), exact.edge_src)
    assert np.array_equal(
        np.asarray(hashed.edge_transition), exact.edge_transition
    )
    assert np.array_equal(np.asarray(hashed.edge_dst), exact.edge_dst)
    assert hashed.complete == exact.complete
    assert hashed.target_index == exact.target_index


#: The storages the one level loop runs on, as ``explore_frontier``
#: keyword arguments for a scratch directory.
STORAGES = {
    "ram": lambda directory: {},
    "budget": lambda directory: {"memory_budget": TINY_BUDGET},
    "spill_dir": lambda directory: {"spill_dir": directory},
}


def _budgeted_graph(net, cap=GRAPH_CAP, **kwargs):
    return build_reachability_graph(
        net, max_markings=cap, memory_budget=TINY_BUDGET, **kwargs
    )


def _legacy_graph(net, cap=GRAPH_CAP):
    return build_reachability_graph(net, max_markings=cap, engine="legacy")


def _karp_miller(net, cap=COVERABILITY_CAP):
    return _coverability_analysis_compiled(compile_net(net), None, cap)


# ----------------------------------------------------------------------
# Gallery + corpus: bit-identity under a tiny forced budget
# ----------------------------------------------------------------------
class TestGallery:
    @pytest.mark.parametrize("figure", GALLERY)
    def test_graphs_identical(self, figure):
        net = paper_figures()[figure]()
        in_ram = build_reachability_graph(net, max_markings=GRAPH_CAP)
        budgeted = _budgeted_graph(net)
        assert_graphs_identical(budgeted, in_ram)
        assert_graphs_identical(budgeted, _legacy_graph(net))

    @pytest.mark.parametrize("figure", GALLERY)
    def test_coverability_identical(self, figure):
        net = paper_figures()[figure]()
        in_ram = _karp_miller(net)
        budgeted = coverability_analysis(
            net, max_nodes=COVERABILITY_CAP, memory_budget=TINY_BUDGET
        )
        assert budgeted.bounded == in_ram.bounded
        assert budgeted.unbounded_places == in_ram.unbounded_places
        assert budgeted.place_bounds == in_ram.place_bounds
        assert budgeted.node_count == in_ram.node_count
        assert budgeted.complete == in_ram.complete


class TestCorpusFamilies:
    @pytest.mark.parametrize("family,seed", FAMILY_CASES)
    def test_graphs_identical(self, family, seed):
        net = _family_net(family, seed)
        assert_graphs_identical(_budgeted_graph(net), _legacy_graph(net))

    @pytest.mark.parametrize("family,seed", FAMILY_CASES)
    def test_deadlock_sets_identical(self, family, seed):
        net = _family_net(family, seed)
        budgeted = find_deadlocks(
            net, max_markings=GRAPH_CAP, memory_budget=TINY_BUDGET
        )
        assert budgeted == find_deadlocks(
            net, max_markings=GRAPH_CAP, engine="legacy"
        )

    @pytest.mark.parametrize("family", sorted(CORPUS_FAMILIES))
    def test_coverability_identical(self, family):
        net = _family_net(family, 0)
        in_ram = _karp_miller(net)
        budgeted = coverability_analysis(
            net, max_nodes=COVERABILITY_CAP, memory_budget=TINY_BUDGET
        )
        assert budgeted.bounded == in_ram.bounded
        assert budgeted.place_bounds == in_ram.place_bounds
        assert budgeted.node_count == in_ram.node_count
        assert budgeted.complete == in_ram.complete


# ----------------------------------------------------------------------
# Spill mechanics
# ----------------------------------------------------------------------
class TestSpillMechanics:
    def test_tiny_budget_really_spills_and_chunks(self):
        # 2401 markings with frontiers wide enough to overflow the
        # 64-row chunk floor at this budget
        compiled = compile_net(producer_consumer_ring(4, 6))
        exploration = explore_frontier(
            compiled, max_markings=10_000, memory_budget=TINY_BUDGET
        )
        spill = exploration.spill
        assert spill is not None
        assert spill.budget_bytes == TINY_BUDGET
        assert spill.shard_count > 0, "tiny budget must force visited shards"
        assert spill.chunk_count > spill.level_count, (
            "tiny budget must split at least one frontier into chunks"
        )
        assert spill.log_bytes > 0

    def test_exploration_matches_in_ram_bit_for_bit(self):
        compiled = compile_net(producer_consumer_ring(4, 3))
        in_ram = explore_frontier(compiled, max_markings=1_000)
        budgeted = explore_frontier(
            compiled, max_markings=1_000, memory_budget=TINY_BUDGET
        )
        assert np.array_equal(np.asarray(budgeted.matrix), in_ram.matrix)
        assert np.array_equal(np.asarray(budgeted.edge_src), in_ram.edge_src)
        assert np.array_equal(
            np.asarray(budgeted.edge_transition), in_ram.edge_transition
        )
        assert np.array_equal(np.asarray(budgeted.edge_dst), in_ram.edge_dst)
        assert budgeted.complete == in_ram.complete

    @pytest.mark.parametrize("cap", [1, 2, 7, 17, 50, 100])
    def test_truncation_cutoff_identical(self, cap):
        """The max_markings cutoff lands on the same node and edge."""
        for net in [producer_consumer_ring(3, 2), pipeline_net(3, rates=[2, 1, 3])]:
            assert_graphs_identical(
                _budgeted_graph(net, cap=cap), _legacy_graph(net, cap=cap)
            )

    def test_stop_on_target_identical(self):
        compiled = compile_net(producer_consumer_ring(5, 3))
        full = explore_frontier(compiled, max_markings=100_000)
        target = tuple(int(v) for v in full.matrix[137])
        in_ram = explore_frontier(
            compiled, target=target, stop_on_target=True, max_markings=100_000
        )
        budgeted = explore_frontier(
            compiled,
            target=target,
            stop_on_target=True,
            max_markings=100_000,
            memory_budget=TINY_BUDGET,
        )
        assert budgeted.target_index == in_ram.target_index == 137
        assert budgeted.complete is False
        assert np.array_equal(np.asarray(budgeted.matrix), in_ram.matrix)
        assert np.array_equal(np.asarray(budgeted.edge_dst), in_ram.edge_dst)

    @pytest.mark.parametrize("storage", sorted(STORAGES))
    def test_net_without_places(self, storage, tmp_path):
        """Zero-width marking rows: one (1, 0) matrix and one self-loop
        edge in every storage, as the legacy graph has."""
        net = PetriNet("no_places")
        net.add_transition("t")
        exploration = explore_frontier(
            compile_net(net), **STORAGES[storage](tmp_path)
        )
        assert np.asarray(exploration.matrix).shape == (1, 0)
        assert [
            np.asarray(column).tolist()
            for column in (
                exploration.edge_src,
                exploration.edge_transition,
                exploration.edge_dst,
            )
        ] == [[0], [0], [0]]
        assert exploration.complete
        assert _legacy_graph(net).edges == [(0, "t", 0)]

    def test_collect_edges_false_leaves_logs_empty(self):
        compiled = compile_net(producer_consumer_ring(4, 3))
        exploration = explore_frontier(
            compiled,
            max_markings=1_000,
            collect_edges=False,
            memory_budget=TINY_BUDGET,
        )
        assert exploration.edge_src.size == 0
        assert exploration.node_count == 256

    def test_user_spill_dir_is_kept(self, tmp_path):
        compiled = compile_net(producer_consumer_ring(4, 3))
        spill_dir = tmp_path / "nested" / "spill"  # created on demand
        exploration = explore_frontier(
            compiled,
            max_markings=1_000,
            memory_budget=TINY_BUDGET,
            spill_dir=spill_dir,
        )
        run_dir = Path(exploration.spill.spill_dir)
        assert run_dir.parent == spill_dir, "each run spills into its own subdirectory"
        kept = list(run_dir.iterdir())
        assert kept, "a user-provided spill dir must retain its files"
        assert any(p.name.startswith("visited-") for p in kept)

    def test_explorations_never_share_spill_files(self, tmp_path):
        """A second exploration into the same spill_dir leaves the first
        one's memory-mapped logs as they were."""
        first = explore_frontier(
            compile_net(producer_consumer_ring(2, 1)), spill_dir=tmp_path
        )
        matrix, edge_dst = np.array(first.matrix), np.array(first.edge_dst)
        second = explore_frontier(
            compile_net(producer_consumer_ring(4, 4)), spill_dir=tmp_path
        )
        assert second.node_count > first.node_count
        assert np.array_equal(first.matrix, matrix)
        assert np.array_equal(first.edge_dst, edge_dst)

    def test_corpus_workers_share_one_spill_dir(self, tmp_path):
        """Two pool workers spilling into one spill_dir: the run ends
        (a worker killed by a rewritten log would leave ``Pool.map``
        waiting forever) and its records equal the in-RAM run's."""
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from repro.petrinet.corpus import generate_corpus, run_corpus\n"
            "result = run_corpus(generate_corpus(24, seed=0), workers=2, "
            "memory_budget='16KB', spill_dir=sys.argv[1])\n"
            "print(json.dumps([r.to_dict() for r in result.records]))\n"
        )
        # a session of its own, so a hung pool's workers die with it
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the 2-worker corpus run spilling into one dir hung")
        assert proc.returncode == 0, err

        def records(dicts):
            return [{**record, "elapsed_ms": 0.0} for record in dicts]

        in_ram = run_corpus(generate_corpus(24, seed=0))
        expected = json.loads(json.dumps([r.to_dict() for r in in_ram.records]))
        assert records(json.loads(out)) == records(expected)

    def test_spill_dir_alone_forces_outofcore_path(self, tmp_path):
        """``spill_dir`` without a budget still routes out-of-core (no
        shards — everything fits — but the marking log streams there)."""
        net = producer_consumer_ring(3, 2)
        graph = build_reachability_graph(
            net, max_markings=GRAPH_CAP, spill_dir=tmp_path
        )
        assert_graphs_identical(graph, _legacy_graph(net))
        assert graph._exploration.spill is not None
        assert graph._exploration.spill.shard_count == 0

    def test_in_ram_exploration_makes_no_spill_dir(self, monkeypatch):
        def no_temp_dirs(*args, **kwargs):
            raise AssertionError("an in-RAM exploration made a spill dir")

        monkeypatch.setattr(tempfile, "mkdtemp", no_temp_dirs)
        compiled = compile_net(fork_join_pipeline(3, 4, closed=True))
        exploration = explore_frontier(compiled, max_markings=10_000)
        assert exploration.spill is None
        assert exploration.complete


# ----------------------------------------------------------------------
# Budget parser + visited store unit coverage
# ----------------------------------------------------------------------
class TestParseMemoryBudget:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (None, None),
            (4096, 4096),
            ("4096", 4096),
            ("512b", 512),
            ("1k", 1024),
            ("2KB", 2048),
            ("3KiB", 3072),
            ("64MB", 64 * 2**20),
            ("1.5GiB", int(1.5 * 2**30)),
            (" 8 mb ", 8 * 2**20),
            ("1_000", 1000),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "-5", "10TB", "MB", 0, -1])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_memory_budget(bad)


class TestVisitedStore:
    def test_lookup_across_spilled_shards(self, tmp_path):
        store = VisitedStore(tmp_path, segment_entries=64)
        rng = np.random.default_rng(7)
        h1 = np.sort(rng.choice(10_000, size=300, replace=False).astype(np.int64))
        h2 = h1 * 31 + 5
        idx = np.arange(300, dtype=np.int64)
        for at in range(0, 300, 50):  # several inserts => several spills
            chunk = slice(at, at + 50)
            store.insert(h1[chunk], h2[chunk], idx[chunk])
        assert store.shard_count >= 3
        found, index, h2_out = store.lookup(h1)
        assert found.all()
        assert np.array_equal(index, idx)
        assert np.array_equal(h2_out, h2)
        missing = np.array([10_001, 20_002], dtype=np.int64)
        found, _, _ = store.lookup(missing)
        assert not found.any()


# ----------------------------------------------------------------------
# Validation + fallback
# ----------------------------------------------------------------------
class TestValidation:
    def test_legacy_rejects_the_knobs(self):
        net = producer_consumer_ring(2, 2)
        with pytest.raises(ValueError, match="legacy"):
            build_reachability_graph(
                net, engine="legacy", memory_budget=TINY_BUDGET
            )
        with pytest.raises(ValueError, match="legacy"):
            coverability_analysis(net, engine="legacy", spill_dir="/tmp/x")
        with pytest.raises(ValueError, match="legacy"):
            find_deadlocks(net, engine="legacy", memory_budget=TINY_BUDGET)

    def test_compiled_accepts_the_knobs(self, tmp_path):
        net = producer_consumer_ring(2, 2)
        reference = find_deadlocks(net, engine="legacy")
        assert find_deadlocks(net, memory_budget=TINY_BUDGET) == reference
        assert find_deadlocks(net, spill_dir=tmp_path) == reference
        assert coverability_analysis(net, memory_budget=TINY_BUDGET).bounded

    def test_malformed_budget_fails_at_the_boundary(self):
        net = producer_consumer_ring(2, 2)
        with pytest.raises(ValueError, match="unparseable memory budget"):
            build_reachability_graph(net, memory_budget="bogus")
        # a source net skips the budgeted prefix, yet the budget is refused
        with pytest.raises(ValueError, match="unparseable memory budget"):
            coverability_analysis(pipeline_net(2, rates=[1, 1]), memory_budget="bogus")

    def test_corpus_rejects_budget_on_legacy(self):
        specs = generate_corpus(2, seed=0)
        with pytest.raises(ValueError, match="legacy"):
            run_corpus(specs, engine="legacy", memory_budget=TINY_BUDGET)

    def test_corpus_malformed_budget_fails_before_any_net(self, monkeypatch):
        import repro.petrinet.corpus as corpus_module

        built = []
        monkeypatch.setattr(corpus_module, "_cached_net", built.append)
        specs = generate_corpus(3, seed=0)
        with pytest.raises(ValueError, match="unparseable memory budget 'bogus'"):
            run_corpus(specs, memory_budget="bogus")
        assert built == []

    def test_corpus_budgeted_records_match_in_ram(self):
        specs = generate_corpus(4, seed=11)
        budgeted = run_corpus(specs, memory_budget=TINY_BUDGET)
        in_ram = run_corpus(specs)
        legacy = run_corpus(specs, engine="legacy")
        assert not budgeted.errors

        def records(result):
            return [{**r.to_dict(), "elapsed_ms": 0.0} for r in result.records]

        assert records(budgeted) == records(in_ram) == records(legacy)

    @pytest.mark.parametrize("explorer", ["hashed", "exact", "budget"])
    @pytest.mark.parametrize("components", [1, 3])
    @pytest.mark.parametrize("argument", ["start", "target"])
    def test_marking_of_the_wrong_length_is_refused(
        self, argument, components, explorer
    ):
        """``start`` and ``target`` need one component per place in every
        explorer: a malformed one is refused by name, never broadcast
        across the places."""
        net = PetriNet("two_places")
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_transition("t")
        net.add_transition("u")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        net.add_arc("q", "u")
        compiled = compile_net(net)
        marking = {argument: (0,) * components}
        match = f"{argument} marking has {components} components, net has 2 places"
        with pytest.raises(ValueError, match=match):
            if explorer == "exact":
                _explore_exact(
                    compiled,
                    marking.get("start"),
                    100,
                    marking.get("target"),
                    False,
                    True,
                )
            elif explorer == "budget":
                explore_frontier(compiled, memory_budget=TINY_BUDGET, **marking)
            else:
                explore_frontier(compiled, **marking)

    def test_hash_disagreement_falls_back_to_exact(self, monkeypatch, tmp_path):
        """One forced second-hash mismatch in the visited store: every
        storage answers with the exact explorer's result, and the
        spilling ones close their open logs (no ResourceWarning)."""
        real_lookup = VisitedStore.lookup
        forced = []

        def disagreeing_lookup(store, queries):
            found, index, h2 = real_lookup(store, queries)
            if found.any() and not forced:
                forced.append(True)
                h2 = h2.copy()
                h2[found] ^= 1
            return found, index, h2

        monkeypatch.setattr(VisitedStore, "lookup", disagreeing_lookup)
        compiled = compile_net(producer_consumer_ring(3, 2))
        exact = _explore_exact(compiled, None, 200, None, False, True)
        for storage in ("budget", "spill_dir", "ram"):
            forced.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                exploration = explore_frontier(
                    compiled,
                    max_markings=200,
                    **STORAGES[storage](tmp_path / storage),
                )
                gc.collect()
            assert forced, f"{storage}: the mismatch was never forced"
            assert exploration.spill is None, f"{storage}: exact did not run"
            assert_explorations_identical(exploration, exact)
            leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
            assert not leaked, f"{storage}: {[str(w.message) for w in leaked]}"


# ----------------------------------------------------------------------
# The one level loop: every storage equals the exact explorer
# ----------------------------------------------------------------------
ONE_LOOP_NETS = [("figure", figure) for figure in GALLERY] + [
    (family, seed) for family in sorted(CORPUS_FAMILIES) for seed in range(2)
]

#: The ``(start, max_markings)`` of each one-loop run, from the net's
#: full exploration: the initial marking up to the cap, a cutoff in the
#: middle of that graph, or a restart from its last discovered marking.
ONE_LOOP_RUNS = {
    "plain": lambda full: (None, GRAPH_CAP),
    "capped": lambda full: (None, full.node_count // 2),
    "restart": lambda full: (tuple(full.matrix[-1].tolist()), GRAPH_CAP),
}


class TestOneLoop:
    @pytest.mark.parametrize("run", list(ONE_LOOP_RUNS))
    @pytest.mark.parametrize("storage", sorted(STORAGES))
    @pytest.mark.parametrize(
        "source,key", ONE_LOOP_NETS, ids=[f"{s}-{k}" for s, k in ONE_LOOP_NETS]
    )
    def test_equals_exact_explorer(self, source, key, storage, run, tmp_path):
        net = (
            paper_figures()[key]() if source == "figure" else _family_net(source, key)
        )
        compiled = compile_net(net)
        full = _explore_exact(compiled, None, GRAPH_CAP, None, False, True)
        start, cap = ONE_LOOP_RUNS[run](full)
        reference = _explore_exact(compiled, start, cap, None, False, True)
        if run == "capped":
            assert not reference.complete  # the cutoff lands inside the graph
        middle = reference.node_count // 2
        target = tuple(reference.matrix[middle].tolist())
        exact = _explore_exact(compiled, start, cap, target, False, True)
        hashed = explore_frontier(
            compiled,
            start=start,
            max_markings=cap,
            target=target,
            **STORAGES[storage](tmp_path),
        )
        assert (hashed.spill is None) == (storage == "ram")
        assert exact.target_index == middle
        assert_explorations_identical(hashed, exact)

    @pytest.mark.parametrize("storage", sorted(STORAGES))
    def test_stop_on_target_equals_exact_explorer(self, storage, tmp_path):
        """Both explorers stop at the end of the target's BFS level."""
        compiled = compile_net(producer_consumer_ring(5, 3))
        full = explore_frontier(compiled, max_markings=100_000)
        target = tuple(int(v) for v in full.matrix[137])
        exact = _explore_exact(compiled, None, 100_000, target, True, True)
        hashed = explore_frontier(
            compiled,
            target=target,
            stop_on_target=True,
            max_markings=100_000,
            **STORAGES[storage](tmp_path),
        )
        assert (exact.target_index, exact.complete) == (137, False)
        assert (exact.node_count, exact.edge_count) == (152, 392)
        assert_explorations_identical(hashed, exact)

