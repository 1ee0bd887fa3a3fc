"""E10 — complexity remarks of Sections 3 and 4, plus the engine shoot-out.

The paper states that (1) the number of T-reductions is exponential in
the number of conflicting transitions, (2) statically scheduling each
T-reduction is polynomial, and (3) the generated code is linear in the
size of the net.  These benches measure all three shapes on synthetic
families:

* ``independent_choices_net(k)`` — the number of distinct reductions is
  exactly 2^k and the analysis time grows with it;
* ``nested_choices_net(k)`` — the number of *distinct* reductions stays
  linear (k+1) even though there are 2^k allocations, showing why the
  deduplication matters;
* code size versus pipeline length — generated lines grow linearly.

The ``TestCompiledVsLegacyEngine`` section compares the integer-indexed
compiled engine against the legacy dict-based token game on the largest
net generated by this module (``independent_choices_net(LARGEST_CHOICES)``)
and enforces the performance contract of the compiled core: the
token-game hot loop must be at least 5x faster, with both engines
producing byte-identical results.

The ``TestFrontierEngine`` section enforces the batched state-space
exploration contract: building the reachability graph with the
compiled engine (the frontier-batched explorer) must be at least 20x
faster than the legacy oracle on two of three nets with >= 10k
reachable markings, and at least 15x on all three, with both engines
producing graphs that are node- and edge-identical.  Every timed run is
recorded to ``BENCH_reachability.json`` (via :mod:`bench_io`) so CI can
archive the perf trajectory; ``python benchmarks/bench_scalability.py
--smoke`` runs the functional equivalence pass plus one timed round and
emits the same JSON without enforcing the speedup floor (the mode the
CI reachability smoke uses).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pytest

from bench_io import append_history, record_bench_rows
from repro.codegen import emit_c, synthesize
from repro.petrinet import (
    CompiledSimulator,
    Simulator,
    build_reachability_graph,
    compile_net,
    explore_frontier,
    make_random_policy,
    parse_memory_budget,
)
from repro.petrinet.generators import (
    fork_join_pipeline,
    independent_choices_net,
    nested_choices_net,
    pipeline_net,
    producer_consumer_ring,
)
from repro.qss import analyse, compute_valid_schedule, count_distinct_reductions

#: Size of the largest generated net in this module: 8 independent binary
#: choices — 2^8 = 256 distinct T-reductions, 40 transitions, 24 places.
LARGEST_CHOICES = 8

#: The compiled-vs-legacy reachability contract nets: each explores
#: >= 10k distinct markings within its cap (all are truncated
#: explorations of much larger state spaces, so the >= 10k floor holds
#: with a wide margin).
FRONTIER_CONTRACT_NETS = [
    ("producer_consumer_ring_7x4", lambda: producer_consumer_ring(7, 4), 50_000),
    ("fork_join_pipeline_3x6", lambda: fork_join_pipeline(3, 6, closed=False), 50_000),
    ("pipeline_8", lambda: pipeline_net(8, rates=[1] * 8), 50_000),
]

#: The reachability contract: construction on the compiled engine must be
#: >= 20x faster than the legacy oracle on at least
#: REQUIRED_FRONTIER_NETS of the contract nets, and never below the
#: per-net floor (measured 28-36x on a 2-core VM, Python 3.11; the
#: two-tier floor keeps a single noisy CI measurement from failing the
#: whole contract).
REQUIRED_FRONTIER_SPEEDUP = 20.0
REQUIRED_FRONTIER_NETS = 2
FRONTIER_SPEEDUP_FLOOR = 15.0

#: The out-of-core contract nets.  ``producer_consumer_ring(s, c)``
#: has exactly ``(c + 1) ** s`` reachable markings, so the state-space
#: size is known in closed form and the budget can be pinned *below*
#: the marking-matrix bytes (``(c+1)^s * places * 8``) — completing
#: bit-identically under that budget proves the engine really ran out
#: of core rather than fitting everything in RAM:
#:
#: * ``--ooc-smoke``: ring(6,9) — 10^6 markings, 12 places, 96 MB
#:   matrix, explored under a 32 MB budget (the CI smoke, ~10 s);
#: * ``--ooc`` / ``REPRO_QSS_OOC=1`` pytest: ring(7,9) — 10^7
#:   markings, 14 places, 1120 MB matrix, explored under a 256 MB
#:   budget (the enforced contract; minutes, so it runs in a dedicated
#:   CI job rather than the test matrix);
#: * ``--ooc-full``: ring(8,9) — 10^8 markings, 16 places, 12.8 GB
#:   matrix, explored under a 4 GB budget with ``collect_edges=False``
#:   (documented non-CI mode: needs tens of GB of spill disk and a
#:   long lunch; verifies the closed-form node count instead of a
#:   second full in-RAM run).
OOC_SMOKE_NET = ("producer_consumer_ring_6x9", (6, 9), "32MB")
OOC_CONTRACT_NET = ("producer_consumer_ring_7x9", (7, 9), "256MB")
OOC_FULL_NET = ("producer_consumer_ring_8x9", (8, 9), "4GB")


@pytest.mark.parametrize("choices", [2, 4, 6, 8])
def test_reductions_exponential_in_independent_choices(benchmark, choices):
    net = independent_choices_net(choices)

    report = benchmark(analyse, net)

    assert report.reduction_count == 2**choices
    assert report.schedulable
    benchmark.extra_info["choices"] = choices
    benchmark.extra_info["reductions"] = report.reduction_count


@pytest.mark.parametrize("depth", [4, 8, 12])
def test_nested_choices_stay_linear(benchmark, depth):
    net = nested_choices_net(depth)

    count = benchmark(count_distinct_reductions, net)

    assert count == depth + 1
    benchmark.extra_info["choice_places"] = depth
    benchmark.extra_info["allocations"] = 2**depth
    benchmark.extra_info["distinct_reductions"] = count


# ----------------------------------------------------------------------
# Compiled vs legacy engine on the largest generated net
# ----------------------------------------------------------------------
def _best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall time — robust against scheduler noise on CI boxes."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


class TestCompiledVsLegacyEngine:
    def test_token_game_engine_at_least_5x_faster(self):
        """The compiled token-game loop must beat the dict path >= 5x.

        Simulates the same reproducible random walk on the largest
        generated net with both engines; this is the hot loop under
        every scenario fan-out, so it is the speedup the refactor is
        accountable for.  (Measured ~8-11x on a development machine —
        the 5x floor leaves headroom for noisy CI runners.)
        """
        net = independent_choices_net(LARGEST_CHOICES)
        steps = 10_000

        def legacy():
            return Simulator(net, policy=make_random_policy(29)).run(steps)

        def compiled():
            return CompiledSimulator(
                net, policy=make_random_policy(29), record_markings=False
            ).run(steps)

        # the engines must do identical work before their times compare
        legacy_trace = legacy()
        compiled_trace = compiled()
        assert compiled_trace.fired == legacy_trace.fired
        assert compiled_trace.final_marking == legacy_trace.final_marking

        legacy_time = _best_of(legacy)
        compiled_time = _best_of(compiled)
        speedup = legacy_time / compiled_time
        print(
            f"\ntoken game on independent_choices_net({LARGEST_CHOICES}): "
            f"legacy={legacy_time * 1000:.1f}ms compiled={compiled_time * 1000:.1f}ms "
            f"speedup={speedup:.1f}x"
        )
        assert speedup >= 5.0, (
            f"compiled engine only {speedup:.1f}x faster than the legacy "
            f"dict path (contract: >= 5x)"
        )

    def test_reachability_exploration_faster_and_identical(self):
        """Reachability on the largest net: same graph, >= 2.5x faster.

        The exploration also pays for decompiling every discovered
        marking back to the named representation, so its floor is lower
        than the raw token-game loop (~4x measured).
        """
        net = independent_choices_net(LARGEST_CHOICES)
        cap = 10_000

        legacy_graph = build_reachability_graph(net, max_markings=cap, engine="legacy")
        compiled_graph = build_reachability_graph(
            net, max_markings=cap, engine="compiled"
        )
        assert compiled_graph.markings == legacy_graph.markings
        assert compiled_graph.edges == legacy_graph.edges
        assert compiled_graph.complete == legacy_graph.complete

        legacy_time = _best_of(
            lambda: build_reachability_graph(net, max_markings=cap, engine="legacy")
        )
        compiled_time = _best_of(
            lambda: build_reachability_graph(net, max_markings=cap, engine="compiled")
        )
        speedup = legacy_time / compiled_time
        print(
            f"\nreachability ({cap} markings): legacy={legacy_time * 1000:.1f}ms "
            f"compiled={compiled_time * 1000:.1f}ms speedup={speedup:.1f}x"
        )
        assert speedup >= 2.5

    def test_qss_verdicts_identical_across_engines(self):
        """Full QSS analysis of the largest net agrees between engines."""
        net = independent_choices_net(LARGEST_CHOICES)
        legacy = analyse(net, engine="legacy")
        compiled = analyse(net, engine="compiled")
        assert compiled.schedulable == legacy.schedulable
        assert compiled.reduction_count == legacy.reduction_count == 2**LARGEST_CHOICES
        assert [v.cycle for v in compiled.verdicts] == [
            v.cycle for v in legacy.verdicts
        ]


# ----------------------------------------------------------------------
# Compiled (frontier-batched) vs legacy on >= 10k-marking state spaces
# ----------------------------------------------------------------------
def _frontier_rows(name, build, cap, rounds=3):
    """Measure both engines on one contract net; returns bench JSON rows.

    The compiled engine gets a pre-compiled net so it skips
    compilation, and the graphs are checked node- and edge-identical
    before any timing counts.  Timing interleaves the engines round by
    round (best-of per engine), so a slow scheduling window on a noisy
    box hits both engines rather than skewing the ratio.
    """
    net = build()
    compiled = compile_net(net)
    compiled_graph = build_reachability_graph(compiled, max_markings=cap)
    legacy_graph = build_reachability_graph(net, max_markings=cap, engine="legacy")
    assert compiled_graph.markings == legacy_graph.markings
    assert compiled_graph.edges == legacy_graph.edges
    assert compiled_graph.complete == legacy_graph.complete
    assert compiled_graph.num_markings >= 10_000

    legacy_time = compiled_time = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        build_reachability_graph(net, max_markings=cap, engine="legacy")
        legacy_time = min(legacy_time, time.perf_counter() - started)
        started = time.perf_counter()
        build_reachability_graph(compiled, max_markings=cap)
        compiled_time = min(compiled_time, time.perf_counter() - started)
    speedup = legacy_time / compiled_time
    rows = [
        {
            "engine": "legacy",
            "net": name,
            "nodes": compiled_graph.num_markings,
            "edges": compiled_graph.num_edges,
            "seconds": round(legacy_time, 6),
            "speedup": 1.0,
        },
        {
            "engine": "compiled",
            "net": name,
            "nodes": compiled_graph.num_markings,
            "edges": compiled_graph.num_edges,
            "seconds": round(compiled_time, 6),
            "speedup": round(speedup, 2),
        },
    ]
    return rows, speedup


class TestFrontierEngine:
    def test_frontier_graph_construction_beats_legacy(self):
        """Reachability contract: identical graphs, >= 20x over legacy.

        Construction is what is timed: the compiled engine keeps the
        graph in integer-array form and materializes the named
        markings/edges views lazily (the equality assertions before the
        timings force full materialization, so identity is proven on
        the complete named graphs).  The contract is two-tier: >= 20x
        on at least two of the three contract nets, and >= 15x on every
        one — one noisy measurement cannot fail the run, a real
        regression fails it loudly.
        """
        speedups = {}
        for name, build, cap in FRONTIER_CONTRACT_NETS:
            rows, speedup = _frontier_rows(name, build, cap)
            record_bench_rows("reachability", rows)
            speedups[name] = speedup
            print(
                f"\nreachability {name}: legacy={rows[0]['seconds'] * 1000:.1f}ms "
                f"compiled={rows[1]['seconds'] * 1000:.1f}ms speedup={speedup:.1f}x"
            )
        meeting = [s for s in speedups.values() if s >= REQUIRED_FRONTIER_SPEEDUP]
        assert len(meeting) >= REQUIRED_FRONTIER_NETS, (
            f"compiled engine must be >= {REQUIRED_FRONTIER_SPEEDUP}x faster "
            f"than legacy on at least {REQUIRED_FRONTIER_NETS} contract "
            f"nets; measured {speedups}"
        )
        worst = min(speedups.values())
        assert worst >= FRONTIER_SPEEDUP_FLOOR, (
            f"compiled speedup fell below the {FRONTIER_SPEEDUP_FLOOR}x "
            f"floor: {speedups}"
        )


# ----------------------------------------------------------------------
# Out-of-core (memory-budgeted) exploration contract
# ----------------------------------------------------------------------
def _assert_explorations_identical(in_ram, budgeted) -> None:
    """Bit-identity of two explorations, asserted on the raw arrays.

    Comparing the integer arrays instead of the named views keeps the
    check affordable at 10^7 markings (no 10^7 ``Marking`` objects)."""
    assert budgeted.complete == in_ram.complete
    assert budgeted.node_count == in_ram.node_count
    assert budgeted.edge_count == in_ram.edge_count
    assert np.array_equal(np.asarray(budgeted.matrix), in_ram.matrix)
    assert np.array_equal(np.asarray(budgeted.edge_src), in_ram.edge_src)
    assert np.array_equal(
        np.asarray(budgeted.edge_transition), in_ram.edge_transition
    )
    assert np.array_equal(np.asarray(budgeted.edge_dst), in_ram.edge_dst)


def _ooc_rows(name, params, budget):
    """Run one out-of-core contract net; returns (rows, spill stats).

    Explores the full ``(c+1)^s``-marking state space twice — once
    in-RAM, once under ``budget`` — proves the graphs bit-identical,
    and proves the budget really was smaller than the marking matrix
    (so the budgeted run could not have kept the state space in RAM).
    """
    stations, capacity = params
    expected = (capacity + 1) ** stations
    compiled = compile_net(producer_consumer_ring(stations, capacity))
    cap = 2 * expected

    started = time.perf_counter()
    in_ram = explore_frontier(compiled, max_markings=cap)
    in_ram_seconds = time.perf_counter() - started
    assert in_ram.complete and in_ram.node_count == expected

    started = time.perf_counter()
    budgeted = explore_frontier(compiled, max_markings=cap, memory_budget=budget)
    ooc_seconds = time.perf_counter() - started
    spill = budgeted.spill
    _assert_explorations_identical(in_ram, budgeted)

    matrix_bytes = int(in_ram.matrix.nbytes)
    budget_bytes = parse_memory_budget(budget)
    assert budget_bytes < matrix_bytes, (
        f"contract budget {budget_bytes} must be below the marking "
        f"matrix ({matrix_bytes} bytes) or the run proves nothing"
    )
    assert spill is not None and spill.shard_count > 0
    rows = [
        {
            "engine": "compiled",
            "net": name,
            "nodes": in_ram.node_count,
            "edges": in_ram.edge_count,
            "seconds": round(in_ram_seconds, 6),
            "speedup": 1.0,
        },
        {
            "engine": "compiled-ooc",
            "net": name,
            "nodes": budgeted.node_count,
            "edges": budgeted.edge_count,
            "seconds": round(ooc_seconds, 6),
            "speedup": round(in_ram_seconds / ooc_seconds, 2),
            "memory_budget": budget,
            "memory_budget_bytes": budget_bytes,
            "matrix_bytes": matrix_bytes,
            "spill_shards": spill.shard_count,
            "spill_shard_bytes": spill.shard_bytes,
            "spill_log_bytes": spill.log_bytes,
            "chunks": spill.chunk_count,
        },
    ]
    return rows, spill


class TestOutOfCoreEngine:
    def test_outofcore_bit_identical_under_forced_spill(self):
        """A tiny budget forces shards + chunking on a small net, and
        the exploration stays bit-identical to the in-RAM path."""
        compiled = compile_net(producer_consumer_ring(4, 6))  # 2401 markings
        in_ram = explore_frontier(compiled, max_markings=10_000)
        budgeted = explore_frontier(
            compiled, max_markings=10_000, memory_budget=32 * 1024
        )
        _assert_explorations_identical(in_ram, budgeted)
        assert budgeted.spill.shard_count > 0, "budget too big: nothing spilled"
        assert budgeted.spill.chunk_count > budgeted.spill.level_count

    @pytest.mark.skipif(
        not os.environ.get("REPRO_QSS_OOC"),
        reason="10^7-marking contract takes minutes; set REPRO_QSS_OOC=1 "
        "(the dedicated CI out-of-core job does)",
    )
    def test_outofcore_contract_10m_markings(self):
        """The enforced contract: 10^7 markings, bit-identical, under a
        budget ~4x below the marking matrix.  Rows are recorded so the
        CI artifact carries the trajectory."""
        name, params, budget = OOC_CONTRACT_NET
        rows, spill = _ooc_rows(name, params, budget)
        record_bench_rows("reachability", rows)
        print(
            f"\nout-of-core {name}: {rows[0]['nodes']} markings, "
            f"in-RAM {rows[0]['seconds']:.1f}s vs budgeted "
            f"{rows[1]['seconds']:.1f}s under {budget} "
            f"({spill.shard_count} shards, {spill.chunk_count} chunks)"
        )


def _ooc_mode(contract) -> int:
    """Shared driver for ``--ooc-smoke`` (10^6) and ``--ooc`` (10^7):
    run the contract net, record rows, append the committed history."""
    name, params, budget = contract
    rows, spill = _ooc_rows(name, params, budget)
    path = record_bench_rows("reachability", rows)
    entry = {
        "config": "in-RAM vs out-of-core compiled exploration",
        "nets": {
            name: {
                "nodes": rows[0]["nodes"],
                "edges": rows[0]["edges"],
                "in_ram_seconds": rows[0]["seconds"],
                "ooc_seconds": rows[1]["seconds"],
                "memory_budget": budget,
                "matrix_bytes": rows[1]["matrix_bytes"],
                "spill_shards": spill.shard_count,
                "chunks": spill.chunk_count,
            }
        }
    }
    history = append_history("reachability", entry)
    print(
        f"ooc {name}: {rows[0]['nodes']} markings bit-identical under "
        f"{budget} (matrix {rows[1]['matrix_bytes'] / 2**20:.0f} MiB, "
        f"{spill.shard_count} shards, {spill.chunk_count} chunks), "
        f"in-RAM {rows[0]['seconds']:.1f}s vs out-of-core "
        f"{rows[1]['seconds']:.1f}s -> {path}"
    )
    print(f"ooc {name}: history appended -> {history}")
    return 0


def _ooc_full() -> int:
    """Non-CI scale proof: 10^8 markings under a 4 GB budget.

    No second in-RAM exploration at this size (the matrix alone is
    12.8 GB); correctness is pinned by the closed-form state-space
    size of the ring family instead.  Needs tens of GB of free disk
    for the spill logs."""
    name, (stations, capacity), budget = OOC_FULL_NET
    expected = (capacity + 1) ** stations
    compiled = compile_net(producer_consumer_ring(stations, capacity))
    started = time.perf_counter()
    exploration = explore_frontier(
        compiled,
        max_markings=2 * expected,
        collect_edges=False,
        memory_budget=budget,
    )
    seconds = time.perf_counter() - started
    spill = exploration.spill
    assert exploration.complete and exploration.node_count == expected
    assert spill is not None and spill.shard_count > 0
    rows = [
        {
            "engine": "compiled-ooc",
            "net": name,
            "nodes": exploration.node_count,
            "edges": 0,
            "seconds": round(seconds, 3),
            "memory_budget": budget,
            "spill_shards": spill.shard_count,
            "spill_shard_bytes": spill.shard_bytes,
            "spill_log_bytes": spill.log_bytes,
            "chunks": spill.chunk_count,
        }
    ]
    path = record_bench_rows("reachability", rows)
    print(
        f"ooc-full {name}: {expected} markings complete under {budget} "
        f"in {seconds:.0f}s ({spill.shard_count} shards, "
        f"{spill.log_bytes / 2**30:.1f} GiB logged) -> {path}"
    )
    return 0


@pytest.mark.parametrize("engine", ["legacy", "compiled"])
def test_reachability_engine_timings(benchmark, engine):
    """pytest-benchmark report rows for the two reachability engines."""
    net = independent_choices_net(LARGEST_CHOICES)
    graph = benchmark(
        build_reachability_graph, net, max_markings=5_000, engine=engine
    )
    assert graph.num_markings == 5_000
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["markings"] = graph.num_markings


@pytest.mark.parametrize("engine", ["legacy", "compiled"])
def test_qss_engine_timings(benchmark, engine):
    """pytest-benchmark report rows for the QSS analysis engines."""
    net = independent_choices_net(6)
    report = benchmark(analyse, net, engine=engine)
    assert report.schedulable
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["reductions"] = report.reduction_count


@pytest.mark.parametrize("stages", [4, 8, 16, 32])
def test_generated_code_linear_in_net_size(benchmark, stages):
    net = pipeline_net(stages, rates=[1] * stages)

    def run():
        schedule = compute_valid_schedule(net)
        return emit_c(synthesize(schedule))

    emission = benchmark(run)

    lines_per_stage = emission.lines_of_code / stages
    # linear growth: the per-stage cost is bounded by a small constant
    assert lines_per_stage < 12
    benchmark.extra_info["stages"] = stages
    benchmark.extra_info["lines_of_code"] = emission.lines_of_code
    benchmark.extra_info["lines_per_stage"] = round(lines_per_stage, 2)


def _smoke() -> int:
    """Fast functional pass: compiled == legacy graphs on the contract
    nets plus one timed round recorded to ``BENCH_reachability.json``
    and appended to the committed ``BENCH_reachability.history.json``
    (no speedup floor — CI enforces that in the pytest pass)."""
    entry = {"config": "reachability compiled vs legacy", "nets": {}}
    for name, build, cap in FRONTIER_CONTRACT_NETS:
        rows, speedup = _frontier_rows(name, build, cap, rounds=1)
        path = record_bench_rows("reachability", rows)
        entry["nets"][name] = {
            "nodes": rows[0]["nodes"],
            "edges": rows[0]["edges"],
            "legacy_seconds": rows[0]["seconds"],
            "compiled_seconds": rows[1]["seconds"],
            "speedup": rows[1]["speedup"],
        }
        print(
            f"smoke {name}: {rows[0]['nodes']} markings, "
            f"{rows[0]['edges']} edges — graphs identical, "
            f"compiled speedup {speedup:.1f}x -> {path}"
        )
    history = append_history("reachability", entry)
    print(f"smoke reachability: history appended -> {history}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    if "--smoke" in sys.argv:
        sys.exit(_smoke())
    if "--ooc-smoke" in sys.argv:
        sys.exit(_ooc_mode(OOC_SMOKE_NET))
    if "--ooc" in sys.argv:
        sys.exit(_ooc_mode(OOC_CONTRACT_NET))
    if "--ooc-full" in sys.argv:
        sys.exit(_ooc_full())
    print(
        "use --smoke, --ooc-smoke, --ooc, --ooc-full, "
        "or run through pytest for the timing contracts"
    )
    sys.exit(2)
