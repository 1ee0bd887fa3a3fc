"""Runtime fleet benchmarks: batched compiled execution vs per-instance legacy.

The north-star workload is a server farm: thousands of independent
instances of the ATM server specification, each reacting to its own
Cell/Tick event stream.  The legacy engine steps them one at a time on
the string-keyed reactive simulator; the compiled
:class:`~repro.runtime.fleet.FleetSimulator` steps the whole fleet as a
single ``(N, P)`` numpy marking matrix with vectorized enabledness.
These benches verify the two engines produce identical aggregate stats
and per-instance cycle vectors, and pin the performance contract:
**>= 5x wall-clock on a >= 1000-instance ATM fleet** (measured ~7x on a
development machine; the floor leaves headroom for noisy CI runners).

Run ``python benchmarks/bench_runtime_fleet.py --smoke`` for a fast
functional pass (equivalence and determinism on a small ATM fleet, in
time order and with every event list reversed, and on a weighted merge
fleet, whose cold cascades the memo, the direct path and the legacy
engine must agree on, also under a firing budget; no timing
statistics) — the mode CI uses.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict

import numpy as np
import pytest

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.petrinet.generators import unbalanced_choice_net
from repro.runtime import FleetEngine, FleetSimulator, ModuleAssignment, synthetic_streams

#: The contract fleet: >= 1000 instances of the 49-transition ATM server.
CONTRACT_INSTANCES = 1_000
#: Cells per instance; the concurrent Ticks ride along (~5 events total
#: per instance), keeping the one-shot legacy baseline affordable.
CONTRACT_CELLS = 3

#: Required wall-clock speedup of the batched engine over per-instance legacy.
REQUIRED_SPEEDUP = 5.0


def _best_of(callable_, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _fleet(engine: str) -> FleetSimulator:
    net = build_atm_server_net()
    assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
    return FleetSimulator(net, assignment, engine=engine)


def _assert_results_identical(legacy, compiled) -> None:
    assert asdict(legacy.stats) == asdict(compiled.stats)
    assert np.array_equal(legacy.instance_cycles, compiled.instance_cycles)
    assert np.array_equal(legacy.instance_events, compiled.instance_events)


def test_fleet_compiled_at_least_5x_faster():
    """Identical fleets, and >= 5x wall-clock on >= 1000 ATM instances."""
    streams = make_fleet_testbench(CONTRACT_INSTANCES, cells=CONTRACT_CELLS)
    legacy = _fleet("legacy")
    compiled = _fleet("compiled")

    # the engines must do identical work before their times compare
    legacy_result = legacy.run(streams)
    compiled_result = compiled.run(streams)
    _assert_results_identical(legacy_result, compiled_result)

    legacy_time = _best_of(lambda: legacy.run(streams), rounds=2)
    compiled_time = _best_of(lambda: compiled.run(streams))
    speedup = legacy_time / compiled_time
    print(
        f"\nfleet of {CONTRACT_INSTANCES} ATM instances "
        f"({compiled_result.stats.events_processed} events): "
        f"legacy={legacy_time * 1000:.0f}ms compiled={compiled_time * 1000:.0f}ms "
        f"speedup={speedup:.1f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched fleet engine must be >= {REQUIRED_SPEEDUP}x faster than "
        f"the per-instance legacy loop; measured {speedup:.2f}x"
    )


@pytest.mark.parametrize("engine", ["legacy", "compiled"])
def test_fleet_engine_timings(benchmark, engine):
    """pytest-benchmark report rows for the two fleet engines (small fleet)."""
    streams = make_fleet_testbench(100, cells=CONTRACT_CELLS)
    fleet = _fleet(engine)
    result = benchmark(fleet.run, streams)
    assert result.stats.events_processed > 0
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["instances"] = result.instances
    benchmark.extra_info["events"] = result.stats.events_processed


def test_fleet_scaling_rows(benchmark):
    """One report row pinning throughput at the contract fleet size."""
    streams = make_fleet_testbench(CONTRACT_INSTANCES, cells=CONTRACT_CELLS)
    fleet = _fleet("compiled")
    result = benchmark(fleet.run, streams)
    benchmark.extra_info["instances"] = result.instances
    benchmark.extra_info["events"] = result.stats.events_processed
    benchmark.extra_info["p95_cycles"] = result.percentile(95)


def _merge_smoke(label: str = "", **options) -> int:
    """The weighted merge fleet (Figure 3b generalized: thousands of
    memo states) on the memo, the direct path and the legacy engine;
    returns the budget stops of the identical results."""
    net = unbalanced_choice_net(5, branches=3, max_weight=4, merge=True)
    assignment = ModuleAssignment.single_task(net)
    streams = synthetic_streams(net, 64, 20, seed=7)
    compiled = FleetSimulator(net, assignment, **options).run(streams)
    direct = FleetSimulator(net, assignment, **options)
    direct.kernel = FleetEngine(net, assignment, memo=False, **options)
    legacy = FleetSimulator(net, assignment, engine="legacy", **options)
    for other in (direct.run(streams), legacy.run(streams)):
        _assert_results_identical(other, compiled)
    print(
        f"smoke merge fleet 64x20{label}: memo, direct and legacy "
        f"identical ({compiled.stats.events_processed} events, "
        f"{compiled.stats.total_cycles} cycles, "
        f"{compiled.stats.budget_stops} budget stops)"
    )
    return compiled.stats.budget_stops


def _smoke() -> int:
    """Fast functional pass: engine equivalence, columns equal
    materialised Event lists, determinism, and equivalence on streams
    out of time order (the generated streams are in order, so the
    batched engine skips its time sort on them; reversed, it sorts)."""
    streams = make_fleet_testbench(64, cells=CONTRACT_CELLS)
    legacy = _fleet("legacy").run(streams)
    compiled = _fleet("compiled").run(streams)
    _assert_results_identical(legacy, compiled)
    print(
        f"smoke fleet 64x{CONTRACT_CELLS}: engines identical "
        f"({compiled.stats.events_processed} events, "
        f"{compiled.stats.total_cycles} cycles)"
    )
    materialised = _fleet("compiled").run([list(stream) for stream in streams])
    _assert_results_identical(materialised, compiled)
    print("smoke columns: the column run equals the run over Event lists")
    again = _fleet("compiled").run(make_fleet_testbench(64, cells=CONTRACT_CELLS))
    _assert_results_identical(compiled, again)
    print("smoke determinism: identical results under the fixed fleet seed")
    backwards = [list(stream)[::-1] for stream in streams]
    _assert_results_identical(
        _fleet("legacy").run(backwards), _fleet("compiled").run(backwards)
    )
    print("smoke order: engines identical on every event list reversed")
    _merge_smoke()
    budget = dict(max_firings_per_event=2, on_budget="stop")
    assert _merge_smoke(", budget 2", **budget) > 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    if "--smoke" in sys.argv:
        sys.exit(_smoke())
    print("use --smoke, or run through pytest for the timing contract")
    sys.exit(2)
