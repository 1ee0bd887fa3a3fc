"""QSS synthesis pipeline benchmarks: mask-based compiled vs legacy.

The legacy pipeline rebuilds a Python subnet per T-allocation and
recompiles every T-reduction before the schedulability simulation; the
compiled pipeline streams mask-based reductions over one compiled parent
net (zero rebuilds, zero recompiles), computes T-invariants on int64
incidence submatrices and orders each cycle with one greedy walk over
the parent's preset and delta tables.  These benches verify the two
produce identical reports and pin the end-to-end speedup contract:
**>= 3x on nets with >= 64 T-allocations** (the
``independent_choices`` / ``nested_choices`` families of the
scalability study).

Run ``python benchmarks/bench_qss_pipeline.py --smoke`` for a fast
functional pass (equivalence only, no timing statistics: identical
reports and cycles, and byte-identical emitted C from both engines) —
the mode CI uses.  The smoke also counts the removal cascades
(``QSSContext.reduce_masks`` calls) the compiled enumeration runs on each
contract net, which must equal its distinct T-reductions, not its
T-allocations.
"""

from __future__ import annotations

import sys
import time
from unittest import mock

import pytest

from repro.codegen import emit_c, synthesize
from repro.petrinet.corpus import generate_corpus, run_corpus
from repro.petrinet.generators import independent_choices_net, nested_choices_net
from repro.qss import analyse, count_distinct_reductions
from repro.qss.compiled_reduction import QSSContext

#: The contract nets: both have >= 64 T-allocations.
CONTRACT_NETS = [
    ("independent_choices_6x2", lambda: independent_choices_net(6, 2), 64),
    ("nested_choices_10", lambda: nested_choices_net(10), 1024),
]

#: Removal cascades the compiled enumeration runs per contract net: one
#: per distinct T-reduction (the product walk ran one per allocation).
CONTRACT_CASCADES = {"independent_choices_6x2": 64, "nested_choices_10": 11}

#: Required end-to-end speedup of the mask pipeline over legacy.
REQUIRED_SPEEDUP = 3.0


def _count_cascades(net) -> int:
    """How many times the compiled enumeration of ``net`` runs the cascade."""
    with mock.patch.object(
        QSSContext,
        "reduce_masks",
        autospec=True,
        side_effect=QSSContext.reduce_masks,
    ) as reduce_masks:
        count_distinct_reductions(net)
    return reduce_masks.call_count


def _best_of(callable_, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _assert_reports_identical(legacy, compiled):
    assert compiled.schedulable == legacy.schedulable
    assert compiled.allocation_count == legacy.allocation_count
    assert compiled.reduction_count == legacy.reduction_count
    assert [v.cycle for v in compiled.verdicts] == [v.cycle for v in legacy.verdicts]
    assert [v.reduction.signature() for v in compiled.verdicts] == [
        v.reduction.signature() for v in legacy.verdicts
    ]
    assert [v.invariants for v in compiled.verdicts] == [
        v.invariants for v in legacy.verdicts
    ]
    if compiled.schedulable:
        # cycles carry their reduction's invariants into task partitioning
        assert compiled.schedule.cycles == legacy.schedule.cycles


@pytest.mark.parametrize("name,build,allocations", CONTRACT_NETS)
def test_compiled_pipeline_speedup_contract(name, build, allocations):
    """Identical reports, and >= 3x end-to-end on >= 64-allocation nets."""
    net = build()
    legacy = analyse(net, engine="legacy")
    compiled = analyse(net, engine="compiled")
    assert legacy.allocation_count == allocations
    _assert_reports_identical(legacy, compiled)

    legacy_time = _best_of(lambda: analyse(net, engine="legacy"))
    compiled_time = _best_of(lambda: analyse(net, engine="compiled"))
    speedup = legacy_time / compiled_time
    print(
        f"\nqss pipeline {name} ({allocations} allocations, "
        f"{legacy.reduction_count} reductions): "
        f"legacy={legacy_time * 1000:.1f}ms "
        f"compiled={compiled_time * 1000:.1f}ms speedup={speedup:.1f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"mask-based pipeline must be >= {REQUIRED_SPEEDUP}x faster than the "
        f"legacy rebuild pipeline on {name}; measured {speedup:.2f}x"
    )


@pytest.mark.parametrize("engine", ["legacy", "compiled"])
def test_qss_pipeline_engine_timings(benchmark, engine):
    """pytest-benchmark report rows for the two pipeline engines."""
    net = independent_choices_net(6, 2)
    report = benchmark(analyse, net, engine=engine)
    assert report.schedulable and report.reduction_count == 64
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["allocations"] = report.allocation_count


def test_fail_fast_beats_exhaustive_on_unschedulable_net(benchmark):
    """fail_fast prunes both the checks and the streaming enumeration."""
    # nested choices with a poisoned initial marking: remove the source
    # token flow by checking from an empty marking is intrusive, so use
    # the timing-free functional property instead — fail_fast must
    # examine strictly fewer reductions than the exhaustive run.
    from repro.petrinet.generators import unschedulable_merge_net

    net = unschedulable_merge_net()
    exhaustive = analyse(net)
    fast = benchmark(analyse, net, fail_fast=True)
    assert not fast.schedulable and not fast.complete
    assert len(fast.verdicts) < len(exhaustive.verdicts)
    benchmark.extra_info["verdicts_checked"] = len(fast.verdicts)


def test_corpus_qss_sweep_parallel_matches_sequential():
    """The corpus schedulability sweep runs under the multiprocessing pool
    and returns verdicts identical to the in-process loop."""
    specs = generate_corpus(24, seed=5)
    sequential = run_corpus(specs, workers=1, analyse="qss")
    parallel = run_corpus(specs, workers=2, analyse="qss")
    strip = lambda rs: [r.to_dict() | {"elapsed_ms": 0.0} for r in rs]
    assert strip(parallel.records) == strip(sequential.records)
    assert not parallel.errors
    swept = [r for r in parallel.records if r.schedulable is not None]
    assert swept, "sweep must produce schedulability verdicts"


def _smoke() -> int:
    """Fast functional pass: equivalence on the contract nets, no timing."""
    for name, build, allocations in CONTRACT_NETS:
        net = build()
        legacy = analyse(net, engine="legacy")
        compiled = analyse(net, engine="compiled")
        assert legacy.allocation_count == allocations
        _assert_reports_identical(legacy, compiled)
        assert compiled.schedulable
        assert (
            emit_c(synthesize(compiled.schedule)).source
            == emit_c(synthesize(legacy.schedule)).source
        )
        cascades = _count_cascades(net)
        assert cascades == CONTRACT_CASCADES[name] == compiled.reduction_count, (
            f"{name}: {cascades} cascades for {compiled.reduction_count} reductions"
        )
        print(
            f"smoke {name}: {allocations} allocations, "
            f"{compiled.reduction_count} reductions, {cascades} cascades, "
            f"schedulable={compiled.schedulable} — engines identical, "
            "C byte-identical"
        )
    test_corpus_qss_sweep_parallel_matches_sequential()
    print("smoke corpus qss sweep: parallel == sequential")
    return 0


if __name__ == "__main__":  # pragma: no cover
    if "--smoke" in sys.argv:
        sys.exit(_smoke())
    print("use --smoke, or run through pytest for the timing contract")
    sys.exit(2)
