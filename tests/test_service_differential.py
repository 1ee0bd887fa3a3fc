"""Differential pins for the service stack: every serving path is equal.

The refactor split `FleetSimulator` into the `FleetEngine` kernel plus
orchestration, and layered the always-on service on the same kernel.
These tests pin the acceptance criterion: for identical seeds and
streams, every path — the one-shot batch run (memoized or direct
kernel), the service fed in every inject form, in any interleaving
that keeps each instance's order and in any chunking, and the socket
ingest — produces byte-identical `FleetResult` contents (aggregate
stats dict, per-instance cycle and event vectors).

The one-shot path itself is pinned against the *pre-refactor*
semantics by `tests/test_runtime_compiled_differential.py`, which
keeps requiring compiled == per-instance legacy; equality against the
batch path here therefore chains all the way back to the original
`ReactiveNetSimulator`.
"""

from __future__ import annotations

import asyncio
import functools
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.petrinet import NetBuilder
from repro.petrinet.corpus import CORPUS_FAMILIES
from repro.petrinet.exceptions import NotEnabledError
from repro.petrinet.generators import unbalanced_choice_net
from repro.runtime import (
    Event,
    ExecutionStats,
    FleetEngine,
    FleetSimulator,
    ModuleAssignment,
    ReactiveNetSimulator,
    SignatureTable,
    TimingModel,
    synthetic_streams,
)
from repro.runtime import fleet as fleet_module
from repro.runtime.events import as_columns
from repro.runtime.fleet import CascadeRows
from repro.service import (
    FleetSupervisor,
    IngestServer,
    ServiceClient,
    ShardCore,
    events_to_injects,
    inject_columns,
)


def atm_case(instances=24, cells=6, seed=17):
    net = build_atm_server_net()
    assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
    streams = make_fleet_testbench(instances, cells=cells, seed=seed)
    return net, assignment, streams


def corpus_case(family="choice_fan", instances=16, events=8, seed=5):
    net = CORPUS_FAMILIES[family].build(seed, CORPUS_FAMILIES[family].spec(seed).param_dict)
    assignment = ModuleAssignment.single_task(net)
    streams = synthetic_streams(net, instances, events, seed=seed)
    return net, assignment, streams


def merge_case(instances=300, events=30, seed=7):
    """The weighted merge fleet: thousands of memo states, many misses
    per round."""
    net = unbalanced_choice_net(5, branches=3, max_weight=4, merge=True)
    streams = synthetic_streams(net, instances, events, seed=seed)
    return net, ModuleAssignment.single_task(net), streams


def spinning_case(instances=12, events=4, seed=3):
    """A choice between quiescing and a loop that never quiesces."""
    net = (
        NetBuilder("spin_or_halt")
        .source("t_src")
        .arc("t_src", "p_choice")
        .arc("p_choice", "t_halt")
        .arc("p_choice", "t_loop")
        .arc("t_loop", "p_fuel")
        .arc("p_fuel", "t_spin")
        .arc("t_spin", "p_fuel")
        .build()
    )
    streams = synthetic_streams(net, instances, events, seed=seed)
    return net, ModuleAssignment.single_task(net), streams


def drain_case(instances=8, events=8, seed=23):
    """An order-sensitive net: a ``t_b`` event drains, one firing per
    token, what earlier ``t_a`` events left in ``p_acc``, so serving an
    instance's events out of order changes its cycle count."""
    net = (
        NetBuilder("drain")
        .source("t_a")
        .source("t_b")
        .arc("t_a", "p_acc")
        .arc("t_b", "p_flag")
        .arc("p_flag", "t_drain")
        .arc("p_acc", "t_drain")
        .arc("t_drain", "p_flag")
        .arc("p_flag", "t_done")
        .build()
    )
    streams = synthetic_streams(net, instances, events, seed=seed)
    return net, ModuleAssignment.single_task(net), streams


def dense_cascade(kernel, markings, src_ids, sig_ids):
    """A reference copy of the kernel's dense cascade loop: every row
    keeps its place in full-size arrays until the loop ends, enabledness
    is the ``(K, T, P)`` broadcast against ``pre``, and firings and
    activations are written in place."""
    cnet, module_of, cost = kernel.cnet, kernel._module_of, kernel.cost
    count = len(src_ids)
    marking = markings.copy()
    fired = np.zeros((count, len(cnet.transitions)), dtype=np.int64)
    act = np.zeros((count, len(kernel._module_names)), dtype=np.int64)
    stopped = np.zeros(count, dtype=bool)
    bad = ~np.all(marking >= cnet.pre[src_ids], axis=1)
    active = np.flatnonzero(~bad)
    current = module_of[src_ids]
    act[active, current[active]] = 1
    fired[active, src_ids[active]] = 1
    marking[active] += cnet.incidence[src_ids[active]]
    allowed = kernel.signatures.allowed[sig_ids] & kernel._nonsource
    firings = 1
    while active.size:
        candidates = (
            np.all(marking[active][:, np.newaxis, :] >= cnet.pre, axis=2)
            & allowed[active]
        )
        has_candidate = candidates.any(axis=1)
        active = active[has_candidate]
        if not active.size:
            break
        chosen = candidates[has_candidate].argmax(axis=1)
        marking[active] += cnet.incidence[chosen]
        fired[active, chosen] += 1
        modules = module_of[chosen]
        crossed = modules != current[active]
        act[active[crossed], modules[crossed]] += 1
        current[active] = modules
        firings += 1
        if firings > kernel.max_firings_per_event:
            stopped[active] = True
            break
    activations = act.sum(axis=1)
    cycles = (
        activations * cost.activation_cycles
        + np.maximum(activations - 1, 0) * (2 * cost.queue_op_cycles)
        + fired @ kernel._fire_cycles
    )
    return dict(
        end=marking,
        cycles=cycles,
        ticks=fired @ kernel._tick_vector,
        act=act,
        fired=fired,
        stopped=stopped,
        bad=bad,
    )


def memo_and_direct(net, assignment, streams, **options):
    """The same streams through the memoized and the direct kernel path."""
    memoized = FleetSimulator(net, assignment, **options).run(streams)
    direct_sim = FleetSimulator(net, assignment, **options)
    direct_sim.kernel = FleetEngine(net, assignment, memo=False, **options)
    direct = direct_sim.run(streams)
    assert not direct_sim.kernel._memo_active
    return memoized, direct


def assert_results_identical(expected, actual):
    assert asdict(expected.stats) == asdict(actual.stats)
    assert np.array_equal(expected.instance_cycles, actual.instance_cycles)
    assert np.array_equal(expected.instance_events, actual.instance_events)


def run_service(net, assignment, streams):
    """Feed the streams through a supervisor, return the drained result."""
    return serve_injects(net, assignment, events_to_injects(streams))


def serve_injects(net, assignment, injects, form="batch"):
    """Feed injects through a supervisor in one of the three inject
    forms it accepts (single events, columns, packed batches); return
    the drained result."""

    async def go():
        supervisor = FleetSupervisor(net, assignment)
        await supervisor.start()
        for lo in range(0, len(injects), 97):
            chunk = injects[lo : lo + 97]
            if form == "event":
                for inject in chunk:
                    await supervisor.inject(inject)
            elif form == "batch":
                await supervisor.inject(inject_columns(chunk))
            else:
                await supervisor.inject(supervisor.pack(inject_columns(chunk)))
        return await supervisor.stop(drain=True)

    return asyncio.run(go())


class TestServiceEqualsBatch:
    """The acceptance pin: service results == the one-shot batch path."""

    def test_single_shard_async_equals_one_shot(self):
        net, assignment, streams = atm_case()
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(net, assignment, streams)
        assert_results_identical(expected, actual)

    def test_corpus_family_service_equals_one_shot(self):
        net, assignment, streams = corpus_case()
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(net, assignment, streams)
        assert_results_identical(expected, actual)

    def test_merge_fleet_multi_shard_equals_one_shot(self):
        """The weighted merge fleet: markings that differ per instance,
        so an event served on the wrong instance or out of its
        instance's order changes a cycle count."""
        net, assignment, streams = merge_case(instances=120, events=12)
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(net, assignment, streams)
        assert_results_identical(expected, actual)

    @pytest.mark.parametrize("form", ["event", "batch", "packed"])
    def test_every_inject_form_equals_one_shot(self, form):
        """One InjectEvent at a time, columns and batches the caller
        packed itself serve alike."""
        net, assignment, streams = atm_case(instances=8, cells=4)
        expected = FleetSimulator(net, assignment).run(streams)
        actual = serve_injects(
            net, assignment, events_to_injects(streams), form=form
        )
        assert_results_identical(expected, actual)

    def test_sparse_instance_keys_equal_one_shot(self):
        """Negative keys and keys past the shard's dense row table take
        the registry's dict path; the drained result orders instances
        by key, so a key map that keeps stream order gives the one-shot
        result."""
        net, assignment, streams = atm_case(instances=12, cells=4)
        expected = FleetSimulator(net, assignment).run(streams)
        keys = [-1000 + i for i in range(4)] + [4 * i for i in range(4, 8)]
        keys += [(1 << 40) + i for i in range(8, 12)]
        assert keys == sorted(keys)
        injects = [
            replace(inject, instance=keys[inject.instance])
            for inject in events_to_injects(streams)
        ]
        actual = serve_injects(net, assignment, injects)
        assert_results_identical(expected, actual)

    def test_socket_ingest_equals_one_shot(self):
        net, assignment, streams = atm_case(instances=10, cells=4)
        expected = FleetSimulator(net, assignment).run(streams)

        async def go():
            supervisor = FleetSupervisor(net, assignment)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            injects = events_to_injects(streams)
            await client.inject_batch(injects[: len(injects) // 2])
            for inject in injects[len(injects) // 2 :]:
                await client.inject(
                    inject.instance, inject.source, inject.time, inject.choices
                )
            snapshot = await client.snapshot()
            assert snapshot.events == expected.stats.events_processed
            await client.close()
            await server.stop()
            return await supervisor.stop(drain=True)

        assert_results_identical(expected, asyncio.run(go()))

    @pytest.mark.parametrize("chunk", [1, 61, 1024])
    def test_merge_fleet_over_socket_frames_equals_one_shot(self, chunk):
        """The state-dependent merge fleet sent as inject frames: each
        frame after the first reuses the connection's name-table entries
        and adds the ones its rows are first to use."""
        net, assignment, streams = merge_case(instances=60, events=10)
        expected = FleetSimulator(net, assignment).run(streams)

        async def go():
            supervisor = FleetSupervisor(net, assignment)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            injects = events_to_injects(streams)
            for lo in range(0, len(injects), chunk):
                await client.inject_batch(injects[lo : lo + chunk])
            snapshot = await client.snapshot()
            assert snapshot.events == expected.stats.events_processed
            await client.close()
            await server.stop()
            return await supervisor.stop(drain=True)

        actual = asyncio.run(asyncio.wait_for(go(), timeout=60))
        assert_results_identical(expected, actual)


#: The property's fleets: ATM, the merge net, and the drain net, where
#: only the drain net's results depend on each instance's event order.
ROUND_FLEETS = {
    "atm": lambda: atm_case(instances=8, cells=4, seed=23),
    "merge": lambda: merge_case(instances=8, events=6, seed=23),
    "drain": drain_case,
}


@functools.lru_cache(maxsize=None)
def round_fleet(name):
    """A small fleet's net, assignment, injects and one-shot result."""
    net, assignment, streams = ROUND_FLEETS[name]()
    expected = FleetSimulator(net, assignment).run(streams)
    return net, assignment, events_to_injects(streams), expected


def counted_dispatch(kernel):
    """Wrap ``kernel.dispatch_ids``, checking that a call's rows are
    unique; returns the list its calls' sizes go to."""
    dispatch_ids = kernel.dispatch_ids
    calls = []

    def counted(rows, src_ids, sig_ids):
        assert len(set(rows.tolist())) == len(rows)
        calls.append(len(rows))
        dispatch_ids(rows, src_ids, sig_ids)

    kernel.dispatch_ids = counted
    return calls


@st.composite
def interleaved_chunks(draw):
    """A fleet's name and its injects, interleaved in any order that
    keeps each instance's own order, cut into chunks of any size."""
    name = draw(st.sampled_from(sorted(ROUND_FLEETS)))
    injects = round_fleet(name)[2]
    queues = {}
    for inject in injects:
        queues.setdefault(inject.instance, []).append(inject)
    queues = {key: iter(queue) for key, queue in queues.items()}
    picks = draw(st.permutations([inject.instance for inject in injects]))
    interleaved = [next(queues[key]) for key in picks]
    cuts = draw(st.sets(st.integers(1, len(interleaved) - 1), max_size=20))
    bounds = [0, *sorted(cuts), len(interleaved)]
    return name, [interleaved[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class TestOneRoundLoop:
    """`FleetEngine.dispatch_rounds` is the one round split: the service
    serves any per-instance-ordered interleaving, in any chunking, as
    the one-shot run does, one kernel call per round of each batch (one
    call in all while the memo keeps a single state)."""

    @settings(max_examples=25, deadline=None)
    @given(case=interleaved_chunks())
    def test_any_interleaving_and_chunking_equals_one_shot(self, case):
        name, chunks = case
        net, assignment, _, expected = round_fleet(name)

        async def go():
            # a one-message inbox serves the chunks as separate batches,
            # so instances register in the order the chunks bring them
            supervisor = FleetSupervisor(net, assignment, inbox_limit=1)
            await supervisor.start()
            for chunk in chunks:
                await supervisor.inject(inject_columns(chunk))
            return await supervisor.stop(drain=True)

        assert_results_identical(expected, asyncio.run(go()))

        # the same chunks straight into one shard core, rows unique
        # within a dispatch_ids call: a batch is one call per round, or
        # one call for its first round when the memo still holds a
        # single state afterwards (the one-state step served the rest)
        packer = FleetSupervisor(net, assignment)
        engine = FleetEngine(
            packer.compiled, assignment, signatures=packer.signatures
        )
        calls = counted_dispatch(engine)
        core = ShardCore(engine)
        for chunk in chunks:
            calls.clear()
            core.serve_packed(packer.pack(inject_columns(chunk)))
            rounds = max(Counter(inject.instance for inject in chunk).values())
            one_state = len(engine._state_index) == 1
            assert len(calls) == (1 if one_state else rounds)
            first_round = len({inject.instance for inject in chunk})
            assert sum(calls) == (first_round if one_state else len(chunk))
        keys, result = core.result()
        by_key = np.argsort(keys)
        assert asdict(result.stats) == asdict(expected.stats)
        assert np.array_equal(
            result.instance_cycles[by_key], expected.instance_cycles
        )
        assert np.array_equal(
            result.instance_events[by_key], expected.instance_events
        )


def drain_fallback_case(reach):
    """The drain net with streams that start with ``t_b`` events, which
    end where they start, and reach ``t_a``, which leaves a token, later:
    in every instance (``"all"``) or in the last one only (``"last"``).
    The fleet spans more than two blocks of the one-state step."""
    net, assignment, _ = drain_case()
    events = 50
    instances = 2 * fleet_module._ONE_STATE_BLOCK // events + 2
    streams = []
    for instance in range(instances):
        sources = ["t_b"] * events
        if reach == "all" or instance == instances - 1:
            sources[events // 2 :: 3] = ["t_a"] * len(sources[events // 2 :: 3])
        streams.append(
            [Event(time=float(k), source=name) for k, name in enumerate(sources)]
        )
    return net, assignment, streams


def primed_spin_case(instances=4):
    """``t_x`` spins past any budget at the initial marking, but settles
    once ``t_a`` has put a token on ``p_primed`` (``t_settle`` has the
    lower id, so it wins the conflict on ``p_x``); ``t_b`` ends where it
    starts.  Every instance runs ``[t_b, t_a, t_x]``."""
    net = (
        NetBuilder("primed_spin")
        .source("t_a")
        .source("t_b")
        .source("t_x")
        .transition("t_settle")
        .transition("t_spin")
        .arc("t_a", "p_primed")
        .arc("t_b", "p_b")
        .arc("p_b", "t_b_done")
        .arc("t_x", "p_x")
        .arc("p_x", "t_settle")
        .arc("p_primed", "t_settle")
        .arc("t_settle", "p_primed")
        .arc("p_x", "t_spin")
        .arc("t_spin", "p_x")
        .build()
    )
    stream = [
        Event(time=float(k), source=name)
        for k, name in enumerate(("t_b", "t_a", "t_x"))
    ]
    streams = [list(stream) for _ in range(instances)]
    return net, ModuleAssignment.single_task(net), streams


def dispatched_until_error(net, assignment, streams, error_type, **options):
    """A kernel of the fleet after ``dispatch_rounds`` over every event
    raised ``error_type``, and the error's type and message."""
    kernel = FleetEngine(net, assignment, instances=len(streams), **options)
    columns = as_columns(streams)
    src_ids, sig_ids = kernel.prepare_events(columns)
    with pytest.raises(error_type) as caught:
        kernel.dispatch_rounds(columns.instance, src_ids, sig_ids)
    return kernel, (type(caught.value), str(caught.value))


class TestOneStateStep:
    """While the memo holds one marking state, `dispatch_rounds` serves
    a batch's rounds after the first in one step; whenever the step
    cannot, the rounds serve the batch, with the same results and the
    same errors as the cache bypass and the legacy engine."""

    @pytest.mark.parametrize("case", ["not_enabled", "budget"])
    def test_errors_match_the_bypass_after_the_rounds_before_them(self, case):
        if case == "not_enabled":
            # an ATM batch, which keeps one state: instance 3's third
            # event names a transition that is not a source
            net, assignment, generated = atm_case()
            streams = [list(stream) for stream in generated]
            streams[3][2] = Event(time=streams[3][2].time, source="t_parse_header")
            error_type, options, failing = NotEnabledError, {}, 2
        else:
            # the merge fleet, whose first round leaves several states:
            # a cascade of round 8 spends the budget
            net, assignment, streams = merge_case(instances=40, events=12)
            error_type, failing = RuntimeError, 8
            options = dict(max_firings_per_event=4, on_budget="error")
        outcomes = [
            dispatched_until_error(
                net, assignment, streams, error_type, memo=memo, **options
            )
            for memo in (True, False)
        ]
        (memoized, error), (direct, direct_error) = outcomes
        assert error == direct_error
        if case == "not_enabled":
            assert error[1] == (
                "transition 't_parse_header' is not enabled in instance 3"
            )
            # the step computed the bad cascade and kept it in the memo
            assert memoized._cascades.bad[: memoized._cascade_count].any()
        else:
            assert "did not quiesce" in error[1]
        lengths = np.array([len(stream) for stream in streams])
        for kernel in (memoized, direct):
            # every round before the failing one applied, none after it
            assert kernel.instance_events().tolist() == np.minimum(
                lengths, failing
            ).tolist()
        assert np.array_equal(memoized.instance_cycles(), direct.instance_cycles())
        assert asdict(memoized.aggregate_stats()) == asdict(direct.aggregate_stats())
        assert memoized.budget_stops == direct.budget_stops

    @pytest.mark.parametrize("reach", ["all", "last"])
    def test_drain_fleet_hands_the_batch_back_to_the_rounds(self, reach):
        net, assignment, streams = drain_fallback_case(reach)
        events = len(streams[0])
        assert len(streams) * events > 2 * fleet_module._ONE_STATE_BLOCK
        simulator = FleetSimulator(net, assignment)
        calls = counted_dispatch(simulator.kernel)
        memoized = simulator.run(streams)
        direct_sim = FleetSimulator(net, assignment)
        direct_sim.kernel = FleetEngine(net, assignment, memo=False)
        legacy = FleetSimulator(net, assignment, engine="legacy").run(streams)
        assert_results_identical(legacy, memoized)
        assert_results_identical(direct_sim.run(streams), memoized)
        # the step found t_a's cascade ending elsewhere, in the first
        # block or the last, kept it, and every round was a call
        assert len(calls) == events
        assert len(simulator.kernel._state_index) > 1
        assert memoized.stats.firings["t_drain"] > 0

    def test_budget_error_of_a_speculative_cascade_falls_back(self):
        net, assignment, streams = primed_spin_case()
        options = dict(max_firings_per_event=50, on_budget="error")
        # t_x from the initial marking does not quiesce
        with pytest.raises(RuntimeError, match="did not quiesce"):
            FleetSimulator(net, assignment, **options).run([[streams[0][2]]])
        memoized, direct = memo_and_direct(net, assignment, streams, **options)
        legacy = FleetSimulator(net, assignment, engine="legacy", **options).run(
            streams
        )
        assert_results_identical(legacy, memoized)
        assert_results_identical(direct, memoized)
        assert memoized.stats.firings["t_settle"] == len(streams)
        assert "t_spin" not in memoized.stats.firings

    def test_atm_service_in_1024_event_chunks_equals_one_shot(self):
        net, assignment, streams = atm_case(instances=200, cells=50, seed=7)
        expected = FleetSimulator(net, assignment).run(streams)
        direct_sim = FleetSimulator(net, assignment)
        direct_sim.kernel = FleetEngine(net, assignment, memo=False)
        assert_results_identical(expected, direct_sim.run(streams))
        # instances are independent: a prefix of the fleet is the legacy
        # run over the same prefix of the streams
        prefix = 8
        legacy = FleetSimulator(net, assignment, engine="legacy").run(
            streams[:prefix]
        )
        assert np.array_equal(
            legacy.instance_cycles, expected.instance_cycles[:prefix]
        )
        packer = FleetSupervisor(net, assignment)
        engine = FleetEngine(
            packer.compiled, assignment, signatures=packer.signatures
        )
        calls = counted_dispatch(engine)
        core = ShardCore(engine)
        injects = events_to_injects(streams)
        for lo in range(0, len(injects), 1024):
            core.serve_packed(packer.pack(inject_columns(injects[lo : lo + 1024])))
        # one dispatch_ids call per batch: the step served the rest
        assert len(calls) == -(-len(injects) // 1024)
        assert len(engine._state_index) == 1
        keys, result = core.result()
        by_key = np.argsort(keys)
        assert asdict(result.stats) == asdict(expected.stats)
        assert np.array_equal(
            result.instance_cycles[by_key], expected.instance_cycles
        )
        assert np.array_equal(
            result.instance_events[by_key], expected.instance_events
        )


class TestKernelPaths:
    """Memoized cascades, the direct path and the memo's over-limit
    fallback all agree."""

    @pytest.mark.parametrize("case", [atm_case, corpus_case, merge_case])
    def test_memo_equals_direct(self, case):
        net, assignment, streams = case()
        memoized, direct = memo_and_direct(net, assignment, streams)
        assert_results_identical(memoized, direct)

    def test_budget_stops_memo_equals_direct_equals_legacy(self):
        net, assignment, streams = spinning_case()
        options = dict(max_firings_per_event=8, on_budget="stop")
        memoized, direct = memo_and_direct(net, assignment, streams, **options)
        assert_results_identical(memoized, direct)
        legacy = FleetSimulator(net, assignment, engine="legacy", **options).run(
            streams
        )
        assert_results_identical(legacy, memoized)
        assert 0 < memoized.stats.budget_stops < memoized.stats.events_processed

    def test_budget_error_is_the_same_on_both_paths(self):
        net, assignment, streams = spinning_case()
        errors = []
        for memo in (True, False):
            simulator = FleetSimulator(net, assignment, max_firings_per_event=8)
            simulator.kernel = FleetEngine(
                net, assignment, max_firings_per_event=8, memo=memo
            )
            with pytest.raises(RuntimeError) as caught:
                simulator.run(streams)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert "did not quiesce" in errors[0][1]

    def test_not_enabled_error_is_the_same_on_both_paths(self):
        net, assignment, generated = atm_case()
        streams = [list(stream) for stream in generated]
        # instance 3's second event: a known transition that is not a
        # source, so it is never enabled after a cascade quiesced
        streams[3][1] = Event(time=streams[3][1].time, source="t_parse_header")
        errors = []
        for memo in (True, False):
            simulator = FleetSimulator(net, assignment)
            simulator.kernel = FleetEngine(net, assignment, memo=memo)
            with pytest.raises(NotEnabledError) as caught:
                simulator.run(streams)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert errors[0] == (
            "transition 't_parse_header' is not enabled in instance 3"
        )

    def test_memo_flush_and_disable_preserve_results(self, monkeypatch):
        import repro.runtime.fleet as fleet_mod

        net, assignment, streams = atm_case()
        expected = FleetSimulator(net, assignment).run(streams)
        # a tiny limit frees the memo after its first rounds and serves
        # the rest of the run on the direct path
        monkeypatch.setattr(fleet_mod, "MEMO_STATE_LIMIT", 2)
        constrained = FleetSimulator(net, assignment)
        actual = constrained.run(streams)
        assert_results_identical(expected, actual)
        assert not constrained.kernel._memo_active

    def test_cell_bound_drops_the_memo_under_the_state_limit(self, monkeypatch):
        import repro.runtime.fleet as fleet_mod

        net, assignment, streams = atm_case()
        expected = FleetSimulator(net, assignment).run(streams)
        # 128 * 200 cells: the ATM table fits until a shared signature
        # table holds far more signatures than the fleet's events use
        monkeypatch.setattr(fleet_mod, "MEMO_STATE_LIMIT", 200)
        simulator = FleetSimulator(net, assignment)
        shared = SignatureTable(simulator.cnet)
        kernel = simulator.kernel = FleetEngine(
            simulator.cnet, assignment, signatures=shared
        )
        assert_results_identical(expected, simulator.run(streams))
        assert kernel._memo_active
        assert max(len(kernel._state_index), kernel._cascade_count) < 200
        for k in range(20_000):
            shared.intern((("p_elsewhere", f"t_{k}"),))
        assert_results_identical(expected, simulator.run(streams))
        assert not kernel._memo_active

    @pytest.mark.parametrize("form", ["list", "view"])
    def test_signatures_packed_between_batches_grow_the_table(self, form):
        net, assignment, streams = atm_case()
        expected = FleetSimulator(net, assignment).run(streams)
        injects = events_to_injects(streams)
        packer = FleetSupervisor(net, assignment)
        engine = FleetEngine(
            packer.compiled, assignment, signatures=packer.signatures
        )
        core = ShardCore(engine)
        counts, widths = [], []
        carried = {()}
        for lo in range(0, len(injects), 40):
            # a list batch carries name tables of its own events only; a
            # view slice keeps the whole stream's tables, and pack
            # interns only the entries its rows carry: either way the
            # signatures grow batch by batch
            chunk = injects[lo : lo + 40]
            batch = inject_columns(list(chunk) if form == "list" else chunk)
            core.serve_packed(packer.pack(batch))
            carried.update(tuple(sorted(i.choices.items())) for i in chunk)
            assert packer.signatures.count == len(carried)
            counts.append(packer.signatures.count)
            widths.append(engine._cascade_of.shape[2])
        # the table's signature axis grew in the middle of the run to
        # cover what pack interned
        assert counts[0] < counts[-1] <= widths[-1]
        assert widths[0] < widths[-1]
        keys, result = core.result()
        by_key = np.argsort(keys)
        assert asdict(result.stats) == asdict(expected.stats)
        assert np.array_equal(
            result.instance_cycles[by_key], expected.instance_cycles
        )
        assert engine._memo_active

    def test_not_enabled_after_both_sources_are_in_the_table(self):
        net, assignment, generated = atm_case()
        streams = [list(stream) for stream in generated]
        streams[3][-1] = Event(time=streams[3][-1].time, source="t_parse_header")
        errors = []
        for memo in (True, False):
            simulator = FleetSimulator(net, assignment)
            simulator.kernel = FleetEngine(net, assignment, memo=memo)
            simulator.run(generated)
            # the memo's table already holds both ATM sources
            assert simulator.kernel._ordinals == (2 if memo else 0)
            with pytest.raises(NotEnabledError) as caught:
                simulator.run(streams)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == (
            "transition 't_parse_header' is not enabled in instance 3"
        )

    @pytest.mark.parametrize("tasks", ["single", "per_transition"])
    def test_compact_cascade_equals_the_dense_loop(self, tasks):
        net = unbalanced_choice_net(5, branches=3, max_weight=4, merge=True)
        assignment = (
            ModuleAssignment.single_task(net)
            if tasks == "single"
            else ModuleAssignment.one_task_per_transition(net)
        )
        kernel = FleetEngine(
            net,
            assignment,
            max_firings_per_event=3,
            on_budget="stop",
            timing=TimingModel(transition_ticks={"t_e1": 5}, default_ticks=1),
        )
        cnet = kernel.cnet
        rng = np.random.default_rng(3)
        markings = rng.integers(0, 2, size=(96, len(cnet.places)))
        # t_e1 is enabled only from 4 tokens on p_b1: half of its rows
        # are bad, the others start their cascade with it
        markings[::10, cnet.place_index["p_b1"]] = 4
        src_ids = np.full(96, cnet.transition_index["t_in"])
        src_ids[::5] = cnet.transition_index["t_e1"]
        signatures = [0] + [
            kernel.signatures.intern((("p_choice", branch),))
            for branch in ("t_b0", "t_b1", "t_b2")
        ]
        sig_ids = np.array(signatures)[rng.integers(0, 4, size=96)]
        rows = kernel._compute_cascade(markings, src_ids, sig_ids)
        expected = dense_cascade(kernel, markings, src_ids, sig_ids)
        for field in fields(CascadeRows):
            actual = getattr(rows, field.name)
            assert actual.dtype == expected[field.name].dtype, field.name
            assert np.array_equal(actual, expected[field.name]), field.name
        quiesced = ~rows.bad & ~rows.stopped
        assert rows.bad.any() and rows.stopped.any()
        assert len(set(rows.fired[quiesced].sum(axis=1).tolist())) > 1
        assert (markings[rows.bad] == rows.end[rows.bad]).all()

    @pytest.mark.parametrize("width", [7, 0])
    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.integers(0, 127), max_size=24), min_size=1, max_size=4
        )
    )
    def test_batched_interning_equals_one_at_a_time(self, width, batches):
        if width:
            net = unbalanced_choice_net(5, branches=3, max_weight=4, merge=True)
        else:
            net = NetBuilder("sources_only").source("t_a").build()
        kernel = FleetEngine(net, ModuleAssignment.single_task(net))
        index = dict(kernel._state_index)
        marks = list(kernel._state_mark[: len(index)])
        bits = np.arange(width)
        for batch in batches:
            # 7 binary places: 128 markings, so batches repeat rows
            markings = (np.array(batch, dtype=np.int64)[:, np.newaxis] >> bits) & 1
            markings = markings.reshape(len(batch), width)
            expected = []
            for row in markings:
                key = row.tobytes()
                if key not in index:
                    index[key] = len(index)
                    marks.append(row)
                expected.append(index[key])
            assert kernel._intern_states(markings).tolist() == expected
        assert kernel._state_index == index
        assert np.array_equal(
            kernel._state_mark[: len(index)],
            np.array(marks, dtype=np.int64).reshape(len(marks), width),
        )

    @pytest.mark.parametrize("memo", [True, False])
    @pytest.mark.parametrize("timed", [False, True])
    @pytest.mark.parametrize("limit", [None, 30])
    def test_aggregates_read_between_rounds_equal_an_eager_recount(
        self, monkeypatch, memo, timed, limit
    ):
        import repro.runtime.fleet as fleet_mod

        if limit is not None:
            # the memo is dropped after its first rounds, with uses of
            # rounds no read has folded yet
            monkeypatch.setattr(fleet_mod, "MEMO_STATE_LIMIT", limit)
        net, assignment, streams = merge_case(instances=40, events=12)
        options = dict(
            max_firings_per_event=3,
            on_budget="stop",
            timing=TimingModel(default_ticks=1) if timed else None,
        )
        kernel = FleetEngine(
            net, assignment, memo=memo, instances=len(streams), **options
        )
        columns = as_columns(streams)
        src_ids, sig_ids = kernel.prepare_events(columns)
        rows = columns.instance
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        counts = np.diff(starts, append=len(rows))
        # the eager recount: one legacy simulator per instance, every
        # event folded into one ExecutionStats as it is served
        simulators = [
            ReactiveNetSimulator(net, assignment, engine="legacy", **options)
            for _ in streams
        ]
        events = [list(stream) for stream in streams]
        expected = ExecutionStats()
        stops = 0
        memo_rounds = []
        reads = (2, 5, 9, 11)
        for k in range(int(counts.max())):
            selected = starts[counts > k] + k
            kernel.dispatch_ids(rows[selected], src_ids[selected], sig_ids[selected])
            for instance in rows[selected].tolist():
                simulators[instance].process_event(events[instance][k], expected)
            memo_rounds.append(kernel._memo_active)
            if k == 4:
                kernel.reset_state(reset_stats=False)
                for simulator in simulators:
                    simulator.reset()
            if k == 7:
                stops += expected.budget_stops
                kernel.reset_state()
                for simulator in simulators:
                    simulator.reset()
                expected = ExecutionStats()
            if k in reads:
                assert kernel.budget_stops == expected.budget_stops
                assert kernel.cycle_totals() == (
                    expected.activation_cycles,
                    expected.body_cycles,
                    expected.queue_cycles,
                )
                assert asdict(kernel.aggregate_stats()) == asdict(expected)
        assert stops + expected.budget_stops > 0
        assert kernel._memo_active == (memo and limit is None)
        if memo and limit is not None:
            # the memo was dropped with the uses of a round that no read
            # had folded
            drop = memo_rounds.index(False)
            assert drop > 0 and drop - 1 not in reads

    def test_warm_rerun_after_reset_computes_no_cascade(self):
        net, assignment, streams = atm_case()
        simulator = FleetSimulator(net, assignment)
        first = simulator.run(streams)
        kernel = simulator.kernel
        compute = kernel._compute_cascade
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return compute(*args)

        kernel._compute_cascade = counted
        # run() starts with reset(), which keeps the memo
        assert_results_identical(first, simulator.run(streams))
        assert calls == []

    def test_warm_kernel_rerun_is_identical(self):
        net, assignment, streams = atm_case()
        simulator = FleetSimulator(net, assignment)
        first = simulator.run(streams)
        second = simulator.run(streams)  # reset() keeps the memo warm
        assert_results_identical(first, second)

    def test_budget_stop_accounting_matches(self):
        net, assignment, streams = atm_case(instances=8, cells=4)
        expected = FleetSimulator(
            net, assignment, max_firings_per_event=8, on_budget="stop"
        ).run(streams)
        supervisor_result = asyncio.run(self._budget_service(net, assignment, streams))
        assert_results_identical(expected, supervisor_result)
        assert expected.stats.budget_stops > 0

    @staticmethod
    async def _budget_service(net, assignment, streams):
        supervisor = FleetSupervisor(
            net,
            assignment,
            max_firings_per_event=8,
            on_budget="stop",
        )
        await supervisor.start()
        for inject in events_to_injects(streams):
            await supervisor.inject(inject)
        return await supervisor.stop(drain=True)
