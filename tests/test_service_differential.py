"""Differential pins for the service stack: every serving path is equal.

The refactor split `FleetSimulator` into the `FleetEngine` kernel plus
orchestration, and layered the always-on service on the same kernel.
These tests pin the acceptance criterion: for identical seeds and
streams, every path — the one-shot batch run (memoized or direct
kernel), a single-shard service, a multi-shard service and the socket
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
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.petrinet import NetBuilder
from repro.petrinet.corpus import CORPUS_FAMILIES
from repro.petrinet.exceptions import NotEnabledError
from repro.petrinet.generators import unbalanced_choice_net
from repro.runtime import (
    Event,
    FleetEngine,
    FleetSimulator,
    ModuleAssignment,
    synthetic_streams,
)
from repro.service import (
    FleetSupervisor,
    IngestServer,
    InjectBatch,
    ServiceClient,
    events_to_injects,
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


def run_service(net, assignment, streams, shards=1):
    """Feed the streams through a supervisor, return the drained result."""
    return serve_injects(net, assignment, events_to_injects(streams), shards)


def serve_injects(net, assignment, injects, shards=1, form="batch"):
    """Feed injects through a supervisor in one of the three inject
    forms it accepts; return the drained result."""

    async def go():
        supervisor = FleetSupervisor(net, assignment, shards=shards)
        await supervisor.start()
        for lo in range(0, len(injects), 97):
            chunk = injects[lo : lo + 97]
            if form == "event":
                for inject in chunk:
                    await supervisor.inject(inject)
            elif form == "batch":
                await supervisor.inject(InjectBatch(events=tuple(chunk)))
            else:
                await supervisor.inject(supervisor.pack(chunk))
        return await supervisor.stop(drain=True)

    return asyncio.run(go())


class TestServiceEqualsBatch:
    """The acceptance pin: service results == the one-shot batch path."""

    def test_single_shard_async_equals_one_shot(self):
        net, assignment, streams = atm_case()
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(net, assignment, streams, shards=1)
        assert_results_identical(expected, actual)

    def test_multi_shard_async_equals_one_shot(self):
        net, assignment, streams = atm_case()
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(net, assignment, streams, shards=3)
        assert_results_identical(expected, actual)

    def test_corpus_family_service_equals_one_shot(self):
        net, assignment, streams = corpus_case()
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(net, assignment, streams, shards=2)
        assert_results_identical(expected, actual)

    def test_merge_fleet_multi_shard_equals_one_shot(self):
        """The weighted merge fleet: markings that differ per instance,
        so a misrouted event changes a cycle count."""
        net, assignment, streams = merge_case(instances=120, events=12)
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(net, assignment, streams, shards=2)
        assert_results_identical(expected, actual)

    @pytest.mark.parametrize("form", ["event", "batch", "packed"])
    def test_every_inject_form_equals_one_shot(self, form):
        """One InjectEvent at a time, InjectBatch lines and batches the
        caller packed itself route and serve alike."""
        net, assignment, streams = atm_case(instances=8, cells=4)
        expected = FleetSimulator(net, assignment).run(streams)
        actual = serve_injects(
            net, assignment, events_to_injects(streams), shards=2, form=form
        )
        assert_results_identical(expected, actual)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_sparse_instance_keys_equal_one_shot(self, shards):
        """Negative keys and keys past the shard's dense row table take
        the registry's dict path and route by the same hash; the merge
        orders instances by key, so a key map that keeps stream order
        gives the one-shot result."""
        net, assignment, streams = atm_case(instances=12, cells=4)
        expected = FleetSimulator(net, assignment).run(streams)
        keys = [-1000 + i for i in range(4)] + [4 * i for i in range(4, 8)]
        keys += [(1 << 40) + i for i in range(8, 12)]
        assert keys == sorted(keys)
        injects = [
            replace(inject, instance=keys[inject.instance])
            for inject in events_to_injects(streams)
        ]
        actual = serve_injects(net, assignment, injects, shards=shards)
        assert_results_identical(expected, actual)

    def test_socket_ingest_equals_one_shot(self):
        net, assignment, streams = atm_case(instances=10, cells=4)
        expected = FleetSimulator(net, assignment).run(streams)

        async def go():
            supervisor = FleetSupervisor(net, assignment, shards=2)
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
            shards=2,
            max_firings_per_event=8,
            on_budget="stop",
        )
        await supervisor.start()
        for inject in events_to_injects(streams):
            await supervisor.inject(inject)
        return await supervisor.stop(drain=True)
