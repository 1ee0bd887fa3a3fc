"""Sustained-overload backpressure: firehose clients against tiny inboxes.

The service's overload contract: a bounded shard inbox never grows past
its limit, producers suspend instead of the server buffering
unboundedly, and — critically — the pressure changes *when* events are
served, never *whether* or *in what per-instance order*.  These tests drive firehose workloads through
deliberately tiny inboxes (limits 1-4, thousands of events) and pin:

- no event loss: every injected event is served, counted, and present
  in the final ``FleetResult``;
- byte-identical results: the drained fleet equals the one-shot batch
  run of the same streams, even when several concurrent producers were
  being suspended and resumed mid-flood;
- correct reply ordering on the socket: control replies come back in
  request order with their ``request_id``s echoed, even with thousands
  of inject lines queued around them.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict

import numpy as np

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.runtime import FleetSimulator, ModuleAssignment
from repro.service import (
    Ack,
    FleetSupervisor,
    IngestServer,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    decode_message,
    encode_message,
    events_to_injects,
    inject_columns,
)

ATM = build_atm_server_net()
ASSIGNMENT = ModuleAssignment.from_groups(MODULE_PARTITION)


def atm_workload(instances=48, cells=4, seed=23):
    streams = make_fleet_testbench(instances, cells=cells, seed=seed)
    return streams, events_to_injects(streams)


def assert_results_identical(expected, actual):
    assert asdict(expected.stats) == asdict(actual.stats)
    assert np.array_equal(expected.instance_cycles, actual.instance_cycles)
    assert np.array_equal(expected.instance_events, actual.instance_events)


class TestInboxOverload:
    """The bounded inbox under a firehose: full, suspending, losing nothing."""

    def test_concurrent_producers_suspend_and_results_match(self):
        """Many producers parked on a tiny inbox; drained result is identical.

        Producers partition the fleet by instance (each owns every 4th
        instance's stream, in order), so per-instance order is theirs
        alone and any interleaving the backpressure forces between
        producers must not change the outcome.
        """
        streams, injects = atm_workload()
        expected = FleetSimulator(ATM, ASSIGNMENT).run(streams)

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT, inbox_limit=1)
            await supervisor.start()

            async def producer(owner: int) -> int:
                mine = [m for m in injects if m.instance % 4 == owner]
                for lo in range(0, len(mine), 16):
                    await supervisor.inject(inject_columns(mine[lo : lo + 16]))
                return len(mine)

            sent = await asyncio.gather(*(producer(k) for k in range(4)))
            assert sum(sent) == len(injects)
            return await supervisor.stop(drain=True)

        actual = asyncio.run(go())
        assert_results_identical(expected, actual)

    def test_packed_firehose_through_inbox_limit_one(self):
        """Pre-packed zero-copy injects obey the same backpressure contract."""
        streams, injects = atm_workload(instances=32, cells=3)
        expected = FleetSimulator(ATM, ASSIGNMENT).run(streams)

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT, inbox_limit=1)
            await supervisor.start()
            packed = supervisor.pack(inject_columns(injects))
            for lo in range(0, len(packed), 64):
                await supervisor.inject(packed.take(slice(lo, lo + 64)))
            return await supervisor.stop(drain=True)

        actual = asyncio.run(go())
        assert_results_identical(expected, actual)


class TestSocketFirehose:
    """A raw socket client flooding the ingest server."""

    def test_firehose_acks_in_order_and_no_loss(self):
        """Thousands of inject lines with interleaved controls.

        The reply stream must carry the snapshot replies and the final
        shutdown ``Ack`` in exactly request order, with ``request_id``s
        echoed; the snapshots must observe monotonically non-decreasing
        event counts; and the final drained result must be byte-identical
        to the one-shot batch run — overload shows up as latency, never
        as loss or reordering.
        """
        streams, injects = atm_workload(instances=40, cells=3)
        expected = FleetSimulator(ATM, ASSIGNMENT).run(streams)

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT, inbox_limit=2)
            await supervisor.start()
            server = IngestServer(supervisor)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)

            # the firehose: every inject as its own line, a snapshot
            # request after each third of the flood, shutdown at the end
            expected_ids = []
            lines = []
            third = max(1, len(injects) // 3)
            for i, event in enumerate(injects):
                lines.append(encode_message(event))
                if (i + 1) % third == 0:
                    request_id = len(expected_ids) + 1
                    expected_ids.append(request_id)
                    lines.append(
                        encode_message(SnapshotRequest(request_id=request_id))
                    )
            payload = ("\n".join(lines) + "\n").encode()

            async def flood():
                writer.write(payload)
                await writer.drain()
                final = encode_message(Shutdown(drain=True, request_id=99))
                writer.write(final.encode() + b"\n")
                await writer.drain()

            flood_task = asyncio.create_task(flood())
            replies = []
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                assert line, "server closed before the shutdown ack"
                reply = decode_message(line.strip())
                replies.append(reply)
                if isinstance(reply, Ack):
                    break
            await flood_task
            writer.close()
            await writer.wait_closed()
            await server.stop()
            result = await supervisor.stop(drain=True)
            return replies, expected_ids, result

        replies, expected_ids, actual = asyncio.run(go())
        snapshots, ack = replies[:-1], replies[-1]
        assert all(isinstance(r, SnapshotReply) for r in snapshots)
        assert [r.request_id for r in snapshots] == expected_ids  # in order
        events_seen = [r.events for r in snapshots]
        assert events_seen == sorted(events_seen)  # monotone progress
        assert isinstance(ack, Ack) and ack.ok and ack.request_id == 99
        assert_results_identical(expected, actual)
