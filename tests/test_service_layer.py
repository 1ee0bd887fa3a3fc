"""Unit coverage of the service layer: codec, telemetry, actors, supervisor.

Complements `tests/test_service_differential.py` (which pins result
equality across serving paths) with the layer-local behaviour: the
wire codec is total and strict, telemetry records validate against
their versioned schema, shard inboxes really bound memory and exert
backpressure, the shard registry maps negative and sparse keys, the
drain loop answers controls as ordered barriers, a Shutdown without
drain drops its backlog, a failed shard fails every request instead of
hanging, the supervisor's lifecycle is deterministic and it refuses
arguments it cannot honour, and the ingest server and its client answer
malformed, unknown, unexpected and late lines without dying.  Inject
frames: the client refuses what the JSON decoder refuses before writing
anything, and every malformed, cut or fuzzed frame gets a not-ok Ack or
drops only its own connection.  Also
pins `FleetResult.percentile`/`percentiles` edge cases and
cross-process `synthetic_streams` determinism.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import atm, heating, router
from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.petrinet.exceptions import NotEnabledError
from repro.petrinet.generators import unbalanced_choice_net
from repro.runtime import (
    Event,
    FleetEngine,
    FleetSimulator,
    ModuleAssignment,
    parse_timing,
    synthetic_streams,
)
from repro.runtime.fleet import FleetResult
from repro.runtime.rtos import ExecutionStats
from repro.service import (
    TELEMETRY_SCHEMA,
    WIRE_SCHEMA,
    Ack,
    FleetSupervisor,
    IngestServer,
    InjectBatchPacked,
    InjectEvent,
    InjectView,
    ProtocolError,
    Reload,
    ServiceClient,
    ShardActor,
    ShardCore,
    ShardFailed,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    TelemetryWriter,
    decode_message,
    encode_message,
    events_to_injects,
    inject_columns,
    validate_telemetry_record,
)
from repro.service.messages import (
    FRAME_COLUMNS,
    FRAME_MAGIC,
    FRAME_ROW_BYTES,
    FRAME_SIZES,
    MESSAGE_TYPES,
    FrameDecoder,
    FrameEncoder,
)

ATM = build_atm_server_net()
ASSIGNMENT = ModuleAssignment.from_groups(MODULE_PARTITION)


#: One wrong value per field of the controls and the replies:
#: ``(message type, field, value)``.
BAD_MESSAGE_FIELDS = [
    ("snapshot", "request_id", [1]),
    ("snapshot", "request_id", True),
    ("snapshot", "request_id", 1.5),
    ("snapshot_reply", "request_id", "3"),
    ("snapshot_reply", "instances", 10.5),
    ("snapshot_reply", "events", "400"),
    ("snapshot_reply", "cycles", 2**64),
    ("snapshot_reply", "budget_stops", False),
    ("snapshot_reply", "queue_depth", None),
    ("snapshot_reply", "throughput_eps", float("inf")),
    ("snapshot_reply", "percentiles", {"p50": "fast"}),
    ("shutdown", "drain", "no"),
    ("shutdown", "request_id", -(2**63) - 1),
    ("reload", "reset_stats", "false"),
    ("reload", "request_id", {}),
    ("ack", "request_id", 4.0),
    ("ack", "ok", 1),
    ("ack", "error", None),
]


class TestWireCodec:
    MESSAGES = [
        InjectEvent(instance=7, source="t_cell", time=1.5, choices={"p": "t"}),
        SnapshotRequest(request_id=3),
        SnapshotReply(
            request_id=3,
            instances=10,
            events=400,
            cycles=12345,
            budget_stops=1,
            queue_depth=7,
            throughput_eps=123.5,
            percentiles={"p50": 10.0, "p99": 20.0},
        ),
        Shutdown(drain=False, request_id=9),
        Reload(reset_stats=False, request_id=2),
        Ack(request_id=4, ok=False, error="boom"),
    ]

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.TYPE)
    def test_round_trip(self, message):
        line = encode_message(message)
        assert json.loads(line)["schema"] == WIRE_SCHEMA
        assert decode_message(line) == message
        assert decode_message(line.encode()) == message

    def test_rejects_invalid_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_message("{nope")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message("[1,2]")

    def test_rejects_wrong_schema(self):
        line = json.dumps({"schema": "repro-qss.service/99", "type": "inject"})
        with pytest.raises(ProtocolError, match="unsupported wire schema"):
            decode_message(line)

    def test_rejects_unknown_type(self):
        line = json.dumps({"schema": WIRE_SCHEMA, "type": "teleport"})
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message(line)

    def test_rejects_unknown_field(self):
        payload = json.loads(encode_message(SnapshotRequest()))
        payload["extra"] = 1
        with pytest.raises(ProtocolError, match="unknown field"):
            decode_message(json.dumps(payload))

    def test_rejects_missing_required_field(self):
        line = json.dumps({"schema": WIRE_SCHEMA, "type": "inject"})
        with pytest.raises(ProtocolError, match="bad payload"):
            decode_message(line)

    @pytest.mark.parametrize(
        "kind, name, value",
        BAD_MESSAGE_FIELDS,
        ids=[f"{kind}.{name}={value!r}" for kind, name, value in BAD_MESSAGE_FIELDS],
    )
    def test_rejects_control_and_reply_fields_of_the_wrong_type(
        self, kind, name, value
    ):
        (message,) = [m for m in self.MESSAGES if m.TYPE == kind]
        payload = json.loads(encode_message(message))
        payload[name] = value
        with pytest.raises(
            ProtocolError, match=f"^bad {kind} field {name!r}: expected "
        ):
            decode_message(json.dumps(payload))

    def test_batches_are_not_json_messages(self):
        """Batches cross the socket only as inject frames."""
        assert "inject_batch" not in MESSAGE_TYPES
        line = json.dumps({"schema": WIRE_SCHEMA, "type": "inject_batch", "events": []})
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message(line)

    def test_nesting_beyond_the_parser_stack_is_not_valid_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_message("[" * 100_000)


class TestTelemetrySchema:
    def good_record(self):
        return {
            "schema": TELEMETRY_SCHEMA,
            "elapsed_seconds": 1.25,
            "instances": 10,
            "events": 500,
            "events_delta": 100,
            "throughput_eps": 400.0,
            "queue_depth": 3,
            "budget_stops": 0,
            "cycle_percentiles": {"p50": 100.0, "p99": 200.0},
        }

    def test_valid_records_pass(self):
        validate_telemetry_record(self.good_record())

    def test_rejects_wrong_schema(self):
        record = self.good_record()
        record["schema"] = "repro-qss.telemetry/0"
        with pytest.raises(ValueError, match="unsupported telemetry schema"):
            validate_telemetry_record(record)

    @pytest.mark.parametrize(
        "missing",
        ["elapsed_seconds", "events", "queue_depth", "cycle_percentiles"],
    )
    def test_rejects_missing_field(self, missing):
        record = self.good_record()
        del record[missing]
        with pytest.raises(ValueError, match=missing):
            validate_telemetry_record(record)

    def test_rejects_wrong_type(self):
        record = self.good_record()
        record["events"] = "many"
        with pytest.raises(ValueError, match="wrong type"):
            validate_telemetry_record(record)

    def test_rejects_bool_counter(self):
        record = self.good_record()
        record["queue_depth"] = True
        with pytest.raises(ValueError, match="bool"):
            validate_telemetry_record(record)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("elapsed_seconds", float("nan")),
            ("elapsed_seconds", float("inf")),
            ("throughput_eps", float("inf")),
            ("throughput_eps", float("-inf")),
            ("throughput_eps", 10**400),
            ("cycle_percentiles", {"p50": float("nan")}),
            ("cycle_percentiles", {"p50": True}),
            ("cycle_percentiles", {"p99": float("inf")}),
        ],
    )
    def test_rejects_what_the_wire_codec_refuses(self, field, value, tmp_path):
        """Reals must be finite, as on the wire: the writer must never
        emit NaN or Infinity, which strict JSON readers refuse."""
        record = dict(self.good_record(), **{field: value})
        with pytest.raises(ValueError, match="finite"):
            validate_telemetry_record(record)
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(str(path)) as writer:
            with pytest.raises(ValueError, match="finite"):
                writer.emit(record)
        assert path.read_text() == ""

    def test_writer_appends_valid_json_lines(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(str(path)) as writer:
            writer.emit(self.good_record())
            writer.emit(self.good_record())
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_telemetry_record(json.loads(line))

    def test_writer_rejects_invalid_record(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(str(path)) as writer:
            with pytest.raises(ValueError):
                writer.emit(dict(self.good_record(), events="many"))
        assert path.read_text() == ""

    def test_writer_buffers_until_flush(self, tmp_path):
        """Emits buffer in memory; the file sees one write per flush."""
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(str(path)) as writer:
            writer.emit(self.good_record())
            writer.emit(self.good_record())
            assert path.read_text() == ""  # nothing written yet
            writer.flush()
            assert len(path.read_text().splitlines()) == 2
            writer.emit(self.good_record())  # buffered again
            assert len(path.read_text().splitlines()) == 2
        # close() flushed the remainder
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            validate_telemetry_record(json.loads(line))

    def test_writer_auto_flushes_at_buffer_limit(self, tmp_path):
        from repro.service.telemetry import BUFFER_LIMIT

        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(str(path)) as writer:
            for _ in range(BUFFER_LIMIT - 1):
                writer.emit(self.good_record())
            assert path.read_text() == ""
            writer.emit(self.good_record())  # limit reached -> auto-flush
            assert len(path.read_text().splitlines()) == BUFFER_LIMIT


class TestPackedBatch:
    """The zero-copy inject batch the ingest boundary hands the shard."""

    def test_packed_take_and_concat_preserve_order(self):
        batch = InjectBatchPacked(
            instances=np.array([5, 9, 5], dtype=np.int64),
            sources=np.array([1, 2, 1], dtype=np.int64),
            signatures=np.array([0, 3, 0], dtype=np.int64),
        )
        front = batch.take(slice(0, 2))
        back = batch.take(slice(2, 3))
        rejoined = InjectBatchPacked.concat([front, back])
        assert len(front) == 2 and len(back) == 1
        assert np.array_equal(rejoined.instances, batch.instances)
        assert np.array_equal(rejoined.signatures, batch.signatures)


def packed_ticks(engine, instances):
    """A packed batch of one ``t_tick`` event per listed instance."""
    count = len(instances)
    return InjectBatchPacked(
        instances=np.asarray(instances, dtype=np.int64),
        sources=np.full(
            count, engine.cnet.transition_index["t_tick"], dtype=np.int64
        ),
        signatures=np.zeros(count, dtype=np.int64),
    )


class TestShardBackpressure:
    def test_put_suspends_until_the_actor_drains(self):
        async def go():
            engine = FleetEngine(ATM, ASSIGNMENT)
            actor = ShardActor(engine, inbox_limit=1)
            batch = packed_ticks(engine, [0])
            await actor.put(batch)
            blocked = asyncio.create_task(actor.put(batch))
            await asyncio.sleep(0.01)
            assert not blocked.done()  # backpressure: producer is parked
            runner = asyncio.create_task(actor.run())
            await asyncio.wait_for(blocked, timeout=2)
            keys, result = await asyncio.wait_for(
                actor.request(Shutdown(drain=True)), timeout=2
            )
            await runner
            assert keys == [0]
            assert result.stats.events_processed == 2

        asyncio.run(go())


class TestShardRegistry:
    """Instance keys map to kernel rows: keys in the dense range through
    one gather, negative and sparse keys through the dict, and both
    agree on every registered key."""

    def test_sparse_and_negative_keys_register_once(self):
        engine = FleetEngine(ATM, ASSIGNMENT)
        core = ShardCore(engine)
        sparse = [-7, 1 << 24, 1 << 40, 3, -7]
        assert core.serve_packed(packed_ticks(engine, sparse)) == 5
        # key 3 comes back in an all-dense batch: the row the dict path
        # registered, not a new instance
        assert core.serve_packed(packed_ticks(engine, [3, 3])) == 2
        keys, result = core.result()
        assert keys == [-7, 1 << 24, 1 << 40, 3]
        assert result.instance_events.tolist() == [2, 1, 1, 3]
        assert engine.instances == 4

    def test_dense_rows_grow_past_their_capacity(self):
        engine = FleetEngine(ATM, ASSIGNMENT)
        core = ShardCore(engine)
        core.serve_packed(packed_ticks(engine, [5000, 1, 5000]))
        core.serve_packed(packed_ticks(engine, [70_000, 1, 5000]))
        keys, result = core.result()
        assert keys == [1, 5000, 70_000]
        assert result.instance_events.tolist() == [2, 3, 1]
        assert engine.instances == 3


def reply_from_result(engine, queue_depth):
    """The snapshot reply as built from a whole ``FleetResult``, with
    the wall-clock throughput left out."""
    result = engine.result()
    return SnapshotReply(
        request_id=0,
        instances=engine.instances,
        events=result.stats.events_processed,
        cycles=result.stats.total_cycles,
        budget_stops=result.stats.budget_stops,
        queue_depth=queue_depth,
        throughput_eps=0.0,
        percentiles=result.percentiles(),
    )


#: Fleet -> (net, assignment, streams, engine options).
SNAPSHOT_FLEETS = {
    "atm": lambda: (ATM, ASSIGNMENT, make_fleet_testbench(12, cells=4, seed=5), {}),
    "router": lambda: (
        router.build_router_net(),
        ModuleAssignment.from_groups(router.MODULE_PARTITION),
        router.make_fleet_testbench(12, 6, seed=5),
        {},
    ),
    "heating": lambda: (
        heating.build_heating_net(),
        ModuleAssignment.from_groups(heating.MODULE_PARTITION),
        heating.make_fleet_testbench(12, 6, seed=5),
        {},
    ),
    "atm_budget_stops": lambda: (
        ATM,
        ASSIGNMENT,
        make_fleet_testbench(8, cells=4, seed=5),
        dict(max_firings_per_event=8, on_budget="stop"),
    ),
}


class TestSnapshotCounters:
    """``ShardCore.stats`` reads the engine's counters instead of
    building a ``FleetResult``; its reply is the one the result gives."""

    @pytest.mark.parametrize("fleet", sorted(SNAPSHOT_FLEETS))
    def test_counters_equal_the_result(self, fleet):
        net, assignment, streams, options = SNAPSHOT_FLEETS[fleet]()
        supervisor = FleetSupervisor(net, assignment)
        engine = FleetEngine(
            supervisor.compiled,
            assignment,
            signatures=supervisor.signatures,
            **options,
        )
        core = ShardCore(engine)

        def check(queue_depth):
            reply = dataclasses.replace(core.stats(queue_depth), throughput_eps=0.0)
            expected = reply_from_result(engine, queue_depth)
            assert reply == expected
            assert encode_message(reply) == encode_message(expected)

        check(0)
        injects = events_to_injects(streams)
        half = len(injects) // 2
        for lo in range(0, half, 17):
            batch = inject_columns(injects[lo : min(lo + 17, half)])
            core.serve_packed(supervisor.pack(batch))
            check(lo % 3)
        replies = []
        core.drain(
            [(Reload(reset_stats=False), "reload")],
            lambda token, reply: replies.append(reply),
        )
        assert replies == [Ack()]
        check(0)
        core.serve_packed(supervisor.pack(inject_columns(injects[half:])))
        check(1)
        assert engine.events_total == len(injects)
        if options:
            assert engine.budget_stops > 0


def barrier_case():
    """A supervisor plus its packed A (the first 6 injects) and B (the
    other 12) of a 4-instance ATM fleet, and a bare engine sharing the
    supervisor's signature table."""
    supervisor = FleetSupervisor(ATM, ASSIGNMENT)
    injects = events_to_injects(make_fleet_testbench(4, cells=2, seed=1))
    assert len(injects) == 18
    engine = FleetEngine(
        supervisor.compiled, ASSIGNMENT, signatures=supervisor.signatures
    )
    batches = {
        "A": supervisor.pack(inject_columns(injects[:6])),
        "B": supervisor.pack(inject_columns(injects[6:])),
    }
    return supervisor, engine, batches


#: Inbox order -> (items, events the last snapshot observes, events at the end).
BARRIER_ORDERS = {
    "reload_between": (("A", Reload(), "B", SnapshotRequest()), 12, 12),
    "snapshot_between": (("A", SnapshotRequest(), "B"), 6, 18),
}


class TestOrderedBarriers:
    """Controls are barriers answered in inbox order."""

    @pytest.mark.parametrize("order", sorted(BARRIER_ORDERS))
    def test_drain_answers_controls_in_inbox_order(self, order):
        """The shard's drain loop, driven directly."""
        _, engine, batches = barrier_case()
        sequence, observed, final = BARRIER_ORDERS[order]
        items = [
            batches[item] if item in batches else (item, position)
            for position, item in enumerate(sequence)
        ]
        controls = [p for p, item in enumerate(sequence) if item not in batches]
        replies = []
        core = ShardCore(engine)
        assert not core.drain(
            items, lambda token, reply: replies.append((token, reply))
        )
        assert [token for token, _ in replies] == controls
        snapshot = replies[-1][1]
        assert isinstance(snapshot, SnapshotReply)
        assert snapshot.events == observed
        assert snapshot.queue_depth == len(sequence) - 1 - controls[-1]
        assert engine.events_total == final

    @pytest.mark.parametrize("order", sorted(BARRIER_ORDERS))
    def test_actor_inbox_controls_are_barriers(self, order):
        """The inbox holds the whole sequence before the actor loop starts."""
        sequence, observed, final = BARRIER_ORDERS[order]

        async def go():
            _, engine, batches = barrier_case()
            actor = ShardActor(engine)
            futures = []
            for item in sequence:
                if item in batches:
                    actor.inbox.put_nowait(batches[item])
                else:
                    futures.append(asyncio.get_running_loop().create_future())
                    actor.inbox.put_nowait((item, futures[-1]))
            await actor.start()
            replies = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=5
            )
            keys, result = await asyncio.wait_for(
                actor.request(Shutdown()), timeout=5
            )
            await actor.join()
            return replies[-1], sorted(keys), result

        snapshot, keys, result = asyncio.run(go())
        assert snapshot.events == observed
        assert keys == [0, 1, 2, 3]
        assert result.stats.events_processed == final

    def test_supervisor_shard_answers_controls_in_order(self):
        """[A, Reload, B, Snapshot] sent back to back through one shard."""

        async def go():
            supervisor, _, batches = barrier_case()
            await supervisor.start()
            try:
                shard = supervisor._shard
                replies = await asyncio.wait_for(
                    asyncio.gather(
                        shard.put(batches["A"]),
                        shard.request(Reload()),
                        shard.put(batches["B"]),
                        shard.request(SnapshotRequest()),
                    ),
                    timeout=10,
                )
            finally:
                result = await asyncio.wait_for(supervisor.stop(), timeout=10)
            return replies, result

        replies, result = asyncio.run(go())
        assert replies[1] == Ack()
        assert replies[3].events == 12
        assert result.stats.events_processed == 12


class TestFailedShard:
    """A shard whose serving raised fails every request; none hangs."""

    def test_requests_to_a_failed_shard_raise(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            for i in range(4):
                await supervisor.inject(InjectEvent(instance=i, source="t_tick"))
            # a known transition, so pack() accepts it, but not a source:
            # the kernel raises inside the shard
            await supervisor.inject(
                InjectEvent(instance=0, source="t_parse_header")
            )
            with pytest.raises(ShardFailed) as caught:
                await asyncio.wait_for(supervisor.snapshot(), timeout=10)
            assert isinstance(caught.value.error, NotEnabledError)
            assert "t_parse_header" in str(caught.value)
            # later injects are dropped, later requests fail the same way
            await supervisor.inject(InjectEvent(instance=0, source="t_tick"))
            with pytest.raises(ShardFailed):
                await asyncio.wait_for(supervisor.reload(), timeout=10)
            with pytest.raises(ShardFailed):
                await asyncio.wait_for(supervisor.stop(), timeout=10)
            with pytest.raises(RuntimeError, match="not running"):
                await supervisor.stop()

        asyncio.run(go())

    def test_ingest_answers_a_failed_shard_with_not_ok_ack(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            lines = [
                InjectEvent(instance=0, source="t_parse_header"),
                SnapshotRequest(request_id=7),
                Reload(),
            ]
            for message in lines:
                writer.write(encode_message(message).encode() + b"\n")
            await writer.drain()
            replies = []
            for _ in range(2):
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                replies.append(decode_message(line.strip()))
            writer.close()
            await writer.wait_closed()
            await server.stop()
            with pytest.raises(ShardFailed):
                await asyncio.wait_for(supervisor.stop(), timeout=10)
            return replies

        snapshot_ack, reload_ack = asyncio.run(go())
        assert isinstance(snapshot_ack, Ack) and not snapshot_ack.ok
        assert snapshot_ack.request_id == 7
        assert "shard failed: NotEnabledError" in snapshot_ack.error
        assert isinstance(reload_ack, Ack) and not reload_ack.ok

    def test_not_enabled_error_names_the_instance_key(self):
        keys = (1000, 2000, 3000, 4000)

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            for key in keys:
                await supervisor.inject(InjectEvent(instance=key, source="t_cell"))
            await supervisor.inject(
                InjectEvent(instance=4000, source="t_parse_header")
            )
            with pytest.raises(ShardFailed) as caught:
                await asyncio.wait_for(supervisor.snapshot(), timeout=10)
            with pytest.raises(ShardFailed):
                await asyncio.wait_for(supervisor.stop(), timeout=10)
            return caught.value

        failure = asyncio.run(go())
        # the shard's kernel row of key 4000 is not the key
        assert isinstance(failure.error, NotEnabledError)
        assert str(failure.error) == (
            "transition 't_parse_header' is not enabled in instance 4000"
        )


class TestStoppedShard:
    """A shard that answered its Shutdown fails every later request with
    a "shard stopped" ShardFailed: controls queued behind the Shutdown,
    requests after join() and requests racing stop().  None hangs."""

    def test_drain_fails_controls_behind_shutdown(self):
        _, engine, batches = barrier_case()
        core = ShardCore(engine)
        replies = []

        def answer(token, reply):
            replies.append((token, reply))

        items = [
            batches["A"],
            (Shutdown(), "stop"),
            batches["B"],
            (SnapshotRequest(), "snapshot"),
        ]
        assert core.drain(items, answer)
        assert core.drain([(Reload(), "reload")], answer)
        assert [token for token, _ in replies] == ["stop", "snapshot", "reload"]
        _, result = replies[0][1]
        assert result.stats.events_processed == 6  # B, behind it, is dropped
        for _, reply in replies[1:]:
            assert isinstance(reply, ShardFailed)
            assert str(reply) == "shard failed: RuntimeError: shard stopped"
        assert engine.events_total == 6

    def test_actor_answers_a_snapshot_queued_behind_shutdown(self):
        async def go():
            actor = ShardActor(FleetEngine(ATM, ASSIGNMENT))
            loop = asyncio.get_running_loop()
            stop, snapshot = loop.create_future(), loop.create_future()
            actor.inbox.put_nowait((Shutdown(), stop))
            actor.inbox.put_nowait((SnapshotRequest(), snapshot))
            await actor.start()
            return await asyncio.wait_for(
                asyncio.gather(stop, snapshot, return_exceptions=True), timeout=5
            )

        (keys, _), failure = asyncio.run(go())
        assert keys == []
        assert str(failure) == "shard failed: RuntimeError: shard stopped"

    def test_request_after_stop_fails(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            await asyncio.wait_for(supervisor.stop(), timeout=10)
            shard = supervisor._shard
            with pytest.raises(ShardFailed, match="shard stopped"):
                await asyncio.wait_for(
                    shard.request(SnapshotRequest()), timeout=10
                )
            # injects to a stopped shard are dropped, not an error
            await asyncio.wait_for(
                shard.put(packed_ticks(FleetEngine(ATM, ASSIGNMENT), [0])),
                timeout=10,
            )

        asyncio.run(go())

    def test_snapshot_racing_stop_fails(self):
        async def go():
            unretrieved = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _, context: unretrieved.append(context))
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            await supervisor.inject(InjectEvent(instance=0, source="t_tick"))
            # stop() enqueues its Shutdown first, the snapshot lands behind it
            stopping = asyncio.ensure_future(supervisor.stop())
            snapshot = asyncio.ensure_future(supervisor.snapshot())
            result, failure = await asyncio.wait_for(
                asyncio.gather(stopping, snapshot, return_exceptions=True),
                timeout=10,
            )
            del stopping, snapshot
            gc.collect()
            await asyncio.sleep(0)
            return result, failure, unretrieved

        result, failure, unretrieved = asyncio.run(go())
        assert result.stats.events_processed == 1
        assert str(failure) == "shard failed: RuntimeError: shard stopped"
        assert unretrieved == []

    @pytest.mark.parametrize("stopped", ["shard_stopped", "supervisor_stopped"])
    def test_ingest_answers_a_stopped_shard_with_not_ok_ack(self, stopped):
        """Every request line gets an answer.  ``shard_stopped``: the
        shard stopped while the supervisor still runs, as it does while
        stop() is in flight.  ``supervisor_stopped``: stop() returned
        while a connection stayed open (the CLI closes the listener, then
        stops the supervisor), so its lines outlive the supervisor."""

        async def go():
            unhandled = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _, context: unhandled.append(context))
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            lines = [SnapshotRequest(request_id=9)]
            if stopped == "shard_stopped":
                await asyncio.wait_for(
                    supervisor._shard.request(Shutdown()), timeout=10
                )
                reader, writer = await asyncio.open_connection(host, port)
            else:
                reader, writer = await asyncio.open_connection(host, port)
                await asyncio.wait_for(supervisor.stop(), timeout=10)
                lines.insert(0, InjectEvent(instance=0, source="t_tick"))
            for message in lines:
                writer.write(encode_message(message).encode() + b"\n")
            await writer.drain()
            replies = [
                decode_message(
                    (await asyncio.wait_for(reader.readline(), timeout=10)).strip()
                )
                for _ in lines
            ]
            writer.close()
            await writer.wait_closed()
            await server.stop()
            if stopped == "shard_stopped":
                with pytest.raises(ShardFailed):
                    await asyncio.wait_for(supervisor.stop(), timeout=10)
            # the connection handler ends on the client's EOF; await it,
            # so a handler that raised is reported here
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            await asyncio.wait_for(asyncio.gather(*handlers), timeout=10)
            return replies, unhandled

        replies, unhandled = asyncio.run(go())
        assert unhandled == []
        for ack in replies:
            assert isinstance(ack, Ack) and not ack.ok
        assert replies[-1].request_id == 9
        if stopped == "shard_stopped":
            assert replies[-1].error == "shard failed: RuntimeError: shard stopped"
        else:
            assert [ack.error for ack in replies] == ["supervisor is not running"] * 2


class TestShutdownWithoutDrain:
    """Shutdown(drain=False) drops the injects queued since the previous
    barrier; what was served ahead of that barrier stays."""

    def test_drain_drops_the_injects_since_the_last_barrier(self):
        _, engine, batches = barrier_case()
        core = ShardCore(engine)
        replies = []
        items = [
            batches["A"],
            (SnapshotRequest(), "snapshot"),
            batches["B"],
            (Shutdown(drain=False), "stop"),
        ]
        assert core.drain(
            items, lambda token, reply: replies.append((token, reply))
        )
        assert [token for token, _ in replies] == ["snapshot", "stop"]
        assert replies[0][1].events == 6
        keys, result = replies[1][1]
        # B's instances were never registered
        assert sorted(keys) == sorted(set(batches["A"].instances.tolist()))
        assert result.stats.events_processed == 6
        assert engine.events_total == 6

    def test_supervisor_stop_without_drain_keeps_what_a_snapshot_saw(self):
        async def go():
            supervisor, _, batches = barrier_case()
            await supervisor.start()
            await supervisor.inject(batches["A"])
            snapshot = await asyncio.wait_for(supervisor.snapshot(), timeout=10)
            result = await asyncio.wait_for(
                supervisor.stop(drain=False), timeout=10
            )
            return snapshot, result

        snapshot, result = asyncio.run(go())
        assert snapshot.queue_depth == 0
        assert snapshot.events == result.stats.events_processed == 6


class TestSupervisorLifecycle:
    def test_requests_before_start_raise(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            requests = (
                lambda: supervisor.inject(InjectEvent(instance=0, source="t_tick")),
                supervisor.snapshot,
                supervisor.reload,
                supervisor.stop,
            )
            for request in requests:
                with pytest.raises(RuntimeError, match="not running"):
                    await request()

        asyncio.run(go())

    def test_start_twice_raises_and_the_first_shards_keep_serving(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            first = supervisor._shard
            with pytest.raises(RuntimeError, match="already running"):
                await supervisor.start()
            assert supervisor._shard is first
            await supervisor.inject(InjectEvent(instance=0, source="t_tick"))
            return await asyncio.wait_for(supervisor.stop(), timeout=10)

        assert asyncio.run(go()).stats.events_processed == 1

    def test_reload_keeping_stats_resets_only_the_markings(self):
        """On the merge fleet a marking changes what the next event
        costs, so the second pass shows whether the reload reset it."""
        net = unbalanced_choice_net(5, branches=3, max_weight=4, merge=True)
        assignment = ModuleAssignment.single_task(net)
        batch = inject_columns(
            events_to_injects(synthetic_streams(net, 6, 4, seed=7))
        )

        async def two_passes(reload):
            supervisor = FleetSupervisor(net, assignment)
            await supervisor.start()
            await supervisor.inject(batch)
            first = await supervisor.snapshot()
            if reload:
                await supervisor.reload(reset_stats=False)
                kept = await supervisor.snapshot()
                assert (kept.events, kept.cycles) == (first.events, first.cycles)
                assert kept.instances == first.instances
            await supervisor.inject(batch)
            second = await supervisor.snapshot()
            await asyncio.wait_for(supervisor.stop(), timeout=10)
            return first, second

        first, reloaded = asyncio.run(two_passes(reload=True))
        _, carried_on = asyncio.run(two_passes(reload=False))
        assert reloaded.events == carried_on.events == 2 * first.events
        # from the initial marking again, the pass costs what the first did
        assert reloaded.cycles == 2 * first.cycles
        assert carried_on.cycles != reloaded.cycles

    def test_snapshot_reports_the_one_shard(self):
        """The supervisor's snapshot is the shard's own reply."""
        streams = make_fleet_testbench(10, cells=2, seed=4)
        injects = events_to_injects(streams)
        expected = FleetSimulator(ATM, ASSIGNMENT).run(streams)

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            await supervisor.inject(inject_columns(injects))
            snapshot = await supervisor.snapshot()
            await asyncio.wait_for(supervisor.stop(), timeout=10)
            return snapshot

        snapshot = asyncio.run(go())
        assert isinstance(snapshot, SnapshotReply) and snapshot.request_id == 0
        assert (snapshot.instances, snapshot.events) == (10, len(injects))
        assert snapshot.cycles == expected.stats.total_cycles
        assert snapshot.budget_stops == 0 and snapshot.queue_depth == 0
        assert snapshot.throughput_eps > 0
        assert dict(snapshot.percentiles) == expected.percentiles()

    def test_inject_of_another_type_raises_and_the_shard_keeps_serving(self):
        """A wrong form is refused before it is queued.  Queued, it
        killed the shard's loop, and every later inject was dropped
        without notice."""
        tick = InjectEvent(instance=0, source="t_tick")

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            await supervisor.inject(tick)
            for wrong in ([tick], "t_tick", None):
                with pytest.raises(TypeError, match=type(wrong).__name__):
                    await asyncio.wait_for(supervisor.inject(wrong), timeout=10)
            await supervisor.inject(tick)
            await supervisor.inject(inject_columns([tick]))
            snapshot = await asyncio.wait_for(supervisor.snapshot(), timeout=10)
            result = await asyncio.wait_for(supervisor.stop(), timeout=10)
            return snapshot, result

        snapshot, result = asyncio.run(asyncio.wait_for(go(), timeout=30))
        assert snapshot.events == 3
        expected = FleetSimulator(ATM, ASSIGNMENT).run([[Event(0.0, "t_tick")] * 3])
        assert dataclasses.asdict(result.stats) == dataclasses.asdict(expected.stats)
        assert result.instance_events.tolist() == [3]
        assert np.array_equal(result.instance_cycles, expected.instance_cycles)


class TestSupervisorRouting:
    @pytest.mark.parametrize(
        "options, fragment",
        [
            ({"backend": "process"}, "unknown service backend"),
            ({"shards": 0}, "shards must be 1"),
            ({"shards": 2}, "shards must be 1"),
            ({"inbox_limit": 0}, "inbox_limit must be positive"),
            ({"inbox_limit": -5}, "inbox_limit must be positive"),
        ],
    )
    def test_argument_validation(self, options, fragment):
        """One async shard is the only service, and its inbox is bounded:
        an inbox limit below 1 would build an unbounded asyncio.Queue."""
        FleetSupervisor(ATM, ASSIGNMENT, shards=1, backend="async", inbox_limit=1)
        with pytest.raises(ValueError, match=fragment):
            FleetSupervisor(ATM, ASSIGNMENT, **options)

    def test_reload_resets_markings_and_stats(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            for i in range(4):
                await supervisor.inject(
                    InjectEvent(instance=i, source="t_tick")
                )
            before = await supervisor.snapshot()
            assert before.events == 4
            await supervisor.reload()
            after = await supervisor.snapshot()
            assert after.events == 0
            assert after.instances == 4  # instances survive the reload
            result = await supervisor.stop()
            assert result.stats.events_processed == 0
            return result

        asyncio.run(go())


#: Inject lines the decoder refuses, one per broken field rule.  The
#: first three used to close the connection; ``instance_float`` was
#: served as instance 1.
BAD_INJECT_FIELDS = {
    "instance_string": {"instance": "abc"},
    "instance_beyond_int64": {"instance": 2**70},
    "instance_float": {"instance": 1.5},
    "instance_bool": {"instance": True},
    "source_number": {"source": 5},
    "time_string": {"time": "soon"},
    "time_nan": {"time": float("nan")},
    "time_infinite": {"time": float("inf")},
    "time_bool": {"time": True},
    "choices_list": {"choices": ["x"]},
    "choices_number": {"choices": {"p_timer_state": 1}},
}


def inject_payload(**fields):
    payload = {"instance": 1, "source": "t_tick", "time": 0.0, "choices": {}}
    payload.update(fields)
    return payload


def wire_line(payload, kind="inject"):
    line = dict(payload, schema=WIRE_SCHEMA, type=kind)
    return json.dumps(line).encode() + b"\n"


def raw_frame(rows=(), sources=(), choices=(), header=None):
    """An inject frame built by hand: ``rows`` of (instance, time,
    source id, choice id) over the table entries the header adds."""
    if header is None:
        header = json.dumps(
            {"schema": WIRE_SCHEMA, "sources": list(sources), "choices": list(choices)}
        ).encode()
    columns = list(zip(*rows)) or [()] * len(FRAME_COLUMNS)
    body = b"".join(
        np.array(column, dtype=dtype).tobytes()
        for column, (_, dtype) in zip(columns, FRAME_COLUMNS)
    )
    return FRAME_MAGIC + FRAME_SIZES.pack(len(header), len(rows)) + header + body


def serve_bad_line(bad_line):
    """One good inject, ``bad_line``, then a snapshot, on one
    connection: returns the two replies and the drained result."""

    async def go():
        supervisor = FleetSupervisor(ATM, ASSIGNMENT)
        await supervisor.start()
        server = IngestServer(supervisor, port=0)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(wire_line(inject_payload(instance=0)))
        writer.write(bad_line)
        writer.write(encode_message(SnapshotRequest(request_id=5)).encode() + b"\n")
        await writer.drain()
        replies = []
        for _ in range(2):
            line = await asyncio.wait_for(reader.readline(), timeout=10)
            replies.append(decode_message(line.strip()))
        writer.close()
        await writer.wait_closed()
        await server.stop()
        result = await asyncio.wait_for(supervisor.stop(), timeout=10)
        return replies, result

    return asyncio.run(go())


class TestIngestServer:
    @pytest.mark.parametrize(
        "fields", BAD_INJECT_FIELDS.values(), ids=list(BAD_INJECT_FIELDS)
    )
    def test_bad_inject_field_gets_error_ack_and_connection_survives(self, fields):
        (ack, snapshot), result = serve_bad_line(wire_line(inject_payload(**fields)))
        assert isinstance(ack, Ack) and not ack.ok
        assert f"bad inject field {next(iter(fields))!r}" in ack.error
        assert isinstance(snapshot, SnapshotReply) and snapshot.request_id == 5
        assert snapshot.events == 1
        assert result.stats.events_processed == 1

    def test_reload_with_a_string_flag_gets_error_ack_and_keeps_the_counters(self):
        """``"false"`` is not a boolean: the reload is refused instead of
        being served as a truthy ``reset_stats`` that wipes the counters."""
        bad_reload = wire_line({"reset_stats": "false", "request_id": 8}, "reload")
        (ack, snapshot), result = serve_bad_line(bad_reload)
        assert isinstance(ack, Ack) and not ack.ok
        assert ack.error.startswith("bad reload field 'reset_stats': expected a boolean")
        assert isinstance(snapshot, SnapshotReply) and snapshot.request_id == 5
        assert snapshot.events == 1
        assert result.stats.events_processed == 1

    def test_batch_with_one_bad_inject_is_rejected_whole(self):
        # the middle row names a choice entry the connection never added
        frame = raw_frame(
            rows=[(2, 0.0, 0, 0), (3, 0.0, 0, 1), (4, 0.0, 0, 0)],
            sources=["t_tick"],
        )
        (ack, snapshot), result = serve_bad_line(frame)
        assert isinstance(ack, Ack) and not ack.ok
        assert "bad inject field 'choices'" in ack.error
        assert (snapshot.instances, snapshot.events) == (1, 1)
        assert result.stats.events_processed == 1

    def test_line_that_is_not_utf8_gets_error_ack(self):
        (ack, snapshot), result = serve_bad_line(b'{"source": "\xff"}\n')
        assert isinstance(ack, Ack) and not ack.ok
        assert "not valid JSON" in ack.error
        assert snapshot.events == result.stats.events_processed == 1

    def test_line_beyond_the_stream_limit_drops_only_its_connection(
        self, monkeypatch
    ):
        import repro.service.ingest as ingest

        monkeypatch.setattr(ingest, "STREAM_LIMIT", 1024)

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"x" * 4096 + b"\n")
            await writer.drain()
            closed = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            client = await ServiceClient.connect(host, port)
            await client.inject(0, "t_tick")
            snapshot = await asyncio.wait_for(client.snapshot(), timeout=10)
            await client.close()
            await server.stop()
            await asyncio.wait_for(supervisor.stop(), timeout=10)
            return closed, snapshot

        closed, snapshot = asyncio.run(go())
        assert closed == b""
        assert snapshot.events == 1

    def test_malformed_line_gets_error_ack_and_connection_survives(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = decode_message((await reader.readline()).strip())
            assert isinstance(reply, Ack) and not reply.ok
            assert "JSON" in reply.error
            # the same connection still serves real requests
            writer.write(
                encode_message(SnapshotRequest(request_id=5)).encode() + b"\n"
            )
            await writer.drain()
            reply = decode_message((await reader.readline()).strip())
            assert isinstance(reply, SnapshotReply)
            assert reply.request_id == 5
            writer.close()
            await writer.wait_closed()
            await server.stop()
            await supervisor.stop()

        asyncio.run(go())

    def test_unknown_source_gets_error_ack_and_connection_survives(self):
        """The frame naming an unknown source is rejected whole; none of
        its events is served, and the connection keeps serving."""

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                encode_message(InjectEvent(instance=0, source="t_tick")).encode()
                + b"\n"
            )
            writer.write(
                FrameEncoder().encode(
                    [
                        InjectEvent(instance=1, source="t_tick"),
                        InjectEvent(instance=1, source="no_such_transition"),
                    ]
                )
            )
            writer.write(
                encode_message(SnapshotRequest(request_id=5)).encode() + b"\n"
            )
            await writer.drain()
            replies = []
            for _ in range(2):
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                replies.append(decode_message(line.strip()))
            writer.close()
            await writer.wait_closed()
            await server.stop()
            result = await asyncio.wait_for(supervisor.stop(), timeout=10)
            return replies, result

        (ack, snapshot), result = asyncio.run(go())
        assert isinstance(ack, Ack) and not ack.ok
        assert "no_such_transition" in ack.error
        assert isinstance(snapshot, SnapshotReply)
        assert snapshot.request_id == 5
        assert snapshot.events == 1
        assert result.stats.events_processed == 1

    def test_unexpected_message_type_gets_error_ack(self):
        """A valid wire message that is not a request (here a reply)."""

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            for message in (Ack(request_id=4), SnapshotRequest(request_id=6)):
                writer.write(encode_message(message).encode() + b"\n")
            await writer.drain()
            replies = []
            for _ in range(2):
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                replies.append(decode_message(line.strip()))
            writer.close()
            await writer.wait_closed()
            await server.stop()
            await asyncio.wait_for(supervisor.stop(), timeout=10)
            return replies

        ack, snapshot = asyncio.run(go())
        assert ack == Ack(ok=False, error="unexpected message type 'ack'")
        assert isinstance(snapshot, SnapshotReply)
        assert snapshot.request_id == 6

    def test_shutdown_request_is_acked_and_left_to_the_owner(self):
        """The server records the request; the fleet stops only when
        its owner calls stop(), so the connection still serves."""

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            await client.inject(0, "t_tick")
            ack = await asyncio.wait_for(client.shutdown(drain=False), timeout=10)
            requested = server.shutdown_requested.is_set()
            snapshot = await asyncio.wait_for(client.snapshot(), timeout=10)
            await client.close()
            await server.stop()
            result = await asyncio.wait_for(
                supervisor.stop(drain=server.shutdown_drain), timeout=10
            )
            return ack, requested, server.shutdown_drain, snapshot, result

        ack, requested, drain, snapshot, result = asyncio.run(go())
        assert ack == Ack(request_id=1)
        assert requested and drain is False
        assert (snapshot.request_id, snapshot.events) == (2, 1)
        assert result.stats.events_processed == 1

    def test_reload_over_the_socket(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            ticks = [InjectEvent(instance=i, source="t_tick") for i in range(4)]
            await client.inject_batch(ticks)
            kept_ack = await client.reload(reset_stats=False)
            kept = await client.snapshot()
            reset_ack = await client.reload()
            reset = await client.snapshot()
            await client.close()
            await server.stop()
            await asyncio.wait_for(supervisor.stop(), timeout=10)
            return kept_ack, kept, reset_ack, reset

        kept_ack, kept, reset_ack, reset = asyncio.run(go())
        # each reload's Ack echoes its request id; the snapshots took 2, 4
        assert (kept_ack, reset_ack) == (Ack(request_id=1), Ack(request_id=3))
        assert (kept.request_id, reset.request_id) == (2, 4)
        assert (kept.instances, kept.events) == (4, 4)
        assert (reset.instances, reset.events, reset.cycles) == (4, 0, 0)

    def test_client_snapshot_rejects_an_error_ack(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            # a known transition that is not a source fails the shard
            await client.inject(0, "t_parse_header")
            with pytest.raises(
                ProtocolError, match="expected snapshot_reply, got 'ack'"
            ):
                await asyncio.wait_for(client.snapshot(), timeout=10)
            await client.close()
            await server.stop()
            with pytest.raises(ShardFailed):
                await asyncio.wait_for(supervisor.stop(), timeout=10)

        asyncio.run(go())

    def test_client_stays_in_step_after_a_rejected_inject(self):
        """A rejected inject's not-ok Ack is raised by the next request
        once that request's own reply is read, so every later reply on
        the connection still answers the request that asked for it."""

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            await client.inject(0, "t_tick")
            await client.inject_batch(
                [InjectEvent(instance=1, source="no_such_transition")]
            )
            with pytest.raises(ProtocolError, match="no_such_transition"):
                await asyncio.wait_for(client.snapshot(), timeout=10)
            snapshot = await asyncio.wait_for(client.snapshot(), timeout=10)
            reload_ack = await asyncio.wait_for(client.reload(), timeout=10)
            after = await asyncio.wait_for(client.snapshot(), timeout=10)
            shutdown_ack = await asyncio.wait_for(client.shutdown(), timeout=10)
            await client.close()
            await server.stop()
            await asyncio.wait_for(supervisor.stop(), timeout=10)
            return snapshot, reload_ack, after, shutdown_ack

        snapshot, reload_ack, after, shutdown_ack = asyncio.run(go())
        assert (snapshot.request_id, snapshot.events) == (2, 1)
        assert reload_ack == Ack(request_id=3)
        assert (after.request_id, after.events) == (4, 0)
        assert shutdown_ack == Ack(request_id=5)

    def test_client_reports_a_closed_connection(self):
        async def read_one_line_and_close(reader, writer):
            await reader.readline()
            writer.close()

        async def go():
            server = await asyncio.start_server(
                read_one_line_and_close, "127.0.0.1", 0
            )
            host, port = server.sockets[0].getsockname()[:2]
            client = await ServiceClient.connect(host, port)
            try:
                with pytest.raises(
                    ConnectionError, match="service closed the connection"
                ):
                    await asyncio.wait_for(client.snapshot(), timeout=10)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(go())

    def test_large_inject_batch_crosses_the_wire(self):
        # regression: a full frame is far beyond asyncio's 64 KiB
        # default stream limit — the server reads it under the raised
        # STREAM_LIMIT and the client splits batches larger than
        # BATCH_CHUNK events across frames
        from repro.service.ingest import BATCH_CHUNK

        injects = events_to_injects(
            make_fleet_testbench(200, cells=10, seed=3)
        )
        assert len(injects) > BATCH_CHUNK  # exercises the client split
        one_frame = FrameEncoder().encode(injects[:BATCH_CHUNK])
        assert len(one_frame) > 64 * 1024  # exercises the server limit

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            await client.inject_batch(injects)
            snapshot = await client.snapshot()
            assert snapshot.events == len(injects)
            await client.close()
            await server.stop()
            await supervisor.stop()

        asyncio.run(go())

    @staticmethod
    def _stop_with_open_client(connect, prepare):
        """Run ``server.stop()`` while one client connection stays open.

        Returns how long stop() took (``None`` when it did not return
        within 10 s), the handler tasks still pending after it, what the
        client then reads (``None`` on a 5 s timeout) and every context
        that reached the loop's exception handler, teardown included.
        """
        errors = []

        async def go():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _, context: errors.append(context))
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            reader, writer = await connect(host, port)
            try:
                await prepare(server, reader, writer)
                started = loop.time()
                try:
                    await asyncio.wait_for(server.stop(), timeout=10)
                    took = loop.time() - started
                except asyncio.TimeoutError:
                    took = None
                pending = [
                    task
                    for task in asyncio.all_tasks()
                    if task.get_coro().__qualname__ == "IngestServer._handle"
                ]
                try:
                    tail = await asyncio.wait_for(reader.read(), timeout=5)
                except asyncio.TimeoutError:
                    tail = None
                except ConnectionResetError:
                    tail = "reset"
            finally:
                # a handler stop() left behind must not hang loop teardown
                writer.transport.abort()
            await asyncio.wait_for(supervisor.stop(), timeout=10)
            return took, pending, tail

        took, pending, tail = asyncio.run(go())
        return took, pending, tail, errors

    def test_stop_closes_an_idle_client_connection(self):
        """A client still connected when the server stops gets EOF, and
        no handler outlives stop() to be cancelled at loop teardown."""

        async def one_snapshot(server, reader, writer):
            writer.write(encode_message(SnapshotRequest()).encode() + b"\n")
            await writer.drain()
            await asyncio.wait_for(reader.readline(), timeout=10)

        took, pending, tail, errors = self._stop_with_open_client(
            asyncio.open_connection, one_snapshot
        )
        assert took is not None and took < 3
        assert pending == []
        assert tail == b""
        assert errors == []

    def test_stop_aborts_a_client_that_never_reads(self, monkeypatch):
        """Replies a client never reads hold its handler in drain(), which
        close() would wait on: stop() aborts it after STOP_GRACE."""
        import socket

        import repro.service.ingest as ingest

        monkeypatch.setattr(ingest, "STOP_GRACE", 0.5, raising=False)

        async def small_window(host, port):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((host, port))
            sock.setblocking(False)
            return await asyncio.open_connection(sock=sock)

        async def unread_error_acks(server, reader, writer):
            writer.write(b"not json\n" * 50_000)
            await writer.drain()
            # until the server buffers acks it cannot send (bounded: a
            # server that keeps no connection table is not waited on)
            for _ in range(500):
                connections = getattr(server, "_connections", {})
                if any(
                    w.transport.get_write_buffer_size()
                    for w in connections.values()
                ):
                    break
                await asyncio.sleep(0.01)

        took, pending, tail, errors = self._stop_with_open_client(
            small_window, unread_error_acks
        )
        assert took is not None and took < 3
        assert pending == []
        assert tail is not None  # EOF after the unread acks, or a reset
        assert errors == []


def handler_tasks():
    return [
        task
        for task in asyncio.all_tasks()
        if task.get_coro().__qualname__ == "IngestServer._handle"
    ]


async def no_handlers_left():
    while handler_tasks():
        await asyncio.sleep(0.01)


#: The frame every decoder case sends first: it adds ``t_tick`` as the
#: connection's source 0 and serves one tick of instance 0.
FIRST_FRAME = raw_frame([(0, 0.0, 0, 0)], sources=["t_tick"])

#: A good frame to cut: two rows over ``t_cell``, which it adds as source 1.
CUT_FRAME = raw_frame([(1, 0.0, 1, 0), (2, 0.5, 0, 0)], sources=["t_cell"])
CUT_HEADER = FRAME_SIZES.unpack(CUT_FRAME[1 : 1 + FRAME_SIZES.size])[0]
CUT_ROWS_START = 1 + FRAME_SIZES.size + CUT_HEADER

SNAPSHOT_LINE = encode_message(SnapshotRequest(request_id=5)).encode() + b"\n"


def serve_frames(payload, then="snapshot"):
    """:data:`FIRST_FRAME`, then ``payload``, on one raw connection.

    ``then="snapshot"`` sends a snapshot request and returns the replies
    up to its reply; ``"eof"`` ends the stream and ``"wait"`` sends
    nothing more, each returning what the server sent before it closed
    the connection.  Also returns a fresh client's snapshot and the
    drained result; every wait is bounded, and no handler may end in an
    exception that reaches the event loop.
    """
    errors = []

    async def go():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _, context: errors.append(context))
        supervisor = FleetSupervisor(ATM, ASSIGNMENT)
        await supervisor.start()
        server = IngestServer(supervisor, port=0)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(FIRST_FRAME + payload)
        if then == "snapshot":
            writer.write(SNAPSHOT_LINE)
            replies = []
            while not replies or not isinstance(replies[-1], SnapshotReply):
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                replies.append(decode_message(line))
        else:
            if then == "eof":
                writer.write_eof()
            replies = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        await writer.wait_closed()
        await asyncio.wait_for(no_handlers_left(), timeout=10)
        client = await ServiceClient.connect(host, port)
        fresh = await asyncio.wait_for(client.snapshot(), timeout=10)
        await client.close()
        await server.stop()
        result = await asyncio.wait_for(supervisor.stop(), timeout=10)
        return replies, fresh, result

    outcome = asyncio.run(go())
    assert errors == []
    return outcome


#: Frames the server refuses whole with a not-ok Ack naming the reason.
REFUSED_FRAMES = {
    "source_id_beyond_tables": (raw_frame([(1, 0.0, 1, 0)]), "'source'"),
    "choice_id_beyond_tables": (raw_frame([(1, 0.0, 0, 1)]), "'choices'"),
    "time_nan": (raw_frame([(1, float("nan"), 0, 0)]), "'time'"),
    "time_infinite": (raw_frame([(1, float("-inf"), 0, 0)]), "'time'"),
    "unknown_source_name": (
        raw_frame([(1, 0.0, 0, 0), (2, 0.0, 1, 0)], sources=["no_such_transition"]),
        "no_such_transition",
    ),
}

#: Frame headers that leave the tables out of step: they drop the connection.
BAD_HEADERS = {
    "not_json": b"{not json",
    "empty": b"",
    "not_an_object": b"[1, 2]",
    "missing_choices": json.dumps({"schema": WIRE_SCHEMA, "sources": []}).encode(),
    "extra_key": json.dumps(
        {"schema": WIRE_SCHEMA, "sources": [], "choices": [], "x": 1}
    ).encode(),
    "wrong_schema": json.dumps(
        {"schema": "repro-qss.service/2", "sources": [], "choices": []}
    ).encode(),
    "source_not_a_string": json.dumps(
        {"schema": WIRE_SCHEMA, "sources": [5], "choices": []}
    ).encode(),
    "choice_not_strings": json.dumps(
        {"schema": WIRE_SCHEMA, "sources": [], "choices": [[["p", 1]]]}
    ).encode(),
    "choice_not_pairs": json.dumps(
        {"schema": WIRE_SCHEMA, "sources": [], "choices": [["pt"]]}
    ).encode(),
    "choices_an_object": json.dumps(
        {"schema": WIRE_SCHEMA, "sources": [], "choices": [{"p": "t"}]}
    ).encode(),
    "choice_not_a_list": json.dumps(
        {"schema": WIRE_SCHEMA, "sources": [], "choices": [5]}
    ).encode(),
    "sources_a_string": json.dumps(
        {"schema": WIRE_SCHEMA, "sources": "t_tick", "choices": []}
    ).encode(),
    "nested_too_deep": b"[" * 100_000,
}


class TestInjectFrames:
    """Binary inject frames: the client's checks, the decoder's answers
    to every malformed frame, and the connection's name tables."""

    def test_layout_and_table_deltas(self):
        injects = [
            InjectEvent(instance=3, source="t_tick", time=0.5),
            InjectEvent(instance=-4, source="t_cell", choices={"p": "t"}),
        ]
        encoder = FrameEncoder()
        first, again = encoder.encode(injects), encoder.encode(injects)
        (first_header, rows), (again_header, _) = (
            FRAME_SIZES.unpack(frame[1:9]) for frame in (first, again)
        )
        assert first[:1] == FRAME_MAGIC and rows == 2
        assert json.loads(first[9 : 9 + first_header]) == {
            "schema": WIRE_SCHEMA,
            "sources": ["t_tick", "t_cell"],
            "choices": [[["p", "t"]]],
        }
        assert first_header % 8 == 0
        assert len(first) == 9 + first_header + 24 * rows
        # the second frame reuses every entry: its header adds none, and
        # its rows are the same bytes
        assert json.loads(again[9 : 9 + again_header]) == {
            "schema": WIRE_SCHEMA,
            "sources": [],
            "choices": [],
        }
        assert first[-2 * FRAME_ROW_BYTES :] == again[-2 * FRAME_ROW_BYTES :]
        decoder = FrameDecoder()
        decoder.add_tables(first[9 : 9 + first_header])
        decoder.add_tables(again[9 : 9 + again_header])
        columns = decoder.columns(again, 9 + again_header, rows)
        assert columns.instance.tolist() == [3, -4]
        assert columns.time.tolist() == [0.5, 0.0]
        assert [columns.sources[i] for i in columns.source] == ["t_tick", "t_cell"]
        assert [columns.choices[i] for i in columns.signature] == [(), (("p", "t"),)]

    @pytest.mark.parametrize(
        "fields", BAD_INJECT_FIELDS.values(), ids=list(BAD_INJECT_FIELDS)
    )
    def test_client_refuses_what_the_json_decoder_refuses(self, fields):
        """Nothing of the refused chunk is written and the tables do not
        advance: ``t_cell``, new in the refused chunk, still lines up
        when the next frame adds it."""
        (field_name,) = fields

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            await client.inject_batch([InjectEvent(instance=0, source="t_tick")])
            written = []
            write = client._writer.write
            client._writer.write = lambda data: (written.append(data), write(data))
            bad = InjectEvent(**inject_payload(**{"instance": 2, **fields}))
            with pytest.raises(ProtocolError) as refused:
                await client.inject_batch(
                    [InjectEvent(instance=1, source="t_cell"), bad]
                )
            refused_writes = list(written)
            snapshot = await asyncio.wait_for(client.snapshot(), timeout=10)
            await client.inject_batch([InjectEvent(instance=3, source="t_cell")])
            after = await asyncio.wait_for(client.snapshot(), timeout=10)
            await client.close()
            await server.stop()
            await asyncio.wait_for(supervisor.stop(), timeout=10)
            return str(refused.value), refused_writes, snapshot, after

        error, refused_writes, snapshot, after = asyncio.run(go())
        assert f"bad inject field {field_name!r}" in error
        assert refused_writes == []
        assert (snapshot.instances, snapshot.events) == (1, 1)
        assert (after.instances, after.events) == (2, 2)

    @pytest.mark.parametrize(
        "frame, fragment", REFUSED_FRAMES.values(), ids=list(REFUSED_FRAMES)
    )
    def test_refused_frame_gets_error_ack_and_connection_stays_in_step(
        self, frame, fragment
    ):
        replies, fresh, result = serve_frames(frame)
        ack, snapshot = replies
        assert isinstance(ack, Ack) and not ack.ok and ack.request_id == 0
        assert fragment in ack.error
        assert (snapshot.request_id, snapshot.events) == (5, 1)
        assert fresh.events == result.stats.events_processed == 1

    @pytest.mark.parametrize(
        "cut",
        [
            1,
            4,
            9,
            9 + CUT_HEADER // 2,
            CUT_ROWS_START,
            CUT_ROWS_START + 20,
            len(CUT_FRAME) - 1,
        ],
        ids=[
            "magic",
            "prefix",
            "header_start",
            "header",
            "rows_start",
            "rows",
            "last_byte",
        ],
    )
    def test_frame_cut_short_by_eof_drops_its_connection(self, cut):
        replies, fresh, result = serve_frames(CUT_FRAME[:cut], then="eof")
        assert replies == b""
        assert fresh.events == result.stats.events_processed == 1

    @pytest.mark.parametrize(
        "sizes",
        [(10, 100), (2000, 0), (2**32 - 1, 2**32 - 1)],
        ids=["rows", "header", "both_maximal"],
    )
    def test_sizes_beyond_the_stream_limit_drop_the_connection_unread(
        self, monkeypatch, sizes
    ):
        import repro.service.ingest as ingest

        monkeypatch.setattr(ingest, "STREAM_LIMIT", 1024)
        replies, fresh, result = serve_frames(
            FRAME_MAGIC + FRAME_SIZES.pack(*sizes), then="wait"
        )
        assert replies == b""
        assert fresh.events == result.stats.events_processed == 1

    @pytest.mark.parametrize("header", BAD_HEADERS.values(), ids=list(BAD_HEADERS))
    def test_bad_header_drops_its_connection(self, header):
        replies, fresh, result = serve_frames(
            raw_frame([(1, 0.0, 0, 0)], header=header), then="wait"
        )
        assert replies == b""
        assert fresh.events == result.stats.events_processed == 1

    def test_zero_row_frame_adds_table_entries(self):
        frames = raw_frame([], sources=["t_cell"]) + raw_frame([(1, 0.0, 1, 0)])
        (snapshot,), fresh, result = serve_frames(frames)
        assert (snapshot.instances, snapshot.events) == (2, 2)
        assert fresh.events == result.stats.events_processed == 2

    def test_refused_frames_table_entries_serve_the_next_frame(self):
        frames = raw_frame(
            [(1, float("nan"), 1, 1)], sources=["t_cell"], choices=[[["p_x", "t_y"]]]
        )
        frames += raw_frame([(1, 0.0, 1, 1)])
        (ack, snapshot), fresh, result = serve_frames(frames)
        assert not ack.ok and "'time'" in ack.error
        assert (snapshot.instances, snapshot.events) == (2, 2)
        assert fresh.events == result.stats.events_processed == 2


def decode_frame(decoder, frame):
    """The columns of ``frame`` on ``decoder``'s connection."""
    header_size, rows = FRAME_SIZES.unpack(frame[1 : 1 + FRAME_SIZES.size])
    start = 1 + FRAME_SIZES.size
    decoder.add_tables(frame[start : start + header_size])
    return decoder.columns(frame, start + header_size, rows)


def frame_rows(decoder, frame):
    """Decode ``frame`` on ``decoder``'s connection into rows of
    (instance, time, source name, choice tuple), checking that the
    header's entries are new to the connection, distinct, and each used
    by a row."""
    known = len(decoder.sources), len(decoder.choices)
    columns = decode_frame(decoder, frame)
    for table, ids, before in (
        (decoder.sources, columns.source, known[0]),
        (decoder.choices, columns.signature, known[1]),
    ):
        new = list(table[before:])
        assert len(set(new)) == len(new)
        assert not set(new) & set(table[:before])
        assert set(ids[ids >= before].tolist()) == set(range(before, len(table)))
    return [
        (instance, time, columns.sources[s], columns.choices[g])
        for instance, time, s, g in zip(
            columns.instance.tolist(),
            columns.time.tolist(),
            columns.source.tolist(),
            columns.signature.tolist(),
        )
    ]


#: Stream edits the wire refuses, each with the field it names.
BAD_STREAM_EVENTS = {
    "time_nan": (
        "time",
        lambda e: Event(time=float("nan"), source=e.source, choices=e.choices),
    ),
    "source_number": (
        "source",
        lambda e: Event(time=e.time, source=5, choices=e.choices),
    ),
    "choice_number": (
        "choices",
        lambda e: Event(time=e.time, source=e.source, choices={"p_timer_state": 1}),
    ),
}


class TestViewFrames:
    """The client frames an ``InjectView`` from its columns: the same
    rows, headers and refusals as framing the list of its injects."""

    def test_view_and_list_frames_decode_to_the_same_rows(self):
        # the benchmark's socket fleet: 200 ATM instances of 50 cells, seed 7
        injects = events_to_injects(make_fleet_testbench(200, cells=50, seed=7))
        assert len(injects) > 20 * 1024
        encoders = FrameEncoder(), FrameEncoder()
        decoders = FrameDecoder(), FrameDecoder()
        for lo in range(0, len(injects), 1024):
            chunk = injects[lo : lo + 1024]
            from_view, from_list = (
                frame_rows(decoder, encoder.encode(events))
                for encoder, decoder, events in zip(
                    encoders, decoders, (chunk, list(chunk))
                )
            )
            assert from_view == from_list == [
                (e.instance, e.time, e.source, tuple(e.choices.items()))
                for e in chunk
            ]

    def test_rows_that_skip_table_entries_get_the_connection_ids(self):
        """A view whose rows use only the last entry of its source table:
        the header names only the entries the rows use, and the rows'
        ids are those entries' ids on the connection."""
        columns = events_to_injects(make_fleet_testbench(20, cells=10, seed=7)).columns
        last = len(columns.sources) - 1
        picked = InjectView(columns.take(np.flatnonzero(columns.source == last)))
        assert 0 < last and 0 < len(picked) < len(columns)
        for events in (picked, picked[::3]):
            rows = frame_rows(FrameDecoder(), FrameEncoder().encode(events))
            assert rows == [
                (e.instance, e.time, e.source, tuple(e.choices.items()))
                for e in events
            ]

    @pytest.mark.parametrize(
        "edit", BAD_STREAM_EVENTS.values(), ids=list(BAD_STREAM_EVENTS)
    )
    def test_a_view_is_refused_as_its_list_is(self, edit):
        """The same error for both forms, nothing of the refused chunk
        written, and the tables where they were: the good injects sent
        afterwards are served as a one-shot run serves them."""
        field_name, change = edit
        streams = make_fleet_testbench(3, cells=4, seed=1)
        lists = [list(stream) for stream in streams]
        lists[1][2] = change(lists[1][2])
        bad, good = events_to_injects(lists), events_to_injects(streams)

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            client = await ServiceClient.connect(*await server.start())
            await client.inject_batch(good[:5])
            written = []
            write = client._writer.write
            client._writer.write = lambda data: (written.append(data), write(data))
            errors = []
            for events in (bad, list(bad)):
                with pytest.raises(ProtocolError) as refused:
                    await client.inject_batch(events)
                errors.append(str(refused.value))
            refused_writes = list(written)
            await client.inject_batch(good[5:])
            snapshot = await asyncio.wait_for(client.snapshot(), timeout=10)
            await client.close()
            await server.stop()
            result = await asyncio.wait_for(supervisor.stop(), timeout=10)
            return errors, refused_writes, snapshot, result

        errors, refused_writes, snapshot, result = asyncio.run(go())
        assert errors[0] == errors[1]
        assert f"bad inject field {field_name!r}" in errors[0]
        assert refused_writes == []
        assert snapshot.events == len(good)
        expected = FleetSimulator(ATM, ASSIGNMENT).run(streams)
        assert dataclasses.asdict(result.stats) == dataclasses.asdict(expected.stats)
        assert np.array_equal(result.instance_cycles, expected.instance_cycles)
        # the refusal left the encoder's tables as they were
        refused, clean = FrameEncoder(), FrameEncoder()
        for encoder in (refused, clean):
            encoder.encode(good[:5])
        with pytest.raises(ProtocolError):
            refused.encode(bad)
        assert refused.encode(good[5:]) == clean.encode(good[5:])

    def test_an_unknown_source_is_refused_once_a_row_uses_it(self):
        """``pack`` refuses only the names its rows use: a header entry no
        row uses yet, or one of a view's whole-stream table entries that
        the slice's rows do not use, passes."""
        supervisor = FleetSupervisor(ATM, ASSIGNMENT)
        decoder = FrameDecoder()
        frames = [
            raw_frame([(0, 0.0, 0, 0)], sources=["t_tick", "no_such"]),
            raw_frame([(1, 0.0, 0, 0), (2, 0.0, 1, 0)]),
        ]
        assert len(supervisor.pack(decode_frame(decoder, frames[0]))) == 1
        with pytest.raises(NotEnabledError, match="'no_such'"):
            supervisor.pack(decode_frame(decoder, frames[1]))
        streams = [list(stream) for stream in make_fleet_testbench(2, cells=3)]
        streams[1].append(Event(time=1e9, source="no_such", choices={}))
        view = events_to_injects(streams)
        assert "no_such" in view.columns.sources
        assert len(supervisor.pack(inject_columns(view[:-1]))) == len(view) - 1
        with pytest.raises(NotEnabledError, match="'no_such'"):
            supervisor.pack(inject_columns(view[-1:]))


#: A valid two-frame stream: the second frame reuses the first's table
#: entries and adds its own.
FUZZ_STREAM = raw_frame(
    [(0, 0.0, 0, 0), (1, 1.0, 1, 1)],
    sources=["t_tick", "t_cell"],
    choices=[[["p_x", "t_y"]]],
) + raw_frame([(2, 2.0, 1, 0), (0, 3.0, 0, 2)], choices=[[["p_z", "t_w"]]])


@settings(max_examples=100, deadline=None)
@given(
    flips=st.lists(
        st.tuples(st.integers(0, len(FUZZ_STREAM) - 1), st.integers(1, 255)),
        max_size=3,
    ),
    cut=st.integers(0, len(FUZZ_STREAM)),
)
def test_fuzzed_frames_never_crash_hang_or_leak_a_handler(flips, cut):
    """Flipped or truncated bytes of a valid stream: whatever the
    server makes of them, it closes the connection at EOF, no handler
    outlives it or ends in an exception, and the next connection still
    serves.  (The names
    ``t_tick`` and ``t_cell`` are 4 bytes apart and 8 from every other
    ATM transition, so no flip injects a transition that is not a
    source, which would fail the shard.)"""
    stream = bytearray(FUZZ_STREAM[:cut])
    for position, mask in flips:
        if position < len(stream):
            stream[position] ^= mask
    errors = []

    async def go():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _, context: errors.append(context))
        supervisor = FleetSupervisor(ATM, ASSIGNMENT)
        await supervisor.start()
        server = IngestServer(supervisor, port=0)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(bytes(stream))
        writer.write_eof()
        await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        await writer.wait_closed()
        await asyncio.wait_for(no_handlers_left(), timeout=10)
        client = await ServiceClient.connect(host, port)
        await client.inject_batch([InjectEvent(instance=9, source="t_tick")])
        snapshot = await asyncio.wait_for(client.snapshot(), timeout=10)
        await client.close()
        await server.stop()
        await asyncio.wait_for(supervisor.stop(), timeout=10)
        return snapshot

    snapshot = asyncio.run(go())
    assert errors == []
    assert 1 <= snapshot.events <= 1 + len(FUZZ_STREAM) // FRAME_ROW_BYTES


def app_fleet_cycles(app):
    """Per-instance cycles of a small fleet of one of the applications."""
    builders = {
        "atm": (atm, atm.build_atm_server_net),
        "router": (router, router.build_router_net),
        "heating": (heating, heating.build_heating_net),
    }
    module, build = builders[app]
    assignment = ModuleAssignment.from_groups(module.MODULE_PARTITION)
    streams = module.make_fleet_testbench(53, 7, seed=11)
    return FleetSimulator(build(), assignment).run(streams).instance_cycles


#: Cycle vectors of the percentile pin; the app fleets run when it does.
PERCENTILE_CASES = {
    "atm": lambda: app_fleet_cycles("atm"),
    "router": lambda: app_fleet_cycles("router"),
    "heating": lambda: app_fleet_cycles("heating"),
    "empty": lambda: np.zeros(0, dtype=np.int64),
    "one": lambda: np.array([1234], dtype=np.int64),
    "ties": lambda: np.array([7, 3, 7, 7, 3, 9, 9, 3, 7], dtype=np.int64),
    "large_int64": lambda: np.array(
        [2**63 - 1, 2**62 + 3, 2**53 + 1, 2**62, 2**63 - 2**11, 2**53],
        dtype=np.int64,
    ),
}


class TestFleetResultEdgeCases:
    """Satellite pin: percentile semantics at the edges."""

    @staticmethod
    def result(cycles):
        values = np.array(cycles, dtype=np.int64)
        return FleetResult(
            stats=ExecutionStats(),
            instance_cycles=values,
            instance_events=np.zeros(len(values), dtype=np.int64),
            engine="compiled",
        )

    def test_empty_fleet_percentiles_are_zero(self):
        empty = self.result([])
        assert empty.instances == 0
        assert empty.percentile(50) == 0.0
        assert empty.percentiles() == {
            "p50": 0.0,
            "p90": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }
        assert empty.throughput_eps == 0.0

    def test_q0_and_q100_are_min_and_max(self):
        spread = self.result([10, 20, 30, 40])
        assert spread.percentile(0) == 10.0
        assert spread.percentile(100) == 40.0

    def test_single_instance_every_percentile_is_its_value(self):
        single = self.result([1234])
        for q in (0, 25, 50, 75, 90, 99, 100):
            assert single.percentile(q) == 1234.0
        assert single.percentiles((0, 100)) == {"p0": 1234.0, "p100": 1234.0}

    def test_custom_quantile_labels(self):
        spread = self.result([10, 20, 30, 40])
        assert set(spread.percentiles((50, 99.9))) == {"p50", "p99.9"}

    @pytest.mark.parametrize("case", sorted(PERCENTILE_CASES))
    def test_percentiles_are_numpys_bit_for_bit(self, case):
        """One sort plus numpy's interpolation gives the very floats of
        ``np.percentile``, through the result and the engine."""
        values = PERCENTILE_CASES[case]()

        def bits(points):
            return {name: float(point).hex() for name, point in points.items()}

        def expected(qs):
            if not len(values):
                return {f"p{q:g}": (0.0).hex() for q in qs}
            return {
                f"p{q:g}": float(point).hex()
                for q, point in zip(qs, np.percentile(values, qs))
            }

        result = self.result(values)
        for qs in ((50, 90, 95, 99), (0, 12.5, 33.3, 100), (99, 1, 50), (99.9,)):
            assert bits(result.percentiles(qs)) == expected(qs)
        engine = FleetEngine(ATM, ASSIGNMENT, instances=len(values))
        engine._cycles[: len(values)] = values
        assert bits(engine.cycle_percentiles()) == expected((50, 90, 95, 99))
        if len(values):
            with pytest.raises(ValueError, match=r"range \[0, 100\]"):
                result.percentiles((50, 100.5))

    @pytest.mark.parametrize(
        "app", [atm, router, heating], ids=lambda app: app.__name__.split(".")[-1]
    )
    def test_one_call_equals_per_q_percentile_over_the_apps_fleets(self, app):
        builders = {
            atm: atm.build_atm_server_net,
            router: router.build_router_net,
            heating: heating.build_heating_net,
        }
        net = builders[app]()
        assignment = ModuleAssignment.from_groups(app.MODULE_PARTITION)
        result = FleetSimulator(
            net, assignment, timing=parse_timing("uniform:1-8", net, seed=5)
        ).run(app.make_fleet_testbench(37, 6, seed=3))
        for qs in ((50, 90, 95, 99), (0, 12.5, 33.3, 100), (99, 1, 50), (99.9,)):
            assert result.percentiles(qs) == {
                f"p{q:g}": result.percentile(q) for q in qs
            }
        ticks = ", ".join(
            f"p{q:g}={float(np.percentile(result.instance_ticks, q)):.0f}"
            for q in (50, 90, 95, 99)
        )
        assert f"per-instance delay ticks: {ticks}" in result.describe()


_STREAM_DIGEST_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {src!r})
from repro.petrinet.corpus import CORPUS_FAMILIES
from repro.runtime import synthetic_streams
family = CORPUS_FAMILIES["pipeline"]
net = family.build(3, family.spec(3).param_dict)
streams = synthetic_streams(net, 7, 11, seed=42)
digest = hashlib.sha256(
    repr(
        [
            [(e.time, e.source, sorted(e.choices.items())) for e in stream]
            for stream in streams
        ]
    ).encode()
).hexdigest()
print(digest)
"""


class TestSyntheticStreamDeterminism:
    """Satellite pin: fixed seed => identical streams across processes."""

    def test_streams_identical_across_processes(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        script = _STREAM_DIGEST_SCRIPT.format(src=os.path.abspath(src))
        digests = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            output = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout.strip()
            digests.add(output)
        assert len(digests) == 1, (
            "synthetic_streams must be reproducible across processes "
            f"regardless of hash randomization; saw {digests}"
        )

    def test_streams_identical_within_process(self):
        from repro.runtime import synthetic_streams

        first = synthetic_streams(ATM, 5, 9, seed=8)
        second = synthetic_streams(ATM, 5, 9, seed=8)
        assert first == second
        assert synthetic_streams(ATM, 5, 9, seed=9) != first
