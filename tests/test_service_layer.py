"""Unit coverage of the service layer: codec, telemetry, actors, routing.

Complements `tests/test_service_differential.py` (which pins result
equality across serving paths) with the layer-local behaviour: the
wire codec is total and strict, telemetry records validate against
their versioned schema, shard inboxes really bound memory and exert
backpressure, the shared drain loop answers controls as ordered
barriers, a failed shard fails every request instead of hanging,
supervisor routing is deterministic, and the ingest server answers
malformed lines without dying.  Also carries the satellite pins for
`FleetResult.percentile`/`percentiles` edge cases and cross-process
`synthetic_streams` determinism.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.petrinet.exceptions import NotEnabledError
from repro.runtime import FleetEngine, ModuleAssignment
from repro.runtime.fleet import FleetResult
from repro.runtime.rtos import ExecutionStats
from repro.service import (
    FRAME_CONTROL,
    FRAME_PACKED,
    FRAME_RESULT,
    TELEMETRY_SCHEMA,
    WIRE_SCHEMA,
    Ack,
    FleetSupervisor,
    IngestServer,
    InjectBatch,
    InjectBatchPacked,
    InjectEvent,
    ProtocolError,
    Reload,
    ServiceClient,
    ShardActor,
    ShardCore,
    ShardFailed,
    ShardStats,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    TelemetryWriter,
    decode_frame,
    decode_message,
    encode_frame_control,
    encode_frame_packed,
    encode_frame_result,
    encode_message,
    events_to_injects,
    validate_backend,
    validate_telemetry_record,
)

ATM = build_atm_server_net()
ASSIGNMENT = ModuleAssignment.from_groups(MODULE_PARTITION)


class TestWireCodec:
    MESSAGES = [
        InjectEvent(instance=7, source="t_cell", time=1.5, choices={"p": "t"}),
        InjectBatch(
            events=(
                InjectEvent(instance=0, source="t_tick"),
                InjectEvent(instance=1, source="t_cell", choices={"a": "b"}),
            )
        ),
        SnapshotRequest(request_id=3),
        ShardStats(
            shard=2,
            instances=10,
            events=400,
            cycles=12345,
            queue_depth=7,
            budget_stops=1,
            throughput_eps=123.5,
            percentiles={"p50": 10.0, "p99": 20.0},
        ),
        SnapshotReply(
            request_id=3,
            instances=10,
            events=400,
            cycles=12345,
            budget_stops=1,
            shards=(
                ShardStats(
                    shard=0,
                    instances=10,
                    events=400,
                    cycles=12345,
                    queue_depth=0,
                    budget_stops=1,
                    throughput_eps=9.0,
                ),
            ),
        ),
        Shutdown(drain=False, request_id=9),
        Reload(reset_stats=False),
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


class TestTelemetrySchema:
    def good_record(self, kind="shard"):
        record = {
            "schema": TELEMETRY_SCHEMA,
            "kind": kind,
            "elapsed_seconds": 1.25,
            "instances": 10,
            "events": 500,
            "events_delta": 100,
            "throughput_eps": 400.0,
            "queue_depth": 3,
            "budget_stops": 0,
            "cycle_percentiles": {"p50": 100.0, "p99": 200.0},
        }
        if kind == "shard":
            record["shard"] = 1
        return record

    @pytest.mark.parametrize("kind", ["shard", "aggregate"])
    def test_valid_records_pass(self, kind):
        validate_telemetry_record(self.good_record(kind))

    def test_rejects_wrong_schema(self):
        record = self.good_record()
        record["schema"] = "repro-qss.telemetry/0"
        with pytest.raises(ValueError, match="unsupported telemetry schema"):
            validate_telemetry_record(record)

    def test_rejects_unknown_kind(self):
        record = self.good_record()
        record["kind"] = "galaxy"
        with pytest.raises(ValueError, match="kind"):
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

    def test_shard_record_needs_shard_id(self):
        record = self.good_record()
        del record["shard"]
        with pytest.raises(ValueError, match="shard"):
            validate_telemetry_record(record)

    def test_writer_appends_valid_json_lines(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(str(path)) as writer:
            writer.emit(self.good_record("shard"))
            writer.emit(self.good_record("aggregate"))
            assert writer.records_written == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_telemetry_record(json.loads(line))

    def test_writer_rejects_invalid_record(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(str(path)) as writer:
            with pytest.raises(ValueError):
                writer.emit({"schema": TELEMETRY_SCHEMA, "kind": "nope"})
        assert path.read_text() == ""

    def test_writer_buffers_until_flush(self, tmp_path):
        """Emits buffer in memory; the file sees one write per flush."""
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(str(path)) as writer:
            writer.emit(self.good_record("shard"))
            writer.emit(self.good_record("aggregate"))
            assert writer.buffered == 2
            assert path.read_text() == ""  # nothing written yet
            writer.flush()
            assert writer.buffered == 0
            assert len(path.read_text().splitlines()) == 2
            writer.emit(self.good_record("shard"))  # buffered again
            assert len(path.read_text().splitlines()) == 2
        # close() flushed the remainder
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            validate_telemetry_record(json.loads(line))

    def test_writer_auto_flushes_at_buffer_limit(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(str(path), buffer_limit=4) as writer:
            for _ in range(4):
                writer.emit(self.good_record("aggregate"))
            assert writer.buffered == 0  # limit reached -> auto-flush
            assert len(path.read_text().splitlines()) == 4


class TestBinaryFrames:
    """The process-backend pipe codec: packed, control and result frames."""

    def packed(self):
        return InjectBatchPacked(
            instances=np.array([5, 9, 5], dtype=np.int64),
            sources=np.array([1, 2, 1], dtype=np.int64),
            signatures=np.array([0, 3, 0], dtype=np.int64),
        )

    def test_packed_frame_round_trips(self):
        batch = self.packed()
        defs = [(("p_choice", "t_left"),), (("p_choice", "t_right"),)]
        data = encode_frame_packed(batch, sig_base=2, sig_defs=defs)
        kind, (decoded, sig_base, sig_defs) = decode_frame(data)
        assert kind == FRAME_PACKED
        assert sig_base == 2
        assert sig_defs == defs
        assert np.array_equal(decoded.instances, batch.instances)
        assert np.array_equal(decoded.sources, batch.sources)
        assert np.array_equal(decoded.signatures, batch.signatures)

    def test_control_frame_round_trips(self):
        message = SnapshotRequest(request_id=7)
        kind, decoded = decode_frame(encode_frame_control(message))
        assert kind == FRAME_CONTROL
        assert decoded == message

    def test_result_frame_round_trips(self):
        payload = ([3, 1, 4], {"events": 42})
        kind, decoded = decode_frame(encode_frame_result(payload))
        assert kind == FRAME_RESULT
        assert decoded == payload

    def test_rejects_missing_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(b"NOPE" + bytes([FRAME_CONTROL]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown binary frame kind"):
            decode_frame(b"RQF1" + bytes([0x7F]))

    def test_rejects_truncated_packed_payload(self):
        data = encode_frame_packed(self.packed())
        with pytest.raises(ProtocolError, match="expected"):
            decode_frame(data[:-8])

    def test_packed_take_and_concat_preserve_order(self):
        batch = self.packed()
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
    def test_try_put_reports_overflow(self):
        async def go():
            engine = FleetEngine(ATM, ASSIGNMENT)
            actor = ShardActor(0, engine, inbox_limit=2)
            batch = packed_ticks(engine, [0])
            assert actor.try_put(batch)
            assert actor.try_put(batch)
            assert not actor.try_put(batch)  # bounded: third enqueue refused

        asyncio.run(go())

    def test_put_suspends_until_the_actor_drains(self):
        async def go():
            engine = FleetEngine(ATM, ASSIGNMENT)
            actor = ShardActor(0, engine, inbox_limit=1)
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


def barrier_case(backend="async"):
    """A supervisor plus its packed A (the first 6 injects) and B (the
    other 12) of a 4-instance ATM fleet, and a bare engine sharing the
    supervisor's signature table."""
    supervisor = FleetSupervisor(ATM, ASSIGNMENT, backend=backend)
    injects = events_to_injects(make_fleet_testbench(4, cells=2, seed=1))
    assert len(injects) == 18
    engine = FleetEngine(
        supervisor.compiled, ASSIGNMENT, signatures=supervisor.signatures
    )
    batches = {
        "A": supervisor.pack(injects[:6]),
        "B": supervisor.pack(injects[6:]),
    }
    return supervisor, engine, batches


#: Inbox order -> (items, events the last snapshot observes, events at the end).
BARRIER_ORDERS = {
    "reload_between": (("A", Reload(), "B", SnapshotRequest()), 12, 12),
    "snapshot_between": (("A", SnapshotRequest(), "B"), 6, 18),
}


class TestOrderedBarriers:
    """Controls are barriers answered in inbox order, on every backend."""

    @pytest.mark.parametrize("order", sorted(BARRIER_ORDERS))
    def test_drain_answers_controls_in_inbox_order(self, order):
        """The drain loop both backends share, driven directly."""
        _, engine, batches = barrier_case()
        sequence, observed, final = BARRIER_ORDERS[order]
        items = [
            batches[item] if item in batches else (item, position)
            for position, item in enumerate(sequence)
        ]
        controls = [p for p, item in enumerate(sequence) if item not in batches]
        replies = []
        core = ShardCore(0, engine)
        assert not core.drain(
            items, lambda token, reply: replies.append((token, reply))
        )
        assert [token for token, _ in replies] == controls
        snapshot = replies[-1][1]
        assert isinstance(snapshot, ShardStats)
        assert snapshot.events == observed
        assert snapshot.queue_depth == len(sequence) - 1 - controls[-1]
        assert engine.events_total == final

    @pytest.mark.parametrize("order", sorted(BARRIER_ORDERS))
    def test_actor_inbox_controls_are_barriers(self, order):
        """The inbox holds the whole sequence before the actor loop starts."""
        sequence, observed, final = BARRIER_ORDERS[order]

        async def go():
            _, engine, batches = barrier_case()
            actor = ShardActor(0, engine)
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

    @pytest.mark.parametrize("backend", ["async", "process"])
    def test_backends_answer_controls_in_order(self, backend):
        """[A, Reload, B, Snapshot] sent back to back through one shard."""

        async def go():
            supervisor, _, batches = barrier_case(backend)
            await supervisor.start()
            try:
                shard = supervisor._shards[0]
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

    @pytest.mark.parametrize("backend", ["async", "process"])
    def test_requests_to_a_failed_shard_raise(self, backend):
        children = set(multiprocessing.active_children())

        async def go():
            supervisor = FleetSupervisor(
                ATM, ASSIGNMENT, shards=2, backend=backend
            )
            await supervisor.start()
            try:
                await self._fail_and_stop(supervisor)
            finally:
                # a regression must fail this test, not hang it on a
                # worker that is still running
                for child in set(multiprocessing.active_children()) - children:
                    child.kill()

        asyncio.run(go())
        # stop() joined every worker, the healthy shard's included
        assert set(multiprocessing.active_children()) <= children

    @staticmethod
    async def _fail_and_stop(supervisor):
        failed = supervisor.shard_of(0)
        assert supervisor.shard_of(1) != failed
        for i in range(4):
            await supervisor.inject(InjectEvent(instance=i, source="t_tick"))
        # a known transition, so pack() accepts it, but not a source: the
        # kernel raises inside the shard
        await supervisor.inject(InjectEvent(instance=0, source="t_parse_header"))
        with pytest.raises(ShardFailed) as caught:
            await asyncio.wait_for(supervisor.snapshot(), timeout=10)
        assert caught.value.shard == failed
        assert isinstance(caught.value.error, NotEnabledError)
        assert "t_parse_header" in str(caught.value)
        # later injects are dropped, later requests fail the same way
        await supervisor.inject(InjectEvent(instance=0, source="t_tick"))
        with pytest.raises(ShardFailed):
            await asyncio.wait_for(supervisor.reload(), timeout=10)
        with pytest.raises(ShardFailed) as stopped:
            await asyncio.wait_for(supervisor.stop(), timeout=10)
        assert stopped.value.shard == failed
        with pytest.raises(RuntimeError, match="not running"):
            await supervisor.stop()

    def test_ingest_answers_a_failed_shard_with_not_ok_ack(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT, shards=1)
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
        assert "shard 0 failed: NotEnabledError" in snapshot_ack.error
        assert isinstance(reload_ack, Ack) and not reload_ack.ok

    @pytest.mark.parametrize("backend", ["async", "process"])
    def test_not_enabled_error_names_the_instance_key(self, backend):
        keys = (1000, 2000, 3000, 4000)

        async def go():
            supervisor = FleetSupervisor(
                ATM, ASSIGNMENT, shards=2, backend=backend
            )
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
        routing = FleetSupervisor(ATM, ASSIGNMENT, shards=2)
        assert failure.shard == routing.shard_of(4000)
        assert isinstance(failure.error, NotEnabledError)
        assert str(failure.error) == (
            "transition 't_parse_header' is not enabled in instance 4000"
        )


class TestStoppedShard:
    """A shard that answered its Shutdown fails every later request with
    a ShardFailed naming it: controls queued behind the Shutdown,
    requests after join() and requests racing stop().  None hangs."""

    def test_drain_fails_controls_behind_shutdown(self):
        _, engine, batches = barrier_case()
        core = ShardCore(5, engine)
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
            assert isinstance(reply, ShardFailed) and reply.shard == 5
            assert str(reply) == "shard 5 failed: RuntimeError: shard stopped"
        assert engine.events_total == 6

    def test_actor_answers_a_snapshot_queued_behind_shutdown(self):
        async def go():
            actor = ShardActor(3, FleetEngine(ATM, ASSIGNMENT))
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
        assert isinstance(failure, ShardFailed) and failure.shard == 3

    @pytest.mark.parametrize("backend", ["async", "process"])
    def test_request_after_stop_fails(self, backend):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT, shards=2, backend=backend)
            await supervisor.start()
            await asyncio.wait_for(supervisor.stop(), timeout=10)
            for shard in supervisor._shards:
                with pytest.raises(ShardFailed) as caught:
                    await asyncio.wait_for(
                        shard.request(SnapshotRequest()), timeout=10
                    )
                assert caught.value.shard == shard.shard_id
                # injects to a stopped shard are dropped, not an error
                await asyncio.wait_for(
                    shard.put(packed_ticks(FleetEngine(ATM, ASSIGNMENT), [0])),
                    timeout=10,
                )

        asyncio.run(go())

    @pytest.mark.parametrize("backend", ["async", "process"])
    def test_snapshot_racing_stop_fails(self, backend):
        async def go():
            unretrieved = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _, context: unretrieved.append(context))
            supervisor = FleetSupervisor(ATM, ASSIGNMENT, shards=2, backend=backend)
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
        assert isinstance(failure, ShardFailed) and failure.shard in (0, 1)
        assert unretrieved == []

    def test_ingest_answers_a_stopped_shard_with_not_ok_ack(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT, shards=1)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            # the shard stops while the supervisor still runs, as it
            # does while stop() is in flight
            shard = supervisor._shards[0]
            await asyncio.wait_for(shard.request(Shutdown()), timeout=10)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                encode_message(SnapshotRequest(request_id=9)).encode() + b"\n"
            )
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=10)
            writer.close()
            await writer.wait_closed()
            await server.stop()
            with pytest.raises(ShardFailed):
                await asyncio.wait_for(supervisor.stop(), timeout=10)
            return decode_message(line.strip())

        ack = asyncio.run(go())
        assert isinstance(ack, Ack) and not ack.ok
        assert ack.request_id == 9
        assert ack.error == "shard 0 failed: RuntimeError: shard stopped"


class TestSupervisorRouting:
    def test_backend_validation(self):
        assert validate_backend("async") == "async"
        with pytest.raises(ValueError, match="unknown service backend"):
            validate_backend("threads")
        with pytest.raises(ValueError, match="shards must be positive"):
            FleetSupervisor(ATM, ASSIGNMENT, shards=0)

    def test_routing_is_deterministic_and_total(self):
        supervisor = FleetSupervisor(ATM, ASSIGNMENT, shards=4)
        shards = [supervisor.shard_of(i) for i in range(1000)]
        assert shards == [supervisor.shard_of(i) for i in range(1000)]
        assert set(shards) == {0, 1, 2, 3}  # every shard gets work

    def test_reload_resets_markings_and_stats(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT, shards=2)
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


class TestIngestServer:
    def test_malformed_line_gets_error_ack_and_connection_survives(self):
        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT, shards=1)
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

    def test_large_inject_batch_crosses_the_wire(self):
        # regression: a big InjectBatch is one JSON line, far beyond
        # asyncio's 64 KiB default stream limit — the server reads it
        # under the raised STREAM_LIMIT and the client splits batches
        # larger than BATCH_CHUNK events across lines
        from repro.service.ingest import BATCH_CHUNK

        injects = events_to_injects(
            make_fleet_testbench(200, cells=10, seed=3)
        )
        assert len(injects) > BATCH_CHUNK  # exercises the client split
        one_line = encode_message(
            InjectBatch(events=tuple(injects[:BATCH_CHUNK]))
        )
        assert len(one_line) > 64 * 1024  # exercises the server limit

        async def go():
            supervisor = FleetSupervisor(ATM, ASSIGNMENT, shards=2)
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
