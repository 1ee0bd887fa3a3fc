"""Serving-stack benchmark: sustained events/s through the fleet kernel.

The service refactor split `FleetSimulator` into the `FleetEngine`
stepping kernel (memoized quiescence cascades + vectorized dispatch)
and orchestration layers — the one-shot batch path and the always-on
service's one shard both drive the same kernel and its one round loop.
Three rows time three paths:

- **batch**: the one-shot run, **>= 500,000 events/s** on the
  10,000-instance ATM contract fleet (~1.0M on a development machine),
  **also held at 100,000 instances** (the scale row).
- **kernel**: the warm service over injects packed into
  `InjectBatchPacked` id columns before the timer starts, **>=
  1,000,000 events/s** on the same contract fleet — what the always-on
  runtime adds per event once the wire is out of the way.
- **socket**: the path a producer takes, everything inside the timer —
  generating the streams and their injects, sending them over loopback
  as inject frames of 1024 events (`ServiceClient.inject_batch`), the
  snapshot barrier and the drained `stop()` — on the smoke fleet, with
  the floor :data:`REQUIRED_SOCKET_EVENTS_PER_SECOND`.

Every timed row lands in ``BENCH_serve.json`` (via ``bench_io``, so
rows accumulate across engines/runs) and ``--smoke`` appends one entry
to the committed ``BENCH_serve.history.json`` — the machine-readable
throughput trajectory of the serving stack.  ``--smoke`` runs the kernel
and socket rows on the smoke fleet (each result equality-checked
against the one-shot batch run), enforces the socket floor, and
enforces the 1M kernel contract on the full contract fleet.
"""

from __future__ import annotations

import asyncio
import sys
import time
from dataclasses import asdict

import numpy as np

from bench_io import append_history, record_bench_rows

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.runtime import FleetSimulator, ModuleAssignment
from repro.service import (
    FleetSupervisor,
    IngestServer,
    ServiceClient,
    events_to_injects,
    inject_columns,
)

#: The contract fleet: 10k ATM server instances, the Table I testbench
#: size per instance (~114 events each with the Ticks riding along).
CONTRACT_INSTANCES = 10_000
CONTRACT_CELLS = 50

#: The scale row: 10x the contract fleet (shorter per-instance streams
#: keep the wall-clock bounded; the kernel contract must hold here too).
SCALE_INSTANCES = 100_000
SCALE_CELLS = 10

#: Enforced floor for the one-shot serving path on the contract fleet.
REQUIRED_EVENTS_PER_SECOND = 500_000.0

#: Enforced floor for the kernel row: the warm service (cascade memo +
#: instance registry populated) over pre-packed injects.
REQUIRED_SERVICE_EVENTS_PER_SECOND = 1_000_000.0

#: Enforced floor for the socket row on the smoke fleet.  First measured
#: at 90,500 events/s (best of 3, 2-core VM, Python 3.11.7; later runs
#: read 77k-107k there), so the floor leaves about 1.8x headroom.  The
#: same loop over JSON batch lines read 24k-41k on that machine.
REQUIRED_SOCKET_EVENTS_PER_SECOND = 50_000.0

#: Smoke sizes (CI): same machinery, affordable fleet.
SMOKE_INSTANCES = 1_000
SMOKE_CELLS = 10

#: Events per packed inject (the granularity a live producer would
#: batch at; inbox costs amortize across each chunk).
INJECT_CHUNK = 8192

#: Events per inject frame on the socket row.
SOCKET_CHUNK = 1024


def _workload(instances: int, cells: int):
    net = build_atm_server_net()
    assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
    streams = make_fleet_testbench(instances, cells=cells, seed=2026)
    return net, assignment, streams


def _batch_row(instances: int, cells: int, rounds: int = 2):
    """Timed one-shot runs through the kernel; returns (row, result)."""
    net, assignment, streams = _workload(instances, cells)
    simulator = FleetSimulator(net, assignment)
    result = simulator.run(streams)  # warm-up: populates the cascade memo
    best = result.elapsed_seconds
    for _ in range(rounds):
        best = min(best, simulator.run(streams).elapsed_seconds)
    events = result.stats.events_processed
    row = {
        "path": "batch",
        "instances": instances,
        "events": events,
        "seconds": best,
        "events_per_second": events / best,
    }
    return row, result


def _kernel_row(instances: int, cells: int, warm: bool = True):
    """Timed service run over pre-packed injects; returns (row, result).

    Events are interned into ``InjectBatchPacked`` chunks once, outside
    the timer — that is the production shape: the boundary packs each
    arriving wire batch exactly once and everything downstream is
    zero-copy.  ``warm=True`` serves the whole workload once first
    (populating the cascade memo and instance registry), reloads state
    keeping the memo, then times the second pass — the steady-state
    throughput of an always-on service.  The timed window closes on a
    snapshot barrier (control messages ride the shard's inbox, so the
    snapshot observes every inject before it).
    """
    net, assignment, streams = _workload(instances, cells)

    async def go():
        supervisor = FleetSupervisor(net, assignment)
        await supervisor.start()
        packed = supervisor.pack(inject_columns(events_to_injects(streams)))
        chunks = [
            packed.take(slice(lo, lo + INJECT_CHUNK))
            for lo in range(0, len(packed), INJECT_CHUNK)
        ]

        async def pump():
            for chunk in chunks:
                await supervisor.inject(chunk)

        if warm:
            await pump()
            await supervisor.reload(reset_stats=True)
        started = time.perf_counter()
        await pump()
        await supervisor.snapshot()  # barrier: observes every inject above
        seconds = time.perf_counter() - started
        result = await supervisor.stop(drain=True)
        return result, seconds

    result, seconds = asyncio.run(go())
    events = result.stats.events_processed
    row = {
        "path": "kernel",
        "warm": warm,
        "instances": instances,
        "events": events,
        "seconds": seconds,
        "events_per_second": events / seconds,
    }
    return row, result


def _socket_row(instances: int, cells: int, rounds: int = 3):
    """Best of ``rounds`` timed end-to-end socket runs; returns (row,
    result).

    Each run starts a fresh service and one client connection before
    its timer starts.  Inside the timer: generating the streams
    (``make_fleet_testbench``) and their injects
    (``events_to_injects``), sending them over loopback with
    ``ServiceClient.inject_batch`` in :data:`SOCKET_CHUNK`-event inject
    frames, a snapshot barrier, and the drained ``stop()`` that orders
    the result by instance key.
    """
    net = build_atm_server_net()
    assignment = ModuleAssignment.from_groups(MODULE_PARTITION)

    async def go():
        supervisor = FleetSupervisor(net, assignment)
        await supervisor.start()
        server = IngestServer(supervisor)
        client = await ServiceClient.connect(*await server.start())
        started = time.perf_counter()
        injects = events_to_injects(
            make_fleet_testbench(instances, cells=cells, seed=2026)
        )
        for lo in range(0, len(injects), SOCKET_CHUNK):
            await client.inject_batch(injects[lo : lo + SOCKET_CHUNK])
        await client.snapshot()  # barrier: observes every frame above
        result = await supervisor.stop(drain=True)
        seconds = time.perf_counter() - started
        await client.close()
        await server.stop()
        return result, seconds

    runs = [asyncio.run(go()) for _ in range(rounds)]
    result = runs[0][0]
    for other, _ in runs[1:]:
        _assert_equal(result, other)
    seconds = min(seconds for _, seconds in runs)
    events = result.stats.events_processed
    row = {
        "path": "socket",
        "instances": instances,
        "events": events,
        "seconds": seconds,
        "events_per_second": events / seconds,
    }
    return row, result


def _assert_equal(expected, actual) -> None:
    assert asdict(expected.stats) == asdict(actual.stats)
    assert np.array_equal(expected.instance_cycles, actual.instance_cycles)
    assert np.array_equal(expected.instance_events, actual.instance_events)


def _print_row(label: str, row) -> None:
    print(
        f"{label}: {row['instances']} instances, {row['events']} events "
        f"in {row['seconds']:.3f}s -> {row['events_per_second']:,.0f} "
        f"events/s"
    )


class TestServeThroughput:
    def test_kernel_sustains_500k_events_per_second(self):
        """>= 500k events/s one-shot on the 10k-instance ATM contract fleet."""
        row, _ = _batch_row(CONTRACT_INSTANCES, CONTRACT_CELLS)
        record_bench_rows("serve", [row])
        _print_row("\nserve contract (batch)", row)
        assert row["events_per_second"] >= REQUIRED_EVENTS_PER_SECOND, (
            f"serving kernel must sustain >= "
            f"{REQUIRED_EVENTS_PER_SECOND:,.0f} events/s on the "
            f"{CONTRACT_INSTANCES}-instance ATM fleet; measured "
            f"{row['events_per_second']:,.0f}"
        )

    def test_kernel_holds_contract_at_100k_instances(self):
        """The one-shot floor also holds on the 100k-instance scale fleet."""
        row, _ = _batch_row(SCALE_INSTANCES, SCALE_CELLS, rounds=1)
        record_bench_rows("serve", [row])
        _print_row("\nserve scale (batch, 100k)", row)
        assert row["events_per_second"] >= REQUIRED_EVENTS_PER_SECOND, (
            f"one-shot kernel must hold >= "
            f"{REQUIRED_EVENTS_PER_SECOND:,.0f} events/s at "
            f"{SCALE_INSTANCES} instances; measured "
            f"{row['events_per_second']:,.0f}"
        )

    def test_service_path_sustains_1m_events_per_second(self):
        """>= 1M events/s on the kernel row (warm, packed) — byte-identical."""
        row, result = _kernel_row(CONTRACT_INSTANCES, CONTRACT_CELLS)
        net, assignment, streams = _workload(
            CONTRACT_INSTANCES, CONTRACT_CELLS
        )
        expected = FleetSimulator(net, assignment).run(streams)
        _assert_equal(expected, result)
        record_bench_rows("serve", [row])
        _print_row("\nserve contract (kernel, warm)", row)
        assert (
            row["events_per_second"] >= REQUIRED_SERVICE_EVENTS_PER_SECOND
        ), (
            f"warm service path must sustain >= "
            f"{REQUIRED_SERVICE_EVENTS_PER_SECOND:,.0f} events/s on the "
            f"{CONTRACT_INSTANCES}-instance ATM fleet; measured "
            f"{row['events_per_second']:,.0f}"
        )

    def test_service_path_matches_and_is_recorded(self):
        """Kernel row == batch on the smoke fleet."""
        net, assignment, streams = _workload(SMOKE_INSTANCES, SMOKE_CELLS)
        expected = FleetSimulator(net, assignment).run(streams)
        row, result = _kernel_row(SMOKE_INSTANCES, SMOKE_CELLS)
        _assert_equal(expected, result)
        record_bench_rows("serve", [row])
        _print_row("\nserve smoke (kernel)", row)

    def test_socket_path_matches_and_holds_its_floor(self):
        """Socket row == batch on the smoke fleet, above its floor."""
        net, assignment, streams = _workload(SMOKE_INSTANCES, SMOKE_CELLS)
        expected = FleetSimulator(net, assignment).run(streams)
        row, result = _socket_row(SMOKE_INSTANCES, SMOKE_CELLS)
        _assert_equal(expected, result)
        record_bench_rows("serve", [row])
        _print_row("\nserve smoke (socket)", row)
        assert row["events_per_second"] >= REQUIRED_SOCKET_EVENTS_PER_SECOND


def _fleet(instances: int, cells: int, row) -> dict:
    """Which fleet a history figure was measured on."""
    return {"instances": instances, "cells": cells, "events": row["events"]}


def _smoke() -> int:
    """CI pass: equality checks, the socket floor, the 1M contract, history."""
    batch_row, batch_result = _batch_row(SMOKE_INSTANCES, SMOKE_CELLS, rounds=1)
    _print_row("smoke serve batch", batch_row)
    smoke_row, smoke_result = _kernel_row(SMOKE_INSTANCES, SMOKE_CELLS)
    _assert_equal(batch_result, smoke_result)
    _print_row("smoke serve kernel (identical)", smoke_row)
    socket_row, socket_result = _socket_row(SMOKE_INSTANCES, SMOKE_CELLS)
    _assert_equal(batch_result, socket_result)
    _print_row("smoke serve socket (identical)", socket_row)
    assert socket_row["events_per_second"] >= REQUIRED_SOCKET_EVENTS_PER_SECOND, (
        f"socket path must sustain >= "
        f"{REQUIRED_SOCKET_EVENTS_PER_SECOND:,.0f} events/s end to end; "
        f"measured {socket_row['events_per_second']:,.0f}"
    )

    # the enforced 1M kernel contract, on the full contract fleet
    contract_row, contract_result = _kernel_row(
        CONTRACT_INSTANCES, CONTRACT_CELLS
    )
    _print_row("smoke serve contract (kernel, warm)", contract_row)
    net, assignment, streams = _workload(CONTRACT_INSTANCES, CONTRACT_CELLS)
    _assert_equal(FleetSimulator(net, assignment).run(streams), contract_result)
    assert (
        contract_row["events_per_second"]
        >= REQUIRED_SERVICE_EVENTS_PER_SECOND
    ), (
        f"warm service path must sustain >= "
        f"{REQUIRED_SERVICE_EVENTS_PER_SECOND:,.0f} events/s; measured "
        f"{contract_row['events_per_second']:,.0f}"
    )

    path = record_bench_rows(
        "serve", [batch_row, smoke_row, socket_row, contract_row]
    )
    print(f"smoke serve: rows recorded -> {path}")
    entry = {
        "config": (
            "serve smoke: batch, kernel (pre-packed service) and socket "
            "(generate -> inject frames -> served -> merged) on the smoke "
            "fleet, kernel on the contract fleet"
        ),
        "batch_fleet": _fleet(SMOKE_INSTANCES, SMOKE_CELLS, batch_row),
        "batch_events_per_second": batch_row["events_per_second"],
        "smoke_kernel_events_per_second": smoke_row["events_per_second"],
        "socket_events_per_second": socket_row["events_per_second"],
        "kernel_fleet": _fleet(CONTRACT_INSTANCES, CONTRACT_CELLS, contract_row),
        "kernel_events_per_second": contract_row["events_per_second"],
    }
    history = append_history("serve", entry)
    print(f"smoke serve: history appended -> {history}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    if "--smoke" in sys.argv:
        sys.exit(_smoke())
    print("use --smoke, or run through pytest for the throughput contract")
    sys.exit(2)
