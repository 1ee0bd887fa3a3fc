"""The benchmark's workloads and :func:`run`, which runs one of them.

Every workload has the same shape, on one thread of one process:

``setup(seed)``
    Builds and compiles the net(s), calls the program's generators with
    the seed and starts whatever serves them.  :func:`run` repeats it at
    least :data:`MIN_SETUPS` times and for :data:`SETUP_SHARE` of the
    window's length, and reports the median as ``setup_s``.
``measure(state, seconds)``
    Runs whole units of work until ``seconds`` have passed: a pass of
    the socket workload over its inputs, one cold one-shot fleet run, or
    one pass over the QSS net set.  The window starts at the first
    operation on the system under test.  Every operation is attempted;
    a wrong reply, a mismatch or an exception counts as failed.
``close(state)``
    Ends the window (``FleetSupervisor.stop()`` for the service).
``verify(state)``
    Checks the outputs against an independent reference, untimed, and
    returns 1 on a mismatch.

Inputs are opaque: generator output goes straight to the program's
entry points, and events are counted by the program
(``FleetResult.stats.events_processed`` and snapshot replies).

Timings are reported at the reference machine's speed: between units of
work, and between set-ups, :class:`Speedometer` times bursts of a fixed
:func:`probe`, and :func:`to_reference` scales the medians by how much
slower than the reference the machine ran.  The values as measured are
printed on the line before the result.
"""

from __future__ import annotations

import asyncio
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps import heating, router
from repro.apps.atm import MODULE_PARTITION as ATM_PARTITION
from repro.apps.atm import build_atm_server_net
from repro.apps.atm import workload as atm_workload
from repro.codegen import generator
from repro.gallery import figures
from repro.petrinet.compiled import compile_net
from repro.petrinet.generators import (
    independent_choices_net,
    nested_choices_net,
    unbalanced_choice_net,
)
from repro.qss import scheduler
from repro.runtime import fleet
from repro.runtime.fleet import FleetEngine, FleetResult, FleetSimulator
from repro.runtime.reactive import ModuleAssignment
from repro.service import ingest
from repro.service.supervisor import FleetSupervisor

from spans import ASYNC_LAYERS, LAYERS, SETUP_LAYERS, Tracer

emit_module = importlib.import_module("repro.codegen.emit_c")

HERE = Path(__file__).resolve().parent
EXPECTED_QSS = HERE / "expected_qss.json"
TRACE_DIR = HERE / "traces"

clock = time.perf_counter

#: Set-up repeats span this share of ``--seconds``, and number at least
#: :data:`MIN_SETUPS`: the machine's speed drifts over seconds, so the
#: median of set-ups spread over a few seconds varies less between runs
#: than the median of a quick burst of them.
SETUP_SHARE = 0.3
MIN_SETUPS = 3

#: Seconds between two bursts of speed probes, probes in a burst, and
#: the probe's median duration on the reference machine (a shared 2-core
#: x86-64 VM, see layers.json).
PROBE_EVERY = 0.5
PROBE_BURST = 3
PROBE_REFERENCE = 0.005


def probe() -> float:
    """Seconds a fixed piece of interpreter and numpy work takes now.

    The shared machine's speed swings by up to 2x with its neighbours'
    load, within a run and between runs.  Timing this fixed work beside
    the workload measures that speed, so timings can be scaled to the
    reference machine.  The collector is paused so that the program's
    heap never adds to the probe's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        total = 0
        table = {}
        for i in range(10_000):
            total += i * i % 7
            table[i & 1023] = str(i)
        np.unique(np.arange(10_000, dtype=np.int64) * 2654435761 % 1_000_003)
        return clock() - started
    finally:
        if enabled:
            gc.enable()


@dataclass
class Speedometer:
    """Probes the machine's speed at most every :data:`PROBE_EVERY` s."""

    #: median probe time of each burst
    probes: List[float] = field(default_factory=list)
    #: seconds spent probing
    spent: float = 0.0
    due: float = 0.0

    def check(self) -> None:
        """Called between units of work, never inside a timed one.

        A burst's median drops a probe slowed by a cold cache or an
        allocator refilling after a teardown.
        """
        if clock() >= self.due:
            started = clock()
            self.probes.append(statistics.median([probe() for _ in range(PROBE_BURST)]))
            self.spent += clock() - started
            self.due = clock() + PROBE_EVERY

    def slowdown(self) -> float:
        """How much slower than the reference machine it ran (>1: slower)."""
        return statistics.median(self.probes) / PROBE_REFERENCE


@dataclass
class Window:
    """What one ``measure`` call observed."""

    #: work per second of each unit: events/s of one socket request or
    #: one-shot run, nets/s of one pass over the QSS net set
    unit_rates: List[float] = field(default_factory=list)
    #: seconds per request (socket batch, one-shot run, one net)
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    speed: Speedometer = field(default_factory=Speedometer)


def same_result(a: FleetResult, b: FleetResult) -> bool:
    """Byte-level equality of two fleet results (wall clock aside)."""
    ticks_equal = (a.instance_ticks is None and b.instance_ticks is None) or (
        a.instance_ticks is not None
        and b.instance_ticks is not None
        and np.array_equal(a.instance_ticks, b.instance_ticks)
    )
    return (
        a.stats == b.stats
        and np.array_equal(a.instance_cycles, b.instance_cycles)
        and np.array_equal(a.instance_events, b.instance_events)
        and ticks_equal
    )


def direct_result(cnet, assignment, streams) -> FleetResult:
    """The oracle: the same streams through the kernel's direct loop."""
    simulator = FleetSimulator(cnet, assignment)
    simulator.kernel = FleetEngine(cnet, assignment, memo=False)
    return simulator.run(streams)


# ----------------------------------------------------------------------
# atm_socket: LDJSON socket ingest into one async shard
# ----------------------------------------------------------------------
class AtmSocket:
    """The ATM fleet fed through ``IngestServer`` by one ``ServiceClient``.

    Closed loop, one connection: each request writes one inject batch of
    ``batch`` events and then awaits a snapshot reply that must observe
    it; the request is the unit of work, so the window's hundreds of
    requests give a steadier median than its dozen passes would.  A pass
    sends every generated event once; passes after the first start with
    ``reload()``, so every pass serves the same inputs from the initial
    marking and the final ``stop()`` result must equal a one-shot run
    over the streams.
    """

    name = "atm_socket"
    target_layers = ("service.encode", "service.decode")

    def __init__(self, instances: int = 200, cells: int = 50, batch: int = 1024):
        self.instances = instances
        self.cells = cells
        self.batch = batch

    def setup(self, seed: int) -> SimpleNamespace:
        loop = asyncio.new_event_loop()
        state = SimpleNamespace(loop=loop, passes=0, result=None)
        state.cnet = compile_net(build_atm_server_net())
        state.assignment = ModuleAssignment.from_groups(ATM_PARTITION)
        state.streams = atm_workload.make_fleet_testbench(
            self.instances, cells=self.cells, seed=seed
        )
        state.injects = ingest.events_to_injects(state.streams)
        loop.run_until_complete(self._start(state))
        return state

    async def _start(self, state: SimpleNamespace) -> None:
        state.supervisor = FleetSupervisor(
            state.cnet, state.assignment, shards=1, backend="async"
        )
        await state.supervisor.start()
        state.server = ingest.IngestServer(state.supervisor)
        host, port = await state.server.start()
        state.client = await ingest.ServiceClient.connect(host, port)

    def measure(self, state: SimpleNamespace, seconds: float) -> Window:
        return state.loop.run_until_complete(
            asyncio.wait_for(self._measure(state, seconds), timeout=seconds + 60)
        )

    async def _measure(self, state: SimpleNamespace, seconds: float) -> Window:
        if not gc.get_freeze_count():
            # the client's inputs would live in another process; keep the
            # collector from traversing them on every full collection
            gc.collect()
            gc.freeze()
        window = Window()
        client = state.client
        injects = state.injects
        step = self.batch
        deadline = clock() + seconds
        while True:
            try:
                if state.passes:
                    window.attempted += 1
                    ack = await client.reload(reset_stats=True)
                    if not getattr(ack, "ok", False):
                        window.failed += 1
                sent = observed = 0
                for lo in range(0, len(injects), step):
                    window.speed.check()
                    chunk = injects[lo : lo + step]
                    requested = clock()
                    window.attempted += 1
                    await client.inject_batch(chunk)
                    reply = await client.snapshot()
                    latency = clock() - requested
                    window.latencies.append(latency)
                    window.unit_rates.append((reply.events - observed) / latency)
                    sent += len(chunk)
                    observed = reply.events
                    if observed != sent:
                        window.failed += 1
            except Exception:  # noqa: BLE001 - the connection's state is unknown
                traceback.print_exc()
                window.failed += 1
                return window
            state.passes += 1
            if clock() >= deadline:
                return window

    def close(self, state: SimpleNamespace) -> None:
        state.result = state.loop.run_until_complete(
            asyncio.wait_for(state.supervisor.stop(), timeout=60)
        )

    def verify(self, state: SimpleNamespace) -> int:
        reference = FleetSimulator(state.cnet, state.assignment).run(state.streams)
        return int(not same_result(state.result, reference))

    def teardown(self, state: SimpleNamespace) -> None:
        gc.unfreeze()
        loop = state.loop
        try:
            if state.result is None:
                loop.run_until_complete(
                    asyncio.wait_for(state.supervisor.stop(), timeout=60)
                )
            loop.run_until_complete(self._disconnect(state))
        finally:
            loop.close()

    @staticmethod
    async def _disconnect(state: SimpleNamespace) -> None:
        await state.client.close()
        await state.server.stop()
        # the connection handler ends once it reads the client's EOF
        others = asyncio.all_tasks() - {asyncio.current_task()}
        if others:
            _, pending = await asyncio.wait(others, timeout=10)
            for task in pending:
                task.cancel()

    def code_lines(self, state: SimpleNamespace) -> int:
        return 0


# ----------------------------------------------------------------------
# atm_oneshot / merge_oneshot: cold FleetSimulator.run
# ----------------------------------------------------------------------
class _FleetOneshot:
    """Cold one-shot runs: a fresh ``FleetSimulator`` per run, as the
    ``repro-qss serve`` command builds one per invocation.  Every run
    must equal the first, and the first the kernel's direct loop."""

    target_layers: Tuple[str, ...] = ()
    #: instances the direct-loop oracle replays (``None``: all of them)
    oracle_instances: Optional[int] = None

    def build(self, seed: int) -> Tuple[Any, ModuleAssignment, Any]:
        raise NotImplementedError

    def setup(self, seed: int) -> SimpleNamespace:
        net, assignment, streams = self.build(seed)
        return SimpleNamespace(
            cnet=compile_net(net), assignment=assignment, streams=streams, first=None
        )

    def measure(self, state: SimpleNamespace, seconds: float) -> Window:
        window = Window()
        deadline = clock() + seconds
        while True:
            window.speed.check()
            window.attempted += 1
            started = clock()
            try:
                result = FleetSimulator(state.cnet, state.assignment).run(state.streams)
            except Exception:  # noqa: BLE001 - counted, the next run is independent
                traceback.print_exc()
                window.failed += 1
            else:
                elapsed = clock() - started
                window.latencies.append(elapsed)
                window.unit_rates.append(result.stats.events_processed / elapsed)
                if state.first is None:
                    state.first = result
                elif not same_result(result, state.first):
                    window.failed += 1
            if clock() >= deadline:
                return window

    def close(self, state: SimpleNamespace) -> None:
        pass

    def verify(self, state: SimpleNamespace) -> int:
        count = self.oracle_instances
        if count is None:
            oracle = direct_result(state.cnet, state.assignment, state.streams)
            return int(not same_result(state.first, oracle))
        # instances are independent, so a prefix of the fleet must match
        # the direct loop over the same prefix of streams
        oracle = direct_result(state.cnet, state.assignment, state.streams[:count])
        first = state.first
        same = np.array_equal(
            first.instance_cycles[:count], oracle.instance_cycles
        ) and np.array_equal(first.instance_events[:count], oracle.instance_events)
        return int(not same)

    def teardown(self, state: SimpleNamespace) -> None:
        pass

    def code_lines(self, state: SimpleNamespace) -> int:
        return 0


class AtmOneshot(_FleetOneshot):
    """The ATM fleet through ``FleetSimulator.run``: no wire layer."""

    name = "atm_oneshot"
    target_layers = ("fleet.intern", "fleet.run")
    # the direct loop takes ~8 s over the whole ATM fleet, ~1 s over 100
    oracle_instances = 100

    def __init__(self, instances: int = 1000, cells: int = 50):
        self.instances = instances
        self.cells = cells

    def build(self, seed: int):
        net = build_atm_server_net()
        streams = atm_workload.make_fleet_testbench(
            self.instances, cells=self.cells, seed=seed
        )
        return net, ModuleAssignment.from_groups(ATM_PARTITION), streams


class MergeOneshot(_FleetOneshot):
    """A fleet of the non-schedulable weighted merge net (Figure 3b
    generalized): thousands of memo states, the state-dependent kernel."""

    name = "merge_oneshot"
    target_layers = ("fleet.dispatch", "fleet.cascade")

    def __init__(self, instances: int = 2000, events: int = 100):
        self.instances = instances
        self.events = events

    def build(self, seed: int):
        net = unbalanced_choice_net(5, branches=3, max_weight=4, merge=True)
        streams = fleet.synthetic_streams(net, self.instances, self.events, seed=seed)
        return net, ModuleAssignment.single_task(net), streams


# ----------------------------------------------------------------------
# qss_synth: analyse -> synthesize -> emit_c
# ----------------------------------------------------------------------
#: The designer's net set: the three application case studies, the
#: paper's weighted Figure 4 and unschedulable Figure 7, and the two
#: reduction-enumeration stress families.
QSS_NETS: Tuple[Tuple[str, Callable[[], Any]], ...] = (
    ("atm", build_atm_server_net),
    ("router", router.build_router_net),
    ("heating", heating.build_heating_net),
    ("figure4", figures.figure4_weighted),
    ("independent_choices_6x2", lambda: independent_choices_net(6, 2)),
    ("nested_choices_10", lambda: nested_choices_net(10)),
    ("figure7", figures.figure7_unschedulable),
)


def qss_record(net, engine: str = "compiled") -> Dict[str, Any]:
    """Verdict, counts and emitted C size of one net's synthesis."""
    report = scheduler.analyse(net, engine=engine)
    lines = None
    if report.schedulable:
        program = generator.synthesize(report.schedule)
        lines = emit_module.emit_c(program).lines_of_code
    return {
        "schedulable": report.schedulable,
        "allocations": report.allocation_count,
        "reductions": report.reduction_count,
        "code_lines": lines,
    }


def load_expected_qss() -> Dict[str, Dict[str, Any]]:
    with open(EXPECTED_QSS) as handle:
        return json.load(handle)


def write_expected() -> int:
    """Regenerate the expected file; both QSS engines must agree."""
    records = {}
    for name, build in QSS_NETS:
        net = build()
        compiled = qss_record(net)
        legacy = qss_record(net, engine="legacy")
        if compiled != legacy:
            print(f"{name}: compiled {compiled} != legacy {legacy}", file=sys.stderr)
            return 1
        records[name] = compiled
    EXPECTED_QSS.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    return 0


class QssSynth:
    """Passes over the fixed net set; the seed shuffles each run's order."""

    name = "qss_synth"
    target_layers = (
        "qss.analyse",
        "qss.check",
        "qss.partition",
        "codegen.generate",
        "codegen.emit",
    )

    def __init__(self, nets: Tuple[Tuple[str, Callable[[], Any]], ...] = QSS_NETS):
        self.nets = nets
        self.expected = load_expected_qss()

    def setup(self, seed: int) -> SimpleNamespace:
        nets = [(name, build()) for name, build in self.nets]
        random.Random(seed).shuffle(nets)
        return SimpleNamespace(nets=nets, records={})

    def measure(self, state: SimpleNamespace, seconds: float) -> Window:
        window = Window()
        deadline = clock() + seconds
        while True:
            done, busy = 0, 0.0
            for name, net in state.nets:
                window.speed.check()
                window.attempted += 1
                requested = clock()
                try:
                    record = qss_record(net)
                except Exception:  # noqa: BLE001 - counted, the next net is independent
                    traceback.print_exc()
                    window.failed += 1
                    continue
                elapsed = clock() - requested
                window.latencies.append(elapsed)
                done += 1
                busy += elapsed
                state.records[name] = record
                if record != self.expected.get(name):
                    window.failed += 1
            # the pass's rate counts the nets' own time, not the probes'
            window.unit_rates.append(done / busy if busy else 0.0)
            if clock() >= deadline:
                return window

    def close(self, state: SimpleNamespace) -> None:
        pass

    def verify(self, state: SimpleNamespace) -> int:
        """Cross-check the expected file once against the legacy engine."""
        wrong = [
            name
            for name, net in state.nets
            if qss_record(net, engine="legacy") != self.expected.get(name)
        ]
        for name in wrong:
            print(f"{self.name}: legacy engine disagrees on {name}", file=sys.stderr)
        return int(bool(wrong))

    def teardown(self, state: SimpleNamespace) -> None:
        pass

    def code_lines(self, state: SimpleNamespace) -> int:
        return sum(record["code_lines"] or 0 for record in state.records.values())


WORKLOADS = {
    workload.name: workload
    for workload in (AtmSocket, AtmOneshot, MergeOneshot, QssSynth)
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
#: ``(name, unit, better)`` of the untraced run's metrics.
END_TO_END = (
    ("throughput", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("batch_p50_ms", "ms", "lower"),
)

#: Unit of each layer's ``.items`` count.
ITEM_UNITS = {
    "fleet.gen": "instances",
    "service.encode": "chars",
    "service.decode": "chars",
    "service.pack": "events",
    "service.route": "events",
    "service.inbox": "messages",
    "service.serve": "events",
    "service.snapshot": "replies",
    "service.merge": "instances",
    "fleet.run": "events",
    "fleet.intern": "events",
    "fleet.dispatch": "events",
    "fleet.cascade": "cascades",
    "qss.analyse": "reductions",
    "qss.check": "reductions",
    "qss.partition": "tasks",
    "codegen.generate": "tasks",
    "codegen.emit": "lines",
}


def per_layer_catalogue() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every traced-run metric, in order."""
    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer}.busy_s", "s", "lower"))
        if layer in ASYNC_LAYERS:
            metrics.append((f"{layer}.wait_s", "s", "lower"))
        metrics.append((f"{layer}.calls", "count", "lower"))
        metrics.append((f"{layer}.items", ITEM_UNITS[layer], "higher"))
        if layer not in SETUP_LAYERS:
            metrics.append((f"{layer}.share", "ratio", "lower"))
    metrics += [
        ("fleet.cascade.miss_ratio", "ratio", "lower"),
        ("code_lines", "lines", "lower"),
        ("target_layers.share", "ratio", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.missing", "count", "lower"),
    ]
    return metrics


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_summary(latencies: List[float]) -> Optional[str]:
    """The highest percentile with at least ten samples beyond it."""
    count = len(latencies)
    for cut in (1000, 100, 10):
        # the top 1/cut of the samples holds at least ten of them
        if count >= 10 * cut:
            value = statistics.quantiles(latencies, n=cut)[cut - 2]
            beyond = sum(1 for latency in latencies if latency > value)
            label = f"p{100 * (cut - 1) / cut:g}"
            return (
                f"{label} {value * 1000:.3f} ms over {count} requests "
                f"({beyond} beyond)"
            )
    return None


def _attempt(step: Callable[[SimpleNamespace], Optional[int]], state) -> int:
    """One step of the final check; returns its failures, an exception is one."""
    try:
        return step(state) or 0
    except Exception:  # noqa: BLE001 - the system under test failed
        traceback.print_exc()
        return 1


def to_reference(
    raw: Dict[str, float], slowdown: float, setup_slowdown: float
) -> Dict[str, float]:
    """End-to-end metrics scaled to the reference machine's speed.

    Rates are multiplied and times divided by how much slower than the
    reference the machine ran while they were measured; memory is as
    measured.
    """
    return {
        "throughput": raw["throughput"] * slowdown,
        "setup_s": raw["setup_s"] / setup_slowdown,
        "peak_rss_mb": raw["peak_rss_mb"],
        "batch_p50_ms": raw["batch_p50_ms"] / slowdown,
    }


def _metric(catalogue, values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": values[name], "unit": unit} for name, unit, _ in catalogue
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    options: Optional[Dict[str, Any]] = None,
    trace_dir: Path = TRACE_DIR,
) -> Dict[str, Any]:
    """Run one workload; returns the benchmark's result object.

    ``options`` override the workload's sizes; traced runs write their
    spans to ``trace_dir``.
    """
    workload = WORKLOADS[name](**(options or {}))
    tracer = Tracer() if trace else None
    setup_times: List[float] = []
    setup_speed = Speedometer()
    setup_deadline = clock() + SETUP_SHARE * seconds
    while True:
        setup_speed.check()
        last = len(setup_times) + 1 >= MIN_SETUPS and clock() >= setup_deadline
        if tracer is not None and last:
            tracer.install()
        try:
            started = clock()
            state = workload.setup(seed)
            setup_times.append(clock() - started)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if last:
            setup_speed.check()
            break
        workload.teardown(state)
        # drop it before the next set-up so peak_rss_mb sees one state
        del state

    plain: Optional[Window] = None
    # the final close-and-compare is one more operation
    attempted, failed = 1, 0
    try:
        if tracer is not None:
            plain = workload.measure(state, seconds / 2)
            first_span = len(tracer.spans)
            tracer.install()
        started = clock()
        window = workload.measure(state, seconds if tracer is None else seconds / 2)
        failed += _attempt(workload.close, state)
        # the probes ran inside the window but belong to no layer
        window_s = clock() - started - window.speed.spent
        peak = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
        if not failed:
            failed += _attempt(workload.verify, state)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown(state)
    if not window.unit_rates or (plain is not None and not plain.unit_rates):
        print(f"{name}: no unit of work completed", file=sys.stderr)
        raise SystemExit(1)

    attempted += window.attempted + (plain.attempted if plain else 0)
    failed += window.failed + (plain.failed if plain else 0)
    tail = tail_summary(window.latencies)
    if tail:
        print(f"{name}: request latency {tail}")

    if tracer is None:
        raw = {
            "throughput": statistics.median(window.unit_rates),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak,
            "batch_p50_ms": statistics.median(window.latencies) * 1000.0,
        }
        slowdown = window.speed.slowdown()
        setup_slowdown = setup_speed.slowdown()
        print(
            f"{name}: as measured, throughput {raw['throughput']:.6g}/s, "
            f"setup {raw['setup_s']:.6g} s, batch p50 {raw['batch_p50_ms']:.6g} ms; "
            f"machine slowdown {slowdown:.3f} in the window, "
            f"{setup_slowdown:.3f} in set-up"
        )
        metrics = _metric(END_TO_END, to_reference(raw, slowdown, setup_slowdown))
    else:
        everything = tracer.layer_totals()
        in_window = tracer.layer_totals(first_span)
        values = {}
        for layer in LAYERS:
            for key in ("busy_s", "wait_s", "calls", "items"):
                values[f"{layer}.{key}"] = everything[layer][key]
            values[f"{layer}.share"] = in_window[layer]["busy_s"] / window_s
        dispatched = in_window["fleet.dispatch"]["items"]
        values["fleet.cascade.miss_ratio"] = (
            in_window["fleet.cascade"]["calls"] / dispatched if dispatched else 0.0
        )
        values["code_lines"] = workload.code_lines(state)
        values["target_layers.share"] = sum(
            in_window[layer]["busy_s"] for layer in workload.target_layers
        ) / window_s
        values["trace.overhead"] = (
            statistics.median(plain.unit_rates) * plain.speed.slowdown()
        ) / (statistics.median(window.unit_rates) * window.speed.slowdown())
        values["trace.missing"] = len(tracer.missing)
        metrics = _metric(per_layer_catalogue(), values)
        for path in tracer.missing:
            print(f"{name}: trace target missing: {path}", file=sys.stderr)
        trace_dir.mkdir(exist_ok=True)
        tracer.write(
            str(trace_dir / f"{name}-seed{seed}.json"),
            {"workload": name, "seed": seed, "window_start_span": first_span},
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
