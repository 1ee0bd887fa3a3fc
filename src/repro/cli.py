"""Command-line interface to the synthesis flow.

The CLI exposes the complete paper flow on nets stored in the JSON format
of :mod:`repro.petrinet.serialization`, so the tool can be used without
writing Python:

.. code-block:: console

    $ repro-qss info model.json            # structural summary and class
    $ repro-qss analyse model.json         # schedulability + valid schedule
    $ repro-qss synthesize model.json -o model.c   # generate the C code
    $ repro-qss synthesize model.json --driver -o unit.c
                                           # C + native driver
    $ repro-qss dot model.json -o model.dot        # Graphviz export
    $ repro-qss gallery figure4 -o fig4.json       # dump a paper figure net
    $ repro-qss atm-table1 --cells 50      # reproduce Table I
    $ repro-qss corpus --n 200 --workers 4 --json corpus.json
                                           # stress-analyse 200 generated nets
    $ repro-qss corpus --n 200 --workers 4 --analyse qss --csv sweep.csv
                                           # parallel schedulability sweep
    $ repro-qss serve --instances 1000 --events 50
                                           # execute an ATM server fleet

Every subcommand returns a process exit code of 0 on success, 1 when the
analysis reports a negative result (e.g. the net is not schedulable) and
2 on usage errors, so the tool composes with shell scripts and CI jobs.

Analysis subcommands accept ``--engine`` (default ``compiled``):
``compiled`` is the fast path on the integer-indexed
:class:`~repro.petrinet.compiled.CompiledNet` core (its state-space
queries, ``corpus`` included, run the batched explorer of
:mod:`repro.petrinet.frontier`) and ``legacy`` is the oracle on the
original dict-based token game.  The execution subcommand
(``atm-table1``) also accepts ``native`` — the synthesized C compiled to
a shared library (:mod:`repro.codegen.native`), falling back to
``compiled`` with a warning when no C compiler is available.  All
engines produce identical verdicts; the flag exists so each path can be
exercised (and timed) from the shell.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List, Optional

from .analysis import build_comparison, render_corpus_summary
from .apps import atm, heating, router
from .codegen import EmitOptions, emit_c, native_source, synthesize
from .gallery import paper_figures
from .petrinet import (
    ENGINE_COMPILED,
    ENGINE_NATIVE,
    ENGINES,
    EXEC_ENGINES,
    classify,
    is_free_choice,
    load_net,
    net_to_dot,
    save_net,
)
from .petrinet.corpus import (
    CORPUS_ANALYSES,
    CORPUS_FAMILIES,
    CORPUS_SCHEMA,
    corpus_to_csv,
    corpus_to_json_dict,
    generate_corpus,
    run_corpus,
)
from .petrinet.corpus_schema import (
    CorpusSchemaError,
    validate_corpus_document,
    validate_corpus_file,
)
from .petrinet.exceptions import PetriNetError
from .qss import analyse, partition_tasks
from .runtime import (
    ARRIVAL_PROCESSES,
    FleetSimulator,
    ModuleAssignment,
    parse_timing,
    synthetic_streams,
)


def _load(path: str):
    try:
        return load_net(path)
    except (OSError, PetriNetError) as error:
        raise SystemExit(f"error: cannot load net from {path}: {error}")


def _write_or_print(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        print(text)


def cmd_info(args: argparse.Namespace) -> int:
    net = _load(args.net)
    print(net.summary())
    print(f"class           : {classify(net)}")
    print(f"free choice     : {is_free_choice(net)}")
    print(f"source inputs   : {net.source_transitions()}")
    print(f"choice places   : {net.choice_places()}")
    return 0


def _analyse(net, engine: str, fail_fast: bool = False):
    """``analyse`` for a subcommand: ``None`` once a rejection is reported.

    A net the analysis rejects (e.g. one that is not free-choice) prints
    ``error: …`` to stderr instead of a traceback; the caller exits 1.
    """
    try:
        return analyse(net, engine=engine, fail_fast=fail_fast)
    except PetriNetError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _synthesized(args: argparse.Namespace):
    """The program synthesized from ``args.net``, or ``None`` once the
    reason there is none (rejected or unschedulable net) is on stderr."""
    report = _analyse(_load(args.net), args.engine)
    if report is None:
        return None
    if not report.schedulable or report.schedule is None:
        print(report.explain(), file=sys.stderr)
        return None
    return synthesize(report.schedule)


def cmd_analyse(args: argparse.Namespace) -> int:
    report = _analyse(_load(args.net), args.engine, fail_fast=args.fail_fast)
    if report is None:
        return 1
    print(report.explain())
    if report.schedulable and report.schedule is not None:
        if args.show_schedule:
            print(report.schedule.describe())
        partition = partition_tasks(report.schedule)
        print(partition.describe())
    return 0 if report.schedulable else 1


def cmd_synthesize(args: argparse.Namespace) -> int:
    if args.driver and args.standalone_loop:
        print(
            "error: --driver emits RTOS-callable entry points; "
            "drop --standalone-loop",
            file=sys.stderr,
        )
        return 2
    program = _synthesized(args)
    if program is None:
        return 1
    if args.driver:
        text = native_source(program)
        what = "C translation unit with native driver"
    else:
        emission = emit_c(
            program, EmitOptions(standalone_loop=args.standalone_loop)
        )
        text = emission.source
        what = f"{emission.lines_of_code} lines of C"
    _write_or_print(text, args.output)
    print(f"synthesized {program.task_count} task(s), {what}", file=sys.stderr)
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    net = _load(args.net)
    _write_or_print(net_to_dot(net, title=args.title or net.name), args.output)
    return 0


def cmd_gallery(args: argparse.Namespace) -> int:
    figures = paper_figures()
    if args.figure == "list" or args.figure not in figures:
        print("available figures:", ", ".join(sorted(figures)))
        return 0 if args.figure == "list" else 2
    net = figures[args.figure]()
    if args.analyse:
        if args.output:
            print(
                "error: --analyse does not write a net; drop -o/--output",
                file=sys.stderr,
            )
            return 2
        report = _analyse(net, args.engine)
        if report is None:
            return 1
        print(report.explain())
        return 0 if report.schedulable else 1
    if args.output:
        save_net(net, args.output)
        print(f"wrote {args.figure} to {args.output}")
    else:
        from .petrinet import net_to_json

        print(net_to_json(net))
    return 0


def cmd_atm_table1(args: argparse.Namespace) -> int:
    net = atm.build_atm_server_net()
    events = atm.make_testbench(cells=args.cells, seed=args.seed)
    table = build_comparison(
        net,
        atm.MODULE_PARTITION,
        events,
        title="Table I (reproduced)",
        engine=args.engine,
    )
    print(table.render())
    ratio = table.ratio("clock_cycles", "QSS", "Functional task partitioning")
    print(f"functional / QSS clock-cycle ratio: {ratio:.3f}")
    return 0


def _parse_family_args(text: str, parser: argparse.ArgumentParser):
    """Parse the ``k=v,k=v`` tail of ``--family NAME:ARGS``."""
    overrides = {}
    for pair in text.split(","):
        if not pair:
            continue
        key, sep, value = pair.partition("=")
        if not sep or not key:
            parser.error(
                f"argument --family: bad parameter {pair!r} (expected key=value)"
            )
        if value.lower() in ("true", "false"):
            overrides[key] = value.lower() == "true"
        else:
            try:
                overrides[key] = int(value)
            except ValueError:
                overrides[key] = value
    return overrides


#: The built-in application case studies: builder, functional-module
#: partition, native arrival process, and per-fleet testbench maker
#: (the ``--events`` count maps to the family's driving input: ATM
#: cells, router packets, heating samples).
_APP_FAMILIES = {
    "atm": (
        atm.build_atm_server_net,
        atm.MODULE_PARTITION,
        "exponential",
        lambda instances, events, seed, arrival: atm.make_fleet_testbench(
            instances, cells=events, seed=seed, arrival=arrival
        ),
    ),
    "router": (
        router.build_router_net,
        router.MODULE_PARTITION,
        "bursty",
        lambda instances, events, seed, arrival: router.make_fleet_testbench(
            instances, packets=events, seed=seed, arrival=arrival
        ),
    ),
    "heating": (
        heating.build_heating_net,
        heating.MODULE_PARTITION,
        "diurnal",
        lambda instances, events, seed, arrival: heating.make_fleet_testbench(
            instances, samples=events, seed=seed, arrival=arrival
        ),
    ),
}


def _serve_family_names() -> List[str]:
    # the app families shadow their same-named corpus entries (the serve
    # path uses the realistic testbenches, not synthetic streams)
    return sorted(set(_APP_FAMILIES) | set(CORPUS_FAMILIES))


def _serve_workload(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Resolve ``--family`` into (net, assignment, per-instance streams)."""
    name, _, argstr = args.family.partition(":")
    app = _APP_FAMILIES.get(name)
    if app is not None:
        if argstr:
            parser.error(
                f"argument --family: the built-in {name!r} family takes no "
                "parameters"
            )
        build, partition_groups, native_arrival, bench = app
        net = build()
        arrival = args.arrival or native_arrival
        streams = bench(args.instances, args.events, args.seed, arrival)
        if args.partition == "modules":
            assignment = ModuleAssignment.from_groups(partition_groups)
        else:
            assignment = ModuleAssignment.single_task(net)
        return net, assignment, streams
    family = CORPUS_FAMILIES.get(name)
    if family is None:
        valid = ", ".join(_serve_family_names())
        parser.error(
            f"argument --family: unknown family {name!r} (valid: {valid})"
        )
    params = family.spec(args.seed).param_dict
    overrides = _parse_family_args(argstr, parser) if argstr else {}
    unknown = set(overrides) - set(params)
    if unknown:
        parser.error(
            f"argument --family: unknown parameter(s) "
            f"{', '.join(sorted(unknown))} for family {name!r} "
            f"(valid: {', '.join(sorted(params))})"
        )
    params.update(overrides)
    net = family.build(args.seed, params)
    streams = synthetic_streams(
        net,
        args.instances,
        args.events,
        seed=args.seed,
        arrival=args.arrival or "exponential",
    )
    return net, ModuleAssignment.single_task(net), streams


def _validate_serve_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    """Up-front validation of serve flag combinations (exit code 2)."""
    service_mode = (
        args.listen is not None
        or args.duration is not None
        or args.telemetry is not None
    )
    if args.instances < 0 or (args.instances == 0 and args.listen is None):
        # with --listen the generated testbench is not fed; instances
        # register lazily as events arrive, so an empty fleet is fine
        parser.error("argument --instances: must be positive")
    if args.events <= 0 and not args.listen:
        parser.error("argument --events: must be positive")
    if args.inbox_limit is not None and args.inbox_limit <= 0:
        parser.error("argument --inbox-limit: must be positive")
    if args.inbox_limit is not None and not service_mode:
        parser.error(
            "argument --inbox-limit: only meaningful in service mode "
            "(use --listen or --telemetry)"
        )
    for flag, seconds in (
        ("--duration", args.duration),
        ("--telemetry-interval", args.telemetry_interval),
    ):
        if seconds is not None and not (math.isfinite(seconds) and seconds > 0):
            parser.error(
                f"argument {flag}: must be positive and finite, got {seconds}"
            )
    if args.telemetry_interval is not None and args.telemetry is None:
        parser.error(
            "argument --telemetry-interval: only meaningful with --telemetry"
        )
    if args.duration is not None and args.listen is None:
        parser.error(
            "argument --duration: only meaningful with --listen (the "
            "in-process service drains its generated streams and stops)"
        )
    if service_mode and args.engine != ENGINE_COMPILED:
        parser.error(
            "argument --engine: the service runs on the compiled kernel; "
            "legacy is only available for the one-shot batch run"
        )
    family_name = args.family.partition(":")[0]
    if family_name not in _APP_FAMILIES and family_name not in CORPUS_FAMILIES:
        valid = ", ".join(_serve_family_names())
        parser.error(
            f"argument --family: unknown family {family_name!r} "
            f"(valid: {valid})"
        )
    if args.partition == "modules" and family_name not in _APP_FAMILIES:
        parser.error(
            "argument --partition: the 'modules' partition needs an "
            "application family "
            f"({', '.join(sorted(_APP_FAMILIES))}); corpus families run "
            "with --partition single"
        )
    if args.partition is None:
        args.partition = "modules" if family_name in _APP_FAMILIES else "single"
    if args.listen is not None:
        host, sep, port = args.listen.rpartition(":")
        if not sep or not host:
            parser.error(
                "argument --listen: expected HOST:PORT "
                "(e.g. 127.0.0.1:9500)"
            )
        try:
            args.listen_host, args.listen_port = host, int(port)
        except ValueError:
            parser.error(f"argument --listen: bad port {port!r}")


async def _serve_service(
    args: argparse.Namespace, net, assignment, streams, timing
) -> int:
    import asyncio as aio
    import contextlib
    import time as time_mod

    from .service import (
        DEFAULT_INBOX_LIMIT,
        FleetSupervisor,
        IngestServer,
        ShardFailed,
        TelemetryWriter,
        events_to_injects,
        inject_columns,
    )

    supervisor = FleetSupervisor(
        net,
        assignment,
        inbox_limit=(
            args.inbox_limit
            if args.inbox_limit is not None
            else DEFAULT_INBOX_LIMIT
        ),
        timing=timing,
    )
    await supervisor.start()
    started = time_mod.monotonic()
    telemetry = TelemetryWriter(args.telemetry) if args.telemetry else None
    last_events = 0

    async def sample() -> None:
        nonlocal last_events
        snapshot = await supervisor.snapshot()
        telemetry.emit(
            {
                "elapsed_seconds": time_mod.monotonic() - started,
                "instances": snapshot.instances,
                "events": snapshot.events,
                "events_delta": snapshot.events - last_events,
                "throughput_eps": snapshot.throughput_eps,
                "queue_depth": snapshot.queue_depth,
                "budget_stops": snapshot.budget_stops,
                "cycle_percentiles": dict(snapshot.percentiles),
            }
        )
        telemetry.flush()  # one write per sampling tick
        last_events = snapshot.events

    async def sampler() -> None:
        interval = args.telemetry_interval or 0.5
        while True:
            await aio.sleep(interval)
            await sample()

    sampler_task = aio.create_task(sampler()) if telemetry else None
    drain = True  # unless a client asks to stop without draining
    try:
        if args.listen is not None:
            server = IngestServer(
                supervisor, host=args.listen_host, port=args.listen_port
            )
            host, port = await server.start()
            print(f"listening on {host}:{port}", flush=True)
            try:
                waiter = aio.create_task(server.shutdown_requested.wait())
                try:
                    await aio.wait_for(aio.shield(waiter), timeout=args.duration)
                    drain = server.shutdown_drain
                except aio.TimeoutError:
                    waiter.cancel()
            finally:
                await server.stop()
        else:
            injects = events_to_injects(streams)
            for i in range(0, len(injects), 512):
                await supervisor.inject(inject_columns(injects[i : i + 512]))
    finally:
        if sampler_task is not None:
            sampler_task.cancel()
            # a failed shard ends the sampler too; stop() raises its error
            await aio.gather(sampler_task, return_exceptions=True)
        if telemetry is not None:
            with contextlib.suppress(ShardFailed):  # stop() raises it
                await sample()
            telemetry.close()
        result = await supervisor.stop(drain=drain)
    print(result.describe())
    print(
        f"served {result.stats.events_processed} events across "
        f"{result.instances} instance(s) in {result.elapsed_seconds:.3f}s "
        f"(service, {args.partition} partition)"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    parser = args.serve_parser
    _validate_serve_args(args, parser)
    net, assignment, streams = _serve_workload(args, parser)
    try:
        timing = parse_timing(args.timing, net, seed=args.seed)
    except ValueError as error:
        parser.error(f"argument --timing: {error}")
    if args.listen is not None or args.telemetry is not None:
        import asyncio

        from .service import ShardFailed

        try:
            return asyncio.run(
                _serve_service(args, net, assignment, streams, timing)
            )
        except ShardFailed as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    fleet = FleetSimulator(net, assignment, engine=args.engine, timing=timing)
    result = fleet.run(streams)
    print(result.describe())
    print(
        f"served {result.stats.events_processed} events across "
        f"{result.instances} instance(s) in {result.elapsed_seconds:.3f}s "
        f"({args.engine} engine, {args.partition} partition)"
    )
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    if args.list_families:
        print("available families:", ", ".join(sorted(CORPUS_FAMILIES)))
        return 0
    if args.validate_json:
        try:
            doc = validate_corpus_file(args.validate_json)
        except OSError as error:
            print(f"error: cannot read {args.validate_json}: {error}", file=sys.stderr)
            return 2
        except CorpusSchemaError as error:
            print(f"error: {args.validate_json}: {error}", file=sys.stderr)
            return 1
        print(
            f"{args.validate_json}: valid {CORPUS_SCHEMA} document "
            f"({doc['n']} record(s), {doc['analyse']} mode)"
        )
        return 0
    families = args.families.split(",") if args.families else None
    try:
        specs = generate_corpus(args.n, seed=args.seed, families=families)
    except (KeyError, ValueError) as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    try:
        result = run_corpus(
            specs,
            workers=args.workers,
            max_markings=args.max_markings,
            max_nodes=args.max_nodes,
            engine=args.engine,
            analyse=args.analyse,
            memory_budget=args.memory_budget,
            spill_dir=args.spill_dir,
        )
    except ValueError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    summary = corpus_to_json_dict(result)
    # the CLI never emits a document it would refuse to validate
    validate_corpus_document(summary)
    if args.json:
        import json

        Path(args.json).write_text(
            json.dumps(summary, indent=2, sort_keys=False) + "\n", encoding="utf-8"
        )
    if args.csv:
        corpus_to_csv(result, args.csv)
    print(render_corpus_summary(summary["summary"]))
    print(
        f"analysed {len(result.records)} nets with {result.workers} worker(s) "
        f"in {result.elapsed_seconds:.2f}s "
        f"({args.engine} engine, {args.analyse} mode)"
    )
    if result.errors:
        for record in result.errors:
            print(
                f"error: {record.family} seed={record.seed}: {record.error}",
                file=sys.stderr,
            )
        return 1
    return 0


def _add_engine_flag(
    parser: argparse.ArgumentParser, engines: tuple = ENGINES
) -> None:
    if ENGINE_NATIVE in engines:
        help_text = (
            "execution core: the integer-indexed compiled engine "
            "(default), the legacy dict-based token game, or the "
            "synthesized C compiled to a shared library (falls back "
            "to compiled with a warning when no C compiler exists)"
        )
    else:
        help_text = (
            "execution core: the integer-indexed compiled engine "
            "(default) or the legacy dict-based token game"
        )
    parser.add_argument(
        "--engine",
        choices=engines,
        default=ENGINE_COMPILED,
        help=help_text,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-qss",
        description="Quasi-static scheduling and software synthesis from FCPNs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="structural summary of a net")
    p_info.add_argument("net", help="net description (JSON)")
    p_info.set_defaults(func=cmd_info)

    p_analyse = sub.add_parser("analyse", help="check quasi-static schedulability")
    p_analyse.add_argument("net")
    p_analyse.add_argument(
        "--show-schedule", action="store_true", help="print every finite complete cycle"
    )
    p_analyse.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop at the first unschedulable T-reduction "
        "(the report shows the partial verdicts)",
    )
    _add_engine_flag(p_analyse)
    p_analyse.set_defaults(func=cmd_analyse)

    p_synth = sub.add_parser("synthesize", help="generate the C implementation")
    p_synth.add_argument("net")
    p_synth.add_argument("-o", "--output", help="write the C source to this file")
    p_synth.add_argument(
        "--standalone-loop",
        action="store_true",
        help="wrap each task in while(1) (the paper's listing style)",
    )
    p_synth.add_argument(
        "--driver",
        action="store_true",
        help="append the generated native driver (the self-contained "
        "translation unit the native execution tier compiles)",
    )
    _add_engine_flag(p_synth)
    p_synth.set_defaults(func=cmd_synthesize)

    p_dot = sub.add_parser("dot", help="export the net as Graphviz DOT")
    p_dot.add_argument("net")
    p_dot.add_argument("-o", "--output")
    p_dot.add_argument("--title")
    p_dot.set_defaults(func=cmd_dot)

    p_gallery = sub.add_parser("gallery", help="dump one of the paper's figure nets")
    p_gallery.add_argument("figure", help="figure id (or 'list')")
    p_gallery.add_argument("-o", "--output", help="write JSON to this file")
    p_gallery.add_argument(
        "--analyse",
        action="store_true",
        help="run the QSS analysis on the figure instead of dumping it",
    )
    _add_engine_flag(p_gallery)
    p_gallery.set_defaults(func=cmd_gallery)

    p_corpus = sub.add_parser(
        "corpus",
        help="generate a corpus of nets and stress-analyse it in parallel",
    )
    p_corpus.add_argument(
        "--n", type=int, default=50, help="number of nets to generate (default 50)"
    )
    p_corpus.add_argument("--seed", type=int, default=0, help="corpus seed")
    p_corpus.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process pool size; 1 runs sequentially in-process",
    )
    p_corpus.add_argument(
        "--families",
        help="comma-separated family subset (default: all; see --list-families)",
    )
    p_corpus.add_argument(
        "--list-families",
        action="store_true",
        help="print the registered generator families and exit",
    )
    p_corpus.add_argument(
        "--analyse",
        choices=CORPUS_ANALYSES,
        default="properties",
        help="analysis per net: the full property pipeline (default), "
        "the QSS schedulability sweep (verdict, allocation/reduction "
        "counts, cycle lengths), or the runtime throughput sweep "
        "(fleet execution: events served, cycle percentiles, events/s)",
    )
    p_corpus.add_argument("--json", help="write the JSON summary to this file")
    p_corpus.add_argument("--csv", help="write one CSV row per net to this file")
    p_corpus.add_argument(
        "--validate-json",
        metavar="FILE",
        help="validate FILE against the repro-qss.corpus/3 schema (exact "
        "field sets, per-field types, cross-field invariants) and exit: "
        "0 valid, 1 schema violation (the offending path is printed), "
        "2 unreadable file",
    )
    p_corpus.add_argument(
        "--max-markings",
        type=int,
        default=2_000,
        help="reachability cap per net for deadlock/liveness checks",
    )
    p_corpus.add_argument(
        "--max-nodes",
        type=int,
        default=2_500,
        help="Karp-Miller node cap per net for the coverability check",
    )
    p_corpus.add_argument(
        "--memory-budget",
        help="out-of-core RAM budget per net, compiled engine only "
        "(bytes, or a suffixed size like 64MB/2GiB); exploration spills "
        "visited-set shards and marking logs to disk past the budget",
    )
    p_corpus.add_argument(
        "--spill-dir",
        help="directory for out-of-core spill files: each exploration "
        "writes a fresh explore-* subdirectory, kept after the run "
        "(default: a private temp directory per exploration, removed as "
        "it ends); alone, without --memory-budget, it still spills",
    )
    _add_engine_flag(p_corpus)
    p_corpus.set_defaults(func=cmd_corpus)

    p_serve = sub.add_parser(
        "serve",
        help="execute a fleet of net instances: one-shot batch run or the "
        "always-on service",
    )
    p_serve.add_argument(
        "--instances",
        type=int,
        default=100,
        help="number of concurrent server instances (default 100)",
    )
    p_serve.add_argument(
        "--events",
        type=int,
        default=50,
        help="events per instance; for the ATM family the periodic Ticks "
        "ride along (default 50, the Table I testbench size)",
    )
    p_serve.add_argument("--seed", type=int, default=2026, help="fleet seed")
    p_serve.add_argument(
        "--family",
        default="atm",
        help="workload family: an application case study — 'atm' (the "
        "Section 5 server, default), 'router' (packet line card, bursty "
        "traffic) or 'heating' (control plant, diurnal setpoints) — or "
        "any corpus generator family, optionally with NAME:key=value,... "
        "parameter overrides (see `repro-qss corpus --list-families`)",
    )
    p_serve.add_argument(
        "--arrival",
        choices=ARRIVAL_PROCESSES,
        default=None,
        help="arrival process of the per-instance event streams: "
        "exponential (memoryless), bursty (packet trains separated by "
        "idle gaps) or diurnal (sinusoidally rate-modulated); the "
        "default is the family's native process (atm and corpus "
        "families: exponential, router: bursty, heating: diurnal)",
    )
    p_serve.add_argument(
        "--timing",
        default="none",
        metavar="SPEC",
        help="timed firing delays, charged in integer ticks per firing "
        "and reported as per-instance delay percentiles: 'none' "
        "(untimed, default), 'fixed:N' (every transition costs N "
        "ticks) or 'uniform:LOW-HIGH' (per-transition costs drawn "
        "reproducibly from [LOW, HIGH] with the fleet seed)",
    )
    p_serve.add_argument(
        "--partition",
        choices=("modules", "single"),
        default=None,
        help="task partition: one task per functional module (the ATM "
        "default; pays inter-task queue traffic) or a single "
        "run-to-completion task (the only choice for corpus families)",
    )
    p_serve.add_argument(
        "--inbox-limit",
        type=int,
        default=None,
        metavar="N",
        help="bounded shard-inbox capacity in messages (default 1024); "
        "producers suspend while the shard's inbox is full — this is the "
        "service's backpressure knob (smaller = tighter latency bound, "
        "larger = more burst absorption)",
    )
    p_serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve events from a line-delimited-JSON socket instead of "
        "generated streams (implies service mode; port 0 picks a free port)",
    )
    p_serve.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --listen: drain and stop after this many seconds "
        "(otherwise the service runs until a client sends shutdown)",
    )
    p_serve.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="append versioned JSON-lines telemetry (one record per "
        "sampling tick: throughput, queue depth, budget stops, cycle "
        "percentiles) to FILE while the service runs (implies service mode)",
    )
    p_serve.add_argument(
        "--telemetry-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --telemetry: sampling period, a positive number of "
        "seconds (default 0.5s)",
    )
    _add_engine_flag(p_serve)
    p_serve.set_defaults(func=cmd_serve, serve_parser=p_serve)

    p_table1 = sub.add_parser("atm-table1", help="reproduce Table I on the ATM server")
    p_table1.add_argument("--cells", type=int, default=50)
    p_table1.add_argument("--seed", type=int, default=2026)
    _add_engine_flag(p_table1, EXEC_ENGINES)
    p_table1.set_defaults(func=cmd_atm_table1)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
