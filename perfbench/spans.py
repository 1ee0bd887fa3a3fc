"""Span tracing for the benchmark's traced run.

The tracer wraps each layer's entry points from outside the program:
:meth:`Tracer.install` replaces the targets listed in :data:`TARGETS`
with timing wrappers and :meth:`Tracer.uninstall` puts the original
objects back.  Every call becomes one span ``(name, start, end, parent,
busy, wait, items)`` kept in memory and written out by
:meth:`Tracer.write` when the run ends.

The parent of a span is the span active in the same asyncio task when
it started (a :class:`contextvars.ContextVar`, so interleaved tasks on
one event loop never adopt each other's spans).  A synchronous span is
busy for its whole duration.  An ``async`` target is driven step by step
like a task drives a coroutine: time inside a step is busy, time
suspended between steps is wait.  A layer's self time is its spans'
busy time minus the busy time of their children; self wait likewise.

A target that no longer exists (a renamed method, a private helper that
went away) is recorded in :attr:`Tracer.missing` instead of failing.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import time
import types
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ItemsOf = Callable[[tuple, dict, Any], int]


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def _len_result(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _len_arg(position: int) -> ItemsOf:
    def items(args: tuple, kwargs: dict, result: Any) -> int:
        return len(args[position])

    return items


def _message_events(args: tuple, kwargs: dict, result: Any) -> int:
    message = args[1]
    events = getattr(message, "events", None)
    if events is not None:
        return len(events)
    return len(message) if hasattr(message, "__len__") else 1


#: ``(layer, "module:qualified.attribute", items of one call)``.  The
#: workloads call every plain function through its module attribute, so
#: replacing the attribute here is seen by the benchmark's own calls.
TARGETS: Tuple[Tuple[str, str, ItemsOf], ...] = (
    # instances generated (stream generators) or converted (injects)
    ("fleet.gen", "repro.apps.atm.workload:make_fleet_testbench", _len_result),
    ("fleet.gen", "repro.runtime.fleet:synthetic_streams", _len_result),
    ("fleet.gen", "repro.service.ingest:events_to_injects", _len_arg(0)),
    # wire characters, both directions of the one connection
    ("service.encode", "repro.service.ingest:encode_message", _len_result),
    ("service.decode", "repro.service.ingest:decode_message", _len_arg(0)),
    ("service.pack", "repro.service.supervisor:FleetSupervisor.pack", _len_arg(1)),
    ("service.route", "repro.service.supervisor:FleetSupervisor.inject", _message_events),
    ("service.inbox", "repro.service.shard:ShardActor.put", _one),
    ("service.serve", "repro.service.shard:ShardCore.serve_packed", _len_arg(1)),
    ("service.snapshot", "repro.service.shard:ShardCore.stats", _one),
    (
        "service.merge",
        "repro.service.supervisor:FleetSupervisor.stop",
        lambda args, kwargs, result: result.instances,
    ),
    (
        "fleet.run",
        "repro.runtime.fleet:FleetSimulator.run",
        lambda args, kwargs, result: result.stats.events_processed,
    ),
    ("fleet.intern", "repro.runtime.fleet:FleetEngine.prepare_events", _len_arg(1)),
    ("fleet.dispatch", "repro.runtime.fleet:FleetEngine.dispatch_ids", _len_arg(2)),
    ("fleet.cascade", "repro.runtime.fleet:FleetEngine._compute_cascade", _one),
    (
        "qss.analyse",
        "repro.qss.scheduler:analyse",
        lambda args, kwargs, result: result.reduction_count,
    ),
    ("qss.check", "repro.qss.scheduler:check_compiled_reduction", _one),
    (
        "qss.partition",
        "repro.codegen.generator:partition_tasks",
        lambda args, kwargs, result: result.task_count,
    ),
    (
        "codegen.generate",
        "repro.codegen.generator:generate_program",
        lambda args, kwargs, result: len(result.tasks),
    ),
    (
        "codegen.emit",
        "repro.codegen.emit_c:emit_c",
        lambda args, kwargs, result: result.lines_of_code,
    ),
)

#: Layer names in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: Layers whose targets are coroutines: they also report ``wait_s``.
ASYNC_LAYERS = ("service.route", "service.inbox", "service.merge")

#: Layers that run only during set-up, so they have no window share.
SETUP_LAYERS = ("fleet.gen",)

# span record fields (a list per span, filled in as the call ends)
NAME, START, END, PARENT, BUSY, WAIT, ITEMS = range(7)
SPAN_FIELDS = ("name", "start", "end", "parent", "busy", "wait", "items")

_CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_span", default=-1
)


def _resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualified = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attribute = qualified.split(".")
    for name in outer:
        owner = getattr(owner, name)
    getattr(owner, attribute)  # AttributeError when the target is gone
    return owner, attribute


def _items(items_of: ItemsOf, args: tuple, kwargs: dict, result: Any) -> int:
    try:
        return int(items_of(args, kwargs, result))
    except (AttributeError, IndexError, TypeError):
        # the target's signature or result type changed; the span
        # still counts, only its work count is unknown
        return 0


@types.coroutine
def _drive(coro, record: list, span_id: int):
    """Await ``coro`` step by step, charging steps to busy, gaps to wait."""
    clock = time.perf_counter
    token = _CURRENT.set(span_id)
    busy = wait = 0.0
    value: Any = None
    error: Optional[BaseException] = None
    try:
        while True:
            step = clock()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                busy += clock() - step
                return stop.value
            except BaseException:
                busy += clock() - step
                raise
            busy += clock() - step
            suspended = clock()
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as thrown:  # noqa: B902 - forwarded below
                # cancellation and other errors thrown into the awaiting
                # task go to the wrapped coroutine, which re-raises them
                value, error = None, thrown
            wait += clock() - suspended
    finally:
        record[END] = clock()
        record[BUSY] = busy
        record[WAIT] = wait
        try:
            _CURRENT.reset(token)
        except ValueError:
            # finalized outside its task (an abandoned coroutine)
            pass


class Tracer:
    """Installs the span wrappers and aggregates what they record."""

    def __init__(self, targets: Sequence[Tuple[str, str, ItemsOf]] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        missing = []
        for layer, path, items_of in self.targets:
            try:
                owner, attribute = _resolve(path)
            except (ImportError, AttributeError):
                missing.append(path)
                continue
            own = attribute in vars(owner)
            original = vars(owner)[attribute] if own else getattr(owner, attribute)
            wrapper = self._wrap(layer, getattr(owner, attribute), items_of)
            setattr(owner, attribute, wrapper)
            self._saved.append((owner, attribute, original, own))
        self.missing = missing

    def uninstall(self) -> None:
        for owner, attribute, original, own in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def _wrap(self, layer: str, fn: Callable, items_of: ItemsOf) -> Callable:
        spans = self.spans
        clock = time.perf_counter
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id = len(spans)
                record = [layer, clock(), 0.0, _CURRENT.get(), 0.0, 0.0, 0]
                spans.append(record)
                result = await _drive(fn(*args, **kwargs), record, span_id)
                record[ITEMS] = _items(items_of, args, kwargs, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            record = [layer, 0.0, 0.0, _CURRENT.get(), 0.0, 0.0, 0]
            spans.append(record)
            token = _CURRENT.set(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _CURRENT.reset(token)
                record[START] = start
                record[END] = end
                record[BUSY] = end - start
            record[ITEMS] = _items(items_of, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Aggregation and output
    # ------------------------------------------------------------------
    def layer_totals(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """Per-layer self busy/wait, calls and items of spans ``first..``."""
        spans = self.spans
        child_busy = [0.0] * len(spans)
        child_wait = [0.0] * len(spans)
        for record in spans:
            parent = record[PARENT]
            if parent >= 0:
                child_busy[parent] += record[BUSY]
                child_wait[parent] += record[WAIT]
        totals = {
            layer: {"busy_s": 0.0, "wait_s": 0.0, "calls": 0, "items": 0}
            for layer in LAYERS
        }
        for index in range(first, len(spans)):
            record = spans[index]
            entry = totals.setdefault(
                record[NAME], {"busy_s": 0.0, "wait_s": 0.0, "calls": 0, "items": 0}
            )
            entry["busy_s"] += record[BUSY] - child_busy[index]
            entry["wait_s"] += record[WAIT] - child_wait[index]
            entry["calls"] += 1
            entry["items"] += record[ITEMS]
        return totals

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        document = dict(meta)
        document["fields"] = list(SPAN_FIELDS)
        document["missing"] = list(self.missing)
        document["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
