"""Scenario corpus: generate net populations and stress-analyse them in parallel.

Every PR to this codebase faces the same question — "does the change
still hold on weird nets?".  This module turns that question into one
command: it draws a reproducible corpus of nets across all generator
families (plus the paper's figure gallery), runs the full property
pipeline on each — net class, boundedness via Karp–Miller coverability,
deadlocks, liveness, place bounds and QSS schedulability, all on the
compiled engine — and aggregates the verdicts into a JSON/CSV summary.

The pipeline is embarrassingly parallel, so :func:`run_corpus` fans the
specs out over a :mod:`multiprocessing` pool; each worker regenerates
its nets from the compact :class:`NetSpec` (cheaper and more robust than
pickling nets) and keeps a per-process cache of compiled views so every
property check of a net shares one :class:`CompiledNet`.

Three analysis modes are offered (the ``analyse`` argument / CLI flag):

* ``"properties"`` (default) — the full property pipeline: net class,
  boundedness via Karp–Miller coverability, deadlocks, liveness, place
  bounds and QSS schedulability.
* ``"qss"`` — the schedulability sweep: only the structural summary plus
  the full mask-based QSS analysis per free-choice net (schedulable
  verdict, T-allocation and T-reduction counts, finite-complete-cycle
  lengths), skipping the reachability/coverability passes so large
  sweeps stay cheap.
* ``"runtime"`` — the execution throughput sweep: drive a small fleet of
  instances of each net (:class:`~repro.runtime.fleet.FleetSimulator`,
  synthetic per-instance event streams on every source transition,
  uniform choice resolutions) and record the served events, cycle
  percentiles and events-per-second throughput.  Nets without source
  transitions cannot be event-driven and keep ``null`` fleet columns;
  a per-event firing budget (``on_budget="stop"``) keeps nets that
  never quiesce total.

JSON schema (``schema`` = ``repro-qss.corpus/3``)::

    {
      "schema": "repro-qss.corpus/3",
      "n": <number of records>,
      "workers": <pool size used>,
      "engine": "compiled" | "legacy",
      "analyse": "properties" | "qss",
      "elapsed_seconds": <wall-clock of the whole run>,
      "records": [
        {
          "family": str, "seed": int, "params": {str: int|bool|str},
          "net_name": str, "places": int, "transitions": int, "arcs": int,
          "net_class": str, "free_choice": bool | null,
          "bounded": bool | null,               # null: Karp-Miller truncated, no omega found
          "unbounded_places": [str],            # omega places are certain even when truncated
          "max_place_bound": int | null,        # null unless the construction completed
          "coverability_nodes": int,
          "coverability_complete": bool,        # false when the max_nodes cap was hit
          "reachable_markings": int | null,     # null when exploration hit the cap
          "exploration_complete": bool,
          "deadlocks": int | null, "deadlock_free": bool | null,
          "live": bool | null,                  # null when undecidable within the cap
          "schedulable": bool | null,           # null for non-free-choice nets
          "allocations": int | null,            # T-allocation count (product of choice out-degrees)
          "reductions": int | null,             # distinct T-reduction count
          "cycle_lengths": [int] | null,        # per-reduction finite-complete-cycle lengths
          "fleet_instances": int | null,        # runtime sweep: fleet size
          "fleet_events": int | null,           # events served across the fleet
          "fleet_cycles_total": int | null,     # simulated cycles across the fleet
          "fleet_cycles_p50": float | null,     # per-instance cycle percentiles
          "fleet_cycles_p95": float | null,
          "fleet_budget_stops": int | null,     # events stopped by the firing budget
          "fleet_throughput_eps": float | null, # served events per wall-clock second
          "error": str | null,                  # analysis exception, if any
          "elapsed_ms": float
        }, ...
      ],
      "summary": <aggregates from repro.analysis.corpus_stats.summarize_corpus>
    }

In ``"qss"`` mode the coverability/reachability fields keep their
defaults (``null`` / 0 / false); in ``"properties"`` mode every field
except the ``fleet_*`` columns is filled, including the QSS sweep
columns (the report is computed anyway); in ``"runtime"`` mode only the
structural summary and the ``fleet_*`` columns are filled.  Note that
``fleet_throughput_eps`` is a wall-clock measurement and therefore the
one record field that is not bit-reproducible across runs.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .compiled import (
    ENGINE_COMPILED,
    ENGINE_LEGACY,
    CompiledNet,
    compile_net,
    validate_engine,
)
from .generators import (
    choice_fan_net,
    fork_join_pipeline,
    independent_choices_net,
    multirate_choice_net,
    nested_choices_net,
    pipeline_net,
    producer_consumer_ring,
    random_free_choice_net,
    random_marked_graph,
    unbalanced_choice_net,
    unschedulable_merge_net,
)
from .net import PetriNet
from .reachability import (
    _validate_outofcore_args,
    build_reachability_graph,
    coverability_analysis,
    live_verdict,
)

#: Version tag of the JSON summary documented in the module docstring.
#: Bumped to /2 when the schedulability sweep columns (``allocations``,
#: ``cycle_lengths``) and the top-level ``analyse`` mode were added, and
#: to /3 when the runtime sweep (``fleet_*`` columns) landed.
CORPUS_SCHEMA = "repro-qss.corpus/3"

#: The analysis modes accepted by :func:`analyse_spec` / :func:`run_corpus`.
CORPUS_ANALYSES = ("properties", "qss", "runtime")

#: Fleet shape of the ``"runtime"`` sweep: instances per net, events per
#: instance, and the per-event firing budget that keeps never-quiescing
#: nets total (their events are cut off and counted in
#: ``fleet_budget_stops`` instead of erroring the record).
FLEET_SWEEP_INSTANCES = 16
FLEET_SWEEP_EVENTS = 20
FLEET_SWEEP_BUDGET = 256


def validate_corpus_analyse(analyse: str) -> str:
    """Validate an ``analyse=`` mode argument, returning it unchanged."""
    if analyse not in CORPUS_ANALYSES:
        raise ValueError(
            f"unknown corpus analysis mode {analyse!r}; expected one of "
            f"{', '.join(CORPUS_ANALYSES)}"
        )
    return analyse


# ----------------------------------------------------------------------
# Specs and the family registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetSpec:
    """A compact, picklable recipe for one corpus net.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so specs are
    hashable (they key the per-worker compiled-net cache) and serialize
    to a stable JSON object.
    """

    family: str
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def build(self) -> PetriNet:
        """Regenerate the net this spec describes."""
        if self.family not in CORPUS_FAMILIES:
            raise KeyError(f"unknown corpus family {self.family!r}")
        return CORPUS_FAMILIES[self.family].build(self.seed, self.param_dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"family": self.family, "seed": self.seed, "params": self.param_dict}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetSpec":
        return cls(
            family=data["family"],
            seed=int(data["seed"]),
            params=tuple(sorted(dict(data.get("params", {})).items())),
        )


@dataclass(frozen=True)
class CorpusFamily:
    """One generator family: randomized parameters plus a builder."""

    name: str
    draw_params: Callable[[random.Random], Dict[str, Any]]
    build: Callable[[int, Dict[str, Any]], PetriNet]

    def spec(self, seed: int) -> NetSpec:
        # string seed: hashed with sha512 by random.seed, so the stream is
        # stable across processes (tuple seeds would go through the
        # PYTHONHASHSEED-salted hash() and break reproducibility)
        rng = random.Random(f"{self.name}:{seed}")
        return NetSpec(
            family=self.name,
            seed=seed,
            params=tuple(sorted(self.draw_params(rng).items())),
        )


def _gallery_figure_ids() -> List[str]:
    from ..gallery import paper_figures  # local import: gallery imports petrinet

    return sorted(paper_figures())


def _build_gallery(seed: int, params: Dict[str, Any]) -> PetriNet:
    from ..gallery import paper_figures

    return paper_figures()[params["figure"]]()


def _build_router(seed: int, params: Dict[str, Any]) -> PetriNet:
    from ..apps.router import build_router_net  # local import: apps imports petrinet

    return build_router_net()


def _build_heating(seed: int, params: Dict[str, Any]) -> PetriNet:
    from ..apps.heating import build_heating_net  # local import: apps imports petrinet

    return build_heating_net()


def _draw_pipeline_params(rng: random.Random) -> Dict[str, Any]:
    stages = rng.randint(2, 5)
    rates = "-".join(str(rng.randint(1, 3)) for _ in range(stages))
    return {"stages": stages, "rates": rates}


def _registry() -> Dict[str, CorpusFamily]:
    families = [
        CorpusFamily(
            "pipeline",
            _draw_pipeline_params,
            lambda seed, p: pipeline_net(
                p["stages"], rates=[int(r) for r in p["rates"].split("-")]
            ),
        ),
        CorpusFamily(
            "choice_fan",
            lambda rng: {"branches": rng.randint(2, 5)},
            lambda seed, p: choice_fan_net(p["branches"]),
        ),
        CorpusFamily(
            "independent_choices",
            lambda rng: {"choices": rng.randint(1, 3), "branches": rng.randint(2, 3)},
            lambda seed, p: independent_choices_net(p["choices"], p["branches"]),
        ),
        CorpusFamily(
            "nested_choices",
            lambda rng: {"depth": rng.randint(1, 4)},
            lambda seed, p: nested_choices_net(p["depth"]),
        ),
        CorpusFamily(
            "multirate_choice",
            lambda rng: {"rate_a": rng.randint(1, 3), "rate_b": rng.randint(1, 3)},
            lambda seed, p: multirate_choice_net(p["rate_a"], p["rate_b"]),
        ),
        CorpusFamily(
            "unschedulable_merge",
            lambda rng: {},
            lambda seed, p: unschedulable_merge_net(),
        ),
        CorpusFamily(
            "random_free_choice",
            lambda rng: {
                "n_choices": rng.randint(1, 3),
                "max_branch_length": rng.randint(1, 3),
                "max_weight": rng.randint(1, 3),
            },
            lambda seed, p: random_free_choice_net(
                seed,
                n_choices=p["n_choices"],
                max_branch_length=p["max_branch_length"],
                max_weight=p["max_weight"],
            ),
        ),
        CorpusFamily(
            "random_marked_graph",
            lambda rng: {
                "n_transitions": rng.randint(3, 7),
                "extra_places": rng.randint(0, 4),
            },
            lambda seed, p: random_marked_graph(
                seed,
                n_transitions=p["n_transitions"],
                extra_places=p["extra_places"],
            ),
        ),
        CorpusFamily(
            "producer_consumer_ring",
            lambda rng: {
                "stations": rng.randint(1, 4),
                "capacity": rng.randint(1, 3),
            },
            lambda seed, p: producer_consumer_ring(p["stations"], p["capacity"]),
        ),
        CorpusFamily(
            "fork_join_pipeline",
            lambda rng: {
                "branches": rng.randint(2, 4),
                "depth": rng.randint(1, 3),
                "closed": rng.random() < 0.5,
            },
            lambda seed, p: fork_join_pipeline(
                p["branches"], p["depth"], closed=p["closed"]
            ),
        ),
        CorpusFamily(
            "unbalanced_choice",
            lambda rng: {
                "branches": rng.randint(2, 3),
                "max_weight": 4,
                "merge": rng.random() < 0.25,
            },
            lambda seed, p: unbalanced_choice_net(
                seed,
                branches=p["branches"],
                max_weight=p["max_weight"],
                merge=p["merge"],
            ),
        ),
        CorpusFamily(
            "gallery",
            lambda rng: {"figure": rng.choice(_gallery_figure_ids())},
            _build_gallery,
        ),
        # The application case studies are fixed nets (no drawn
        # parameters): every spec of the family builds the same model,
        # which keeps them cheap and makes the corpus exercise the
        # realistic topologies alongside the synthetic generators.
        CorpusFamily("router", lambda rng: {}, _build_router),
        CorpusFamily("heating", lambda rng: {}, _build_heating),
    ]
    return {f.name: f for f in families}


#: All registered families, keyed by name.
CORPUS_FAMILIES: Dict[str, CorpusFamily] = _registry()


def generate_corpus(
    n: int, seed: int = 0, families: Optional[Sequence[str]] = None
) -> List[NetSpec]:
    """Draw ``n`` reproducible net specs across the requested families.

    The family of each corpus slot is drawn uniformly with a
    ``random.Random(seed)`` stream and the slot index becomes the spec
    seed, so ``generate_corpus(n, seed)`` is fully determined by its
    arguments (and a prefix-stable superset of ``generate_corpus(m, seed)``
    for ``m < n``).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    names = list(families) if families is not None else sorted(CORPUS_FAMILIES)
    unknown = [f for f in names if f not in CORPUS_FAMILIES]
    if unknown:
        raise KeyError(
            f"unknown corpus families: {', '.join(unknown)}; "
            f"available: {', '.join(sorted(CORPUS_FAMILIES))}"
        )
    rng = random.Random(seed)
    return [CORPUS_FAMILIES[rng.choice(names)].spec(i) for i in range(n)]


# ----------------------------------------------------------------------
# Per-net analysis
# ----------------------------------------------------------------------
#: Per-record field order, shared by the CSV writer and the docs.
RECORD_FIELDS = (
    "family",
    "seed",
    "params",
    "net_name",
    "places",
    "transitions",
    "arcs",
    "net_class",
    "free_choice",
    "bounded",
    "unbounded_places",
    "max_place_bound",
    "coverability_nodes",
    "coverability_complete",
    "reachable_markings",
    "exploration_complete",
    "deadlocks",
    "deadlock_free",
    "live",
    "schedulable",
    "allocations",
    "reductions",
    "cycle_lengths",
    "fleet_instances",
    "fleet_events",
    "fleet_cycles_total",
    "fleet_cycles_p50",
    "fleet_cycles_p95",
    "fleet_budget_stops",
    "fleet_throughput_eps",
    "error",
    "elapsed_ms",
)


@dataclass
class CorpusRecord:
    """The full property verdict for one corpus net (see module docstring)."""

    family: str
    seed: int
    params: Dict[str, Any]
    net_name: str = ""
    places: int = 0
    transitions: int = 0
    arcs: int = 0
    net_class: str = ""
    free_choice: Optional[bool] = None
    bounded: Optional[bool] = None
    unbounded_places: List[str] = field(default_factory=list)
    max_place_bound: Optional[int] = None
    coverability_nodes: int = 0
    coverability_complete: bool = False
    reachable_markings: Optional[int] = None
    exploration_complete: bool = False
    deadlocks: Optional[int] = None
    deadlock_free: Optional[bool] = None
    live: Optional[bool] = None
    schedulable: Optional[bool] = None
    allocations: Optional[int] = None
    reductions: Optional[int] = None
    cycle_lengths: Optional[List[int]] = None
    fleet_instances: Optional[int] = None
    fleet_events: Optional[int] = None
    fleet_cycles_total: Optional[int] = None
    fleet_cycles_p50: Optional[float] = None
    fleet_cycles_p95: Optional[float] = None
    fleet_budget_stops: Optional[int] = None
    fleet_throughput_eps: Optional[float] = None
    error: Optional[str] = None
    elapsed_ms: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in RECORD_FIELDS}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorpusRecord":
        return cls(**{name: data[name] for name in RECORD_FIELDS})


# Per-process caches: spec -> built net, spec -> compiled view.  They
# live at module level so pool workers reuse nets and compilations across
# the analyses of one net (and across repeated runs inside one
# interpreter, e.g. the benchmarks).  The compiled view is built lazily
# so the legacy engine never pays for matrices it will not use.
_NET_CACHE: Dict[NetSpec, PetriNet] = {}
_COMPILED_CACHE: Dict[NetSpec, CompiledNet] = {}
_CACHE_LIMIT = 512


def clear_compiled_cache() -> None:
    """Drop the per-process net and compiled-net caches.

    Benchmarks call this before timed runs so a warm cache from an
    earlier pass (inherited by forked pool workers) cannot bias a
    sequential-vs-parallel comparison.
    """
    _NET_CACHE.clear()
    _COMPILED_CACHE.clear()


def _cached_net(spec: NetSpec) -> PetriNet:
    net = _NET_CACHE.get(spec)
    if net is None:
        if len(_NET_CACHE) >= _CACHE_LIMIT:
            clear_compiled_cache()
        net = spec.build()
        _NET_CACHE[spec] = net
    return net


def _cached_compiled(spec: NetSpec) -> CompiledNet:
    compiled = _COMPILED_CACHE.get(spec)
    if compiled is None:
        compiled = compile_net(_cached_net(spec))
        _COMPILED_CACHE[spec] = compiled
    return compiled


def analyse_spec(
    spec: NetSpec,
    max_markings: int = 2_000,
    max_nodes: int = 2_500,
    engine: str = ENGINE_COMPILED,
    analyse: str = "properties",
    memory_budget: Optional[object] = None,
    spill_dir: Optional[str] = None,
) -> CorpusRecord:
    """Run the requested analysis pipeline on one spec.

    ``analyse="properties"`` (default) runs the full property pipeline;
    ``analyse="qss"`` runs only the structural summary plus the QSS
    schedulability sweep (verdict, allocation/reduction counts, cycle
    lengths), skipping the coverability/reachability passes;
    ``analyse="runtime"`` runs only the structural summary plus the
    fleet throughput sweep (:data:`FLEET_SWEEP_INSTANCES` instances x
    :data:`FLEET_SWEEP_EVENTS` synthetic events on the requested
    engine, per-event firing budget :data:`FLEET_SWEEP_BUDGET`).

    Caps keep every net affordable: coverability stops after
    ``max_nodes`` Karp–Miller nodes, reachability-based checks
    (deadlocks, liveness) after ``max_markings`` markings.  Verdicts that
    are not exact within the caps are reported as ``None`` rather than
    guessed.  Analysis exceptions are captured in ``error`` so one
    degenerate net cannot sink a whole corpus run.

    ``memory_budget`` / ``spill_dir`` (compiled engine only) keep the
    coverability and reachability passes' exploration storage on disk
    (:mod:`repro.petrinet.outofcore`), bounding RAM by spilling
    visited-set shards and marking logs.  They are
    validated before the per-net error capture, so a bad engine/budget
    combination or a malformed budget fails the call, not one record.
    """
    from ..qss import analyse as qss_analyse  # local import: qss imports petrinet
    from .exceptions import PetriNetError
    from .structure import classify, is_free_choice

    validate_engine(engine)
    validate_corpus_analyse(analyse)
    _validate_outofcore_args(engine, memory_budget, spill_dir)
    started = time.perf_counter()
    record = CorpusRecord(family=spec.family, seed=spec.seed, params=spec.param_dict)
    try:
        net = _cached_net(spec)
        record.net_name = net.name
        record.places = len(net.places)
        record.transitions = len(net.transitions)
        record.arcs = len(net.arcs)
        record.net_class = classify(net)
        record.free_choice = is_free_choice(net)

        if analyse == "properties":
            analysed: Any = (
                net if engine == ENGINE_LEGACY else _cached_compiled(spec)
            )
            coverability = coverability_analysis(
                analysed,
                max_nodes=max_nodes,
                engine=engine,
                memory_budget=memory_budget,
                spill_dir=spill_dir,
            )
            record.unbounded_places = list(coverability.unbounded_places)
            record.coverability_nodes = coverability.node_count
            record.coverability_complete = coverability.complete
            if coverability.unbounded_places:
                # omega places are unbounded regardless of the cap
                record.bounded = False
            elif coverability.complete:
                record.bounded = True
            # else: truncated run with no omega found — undecided (None)
            if coverability.complete:
                # only a finished construction yields exact finite bounds
                finite = [
                    bound
                    for place, bound in coverability.place_bounds.items()
                    if place not in coverability.unbounded_places
                ]
                record.max_place_bound = max(finite) if finite else None

            graph = build_reachability_graph(
                analysed,
                max_markings=max_markings,
                engine=engine,
                memory_budget=memory_budget,
                spill_dir=spill_dir,
            )
            record.exploration_complete = graph.complete
            if graph.complete:
                record.reachable_markings = graph.num_markings
                record.deadlocks = len(graph.deadlock_markings())
                record.deadlock_free = record.deadlocks == 0
                # the liveness verdict reuses the graph built above instead
                # of paying for a second exploration through is_live()
                record.live = live_verdict(graph, set(net.transition_names))
        if analyse == "runtime":
            _runtime_sweep(spec, record, engine)
        elif record.free_choice:
            report = qss_analyse(net, engine=engine)
            record.schedulable = report.schedulable
            record.allocations = report.allocation_count
            record.reductions = report.reduction_count
            record.cycle_lengths = [
                len(v.cycle) for v in report.verdicts if v.cycle is not None
            ]
    except (PetriNetError, RuntimeError, ValueError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    record.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return record


def _runtime_sweep(spec: NetSpec, record: CorpusRecord, engine: str) -> None:
    """Fill the ``fleet_*`` columns of ``record`` (runtime sweep mode).

    Nets without source transitions cannot be driven by events and keep
    their ``None`` fleet columns.
    """
    from ..runtime import FleetSimulator, ModuleAssignment, synthetic_streams

    net = _cached_net(spec)
    if not net.source_transitions():
        return
    streams = synthetic_streams(
        net, FLEET_SWEEP_INSTANCES, FLEET_SWEEP_EVENTS, seed=spec.seed
    )
    target: Any = net if engine == ENGINE_LEGACY else _cached_compiled(spec)
    fleet = FleetSimulator(
        target,
        ModuleAssignment.single_task(net),
        max_firings_per_event=FLEET_SWEEP_BUDGET,
        engine=engine,
        on_budget="stop",
    )
    result = fleet.run(streams)
    record.fleet_instances = result.instances
    record.fleet_events = int(result.stats.events_processed)
    record.fleet_cycles_total = int(result.stats.total_cycles)
    record.fleet_cycles_p50 = result.percentile(50)
    record.fleet_cycles_p95 = result.percentile(95)
    record.fleet_budget_stops = int(result.stats.budget_stops)
    record.fleet_throughput_eps = round(result.throughput_eps, 1)


def _analyse_one(
    args: Tuple[NetSpec, int, int, str, str, Optional[object], Optional[str]]
) -> CorpusRecord:  # pragma: no cover - trivial pool shim
    spec, max_markings, max_nodes, engine, analyse, memory_budget, spill_dir = args
    return analyse_spec(
        spec,
        max_markings=max_markings,
        max_nodes=max_nodes,
        engine=engine,
        analyse=analyse,
        memory_budget=memory_budget,
        spill_dir=spill_dir,
    )


# ----------------------------------------------------------------------
# The parallel pipeline
# ----------------------------------------------------------------------
@dataclass
class CorpusResult:
    """Outcome of a corpus run: one record per spec, in spec order."""

    records: List[CorpusRecord]
    workers: int
    engine: str
    elapsed_seconds: float
    analyse: str = "properties"

    def __len__(self) -> int:
        return len(self.records)

    @property
    def errors(self) -> List[CorpusRecord]:
        return [r for r in self.records if r.error is not None]


def run_corpus(
    specs: Sequence[NetSpec],
    workers: int = 1,
    max_markings: int = 2_000,
    max_nodes: int = 2_500,
    engine: str = ENGINE_COMPILED,
    analyse: str = "properties",
    memory_budget: Optional[object] = None,
    spill_dir: Optional[str] = None,
) -> CorpusResult:
    """Analyse every spec, fanning out over a process pool when ``workers > 1``.

    ``workers <= 1`` runs sequentially in-process (no pool overhead) —
    the baseline the parallel path is benchmarked against.  Results come
    back in spec order either way.  ``analyse`` selects the pipeline per
    net: the full property pipeline (``"properties"``, default) or the
    QSS schedulability sweep (``"qss"``).  ``engine`` is ``compiled``
    or ``legacy``.  ``memory_budget`` / ``spill_dir`` (compiled only)
    bound exploration RAM per net by spilling to disk; every
    exploration spills into a fresh directory of its own (a private
    temp directory, or a new subdirectory of ``spill_dir``), so workers
    sharing a ``spill_dir`` never touch each other's files.  Invalid arguments raise ``ValueError`` before any net is
    analysed.
    """
    validate_engine(engine)
    validate_corpus_analyse(analyse)
    _validate_outofcore_args(engine, memory_budget, spill_dir)
    started = time.perf_counter()
    if workers <= 1 or len(specs) <= 1:
        records = [
            analyse_spec(
                spec,
                max_markings=max_markings,
                max_nodes=max_nodes,
                engine=engine,
                analyse=analyse,
                memory_budget=memory_budget,
                spill_dir=spill_dir,
            )
            for spec in specs
        ]
        effective_workers = 1
    else:
        import multiprocessing

        effective_workers = min(workers, len(specs))
        payload = [
            (spec, max_markings, max_nodes, engine, analyse, memory_budget, spill_dir)
            for spec in specs
        ]
        chunksize = max(1, len(specs) // (effective_workers * 4))
        with multiprocessing.Pool(effective_workers) as pool:
            records = pool.map(_analyse_one, payload, chunksize=chunksize)
    return CorpusResult(
        records=records,
        workers=effective_workers,
        engine=engine,
        elapsed_seconds=time.perf_counter() - started,
        analyse=analyse,
    )


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def corpus_to_json_dict(result: CorpusResult) -> Dict[str, Any]:
    """The JSON-ready summary documented in the module docstring."""
    from ..analysis.corpus_stats import summarize_corpus

    records = [record.to_dict() for record in result.records]
    return {
        "schema": CORPUS_SCHEMA,
        "n": len(records),
        "workers": result.workers,
        "engine": result.engine,
        "analyse": result.analyse,
        "elapsed_seconds": result.elapsed_seconds,
        "records": records,
        "summary": summarize_corpus(records),
    }


def corpus_from_json_dict(data: Mapping[str, Any]) -> CorpusResult:
    """Rebuild a :class:`CorpusResult` from its JSON summary.

    ``corpus_to_json_dict(corpus_from_json_dict(d)) == d`` for any
    dictionary produced by :func:`corpus_to_json_dict` — the round-trip
    contract the CLI tests pin down.
    """
    if data.get("schema") != CORPUS_SCHEMA:
        raise ValueError(
            f"unsupported corpus schema {data.get('schema')!r}; "
            f"expected {CORPUS_SCHEMA!r}"
        )
    return CorpusResult(
        records=[CorpusRecord.from_dict(r) for r in data["records"]],
        workers=int(data["workers"]),
        engine=data["engine"],
        elapsed_seconds=float(data["elapsed_seconds"]),
        analyse=data.get("analyse", "properties"),
    )


def corpus_to_csv(result: CorpusResult, path: str) -> None:
    """Write one CSV row per record; list/dict fields are JSON-encoded."""
    import json

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=RECORD_FIELDS)
        writer.writeheader()
        for record in result.records:
            row = record.to_dict()
            row["params"] = json.dumps(row["params"], sort_keys=True)
            row["unbounded_places"] = json.dumps(row["unbounded_places"])
            if row["cycle_lengths"] is not None:
                row["cycle_lengths"] = json.dumps(row["cycle_lengths"])
            writer.writerow(row)
