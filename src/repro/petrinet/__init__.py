"""Petri net substrate: data model, structure theory, invariants and analysis.

This package provides everything the QSS algorithm (and the rest of the
library) needs from Petri net theory:

* :class:`~repro.petrinet.net.PetriNet`, :class:`~repro.petrinet.net.Place`,
  :class:`~repro.petrinet.net.Transition` — the weighted place/transition
  net model with an initial :class:`~repro.petrinet.marking.Marking`.
* :class:`~repro.petrinet.builder.NetBuilder` — fluent model construction.
* :mod:`~repro.petrinet.structure` — net-class predicates (marked graph,
  conflict-free, free-choice).
* :mod:`~repro.petrinet.incidence` / :mod:`~repro.petrinet.invariants` —
  incidence matrices and minimal T-invariants.
* :mod:`~repro.petrinet.simulation` — token game, finite complete cycles.
* :mod:`~repro.petrinet.reachability` — reachability, boundedness
  (Karp–Miller), deadlock and liveness.
* :mod:`~repro.petrinet.frontier` — the frontier-batched state-space
  exploration the compiled engine runs for those queries: one level
  loop, in RAM or, under ``memory_budget=``/``spill_dir=``, on disk.
* :mod:`~repro.petrinet.outofcore` — that loop's spill-to-disk storage
  (marking/edge logs, the spilling visited store, budget parsing).
* :mod:`~repro.petrinet.generators` — parameterized net families.
"""

from .builder import NetBuilder
from .compiled import (
    ENGINE_COMPILED,
    ENGINE_LEGACY,
    ENGINE_NATIVE,
    ENGINES,
    EXEC_ENGINES,
    OMEGA,
    CompiledNet,
    compile_net,
    validate_engine,
)
from .corpus import (
    CORPUS_ANALYSES,
    CORPUS_FAMILIES,
    CORPUS_SCHEMA,
    CorpusFamily,
    CorpusRecord,
    CorpusResult,
    NetSpec,
    analyse_spec,
    corpus_from_json_dict,
    corpus_to_csv,
    corpus_to_json_dict,
    generate_corpus,
    run_corpus,
    validate_corpus_analyse,
)
from .corpus_schema import (
    DOCUMENT_FIELDS,
    CorpusSchemaError,
    canonicalize_corpus_document,
    validate_corpus_document,
    validate_corpus_file,
    validate_corpus_record,
)
from .exceptions import (
    DuplicateNodeError,
    InvalidArcError,
    InvalidMarkingError,
    NotEnabledError,
    NotFreeChoiceError,
    NotSchedulableError,
    PetriNetError,
    SerializationError,
    UnknownNodeError,
)
from .incidence import (
    IncidenceMatrices,
    incidence_matrices,
)
from .invariants import (
    combine_invariants,
    fast_minimal_semiflows,
    t_invariants,
)
from .frontier import FrontierExploration, explore_frontier
from .marking import Marking
from .outofcore import SpillStats, VisitedStore, parse_memory_budget
from .net import Arc, PetriNet, Place, Transition
from .reachability import (
    CoverabilityResult,
    ReachabilityGraph,
    build_reachability_graph,
    coverability_analysis,
    find_deadlocks,
    is_bounded,
    is_k_bounded,
    is_live,
    is_reachable,
    is_safe,
    live_verdict,
    place_bounds,
)
from .serialization import (
    load_net,
    net_from_dict,
    net_from_json,
    net_to_dict,
    net_to_json,
    save_net,
)
from .simulation import (
    CompiledSimulator,
    SimulationTrace,
    Simulator,
    find_finite_complete_cycle,
    find_firing_sequence,
    fire_sequence,
    is_finite_complete_cycle,
    make_adversarial_policy,
    make_random_policy,
    policy_first_enabled,
    search_firing_order,
)
from .structure import (
    classify,
    is_conflict_free,
    is_extended_free_choice,
    is_free_choice,
    is_marked_graph,
    is_ordinary,
)
from .dot import net_to_dot

__all__ = [
    # model
    "PetriNet",
    "Place",
    "Transition",
    "Arc",
    "Marking",
    "NetBuilder",
    # compiled engine
    "CompiledNet",
    "compile_net",
    "ENGINES",
    "EXEC_ENGINES",
    "ENGINE_COMPILED",
    "ENGINE_LEGACY",
    "ENGINE_NATIVE",
    "OMEGA",
    "validate_engine",
    # frontier exploration (the compiled state-space core)
    "FrontierExploration",
    "explore_frontier",
    # out-of-core budgeted exploration
    "SpillStats",
    "VisitedStore",
    "parse_memory_budget",
    # scenario corpus
    "CORPUS_ANALYSES",
    "CORPUS_FAMILIES",
    "CORPUS_SCHEMA",
    "validate_corpus_analyse",
    "CorpusFamily",
    "CorpusRecord",
    "CorpusResult",
    "NetSpec",
    "analyse_spec",
    "generate_corpus",
    "run_corpus",
    "corpus_to_json_dict",
    "corpus_from_json_dict",
    "corpus_to_csv",
    # corpus schema validation
    "CorpusSchemaError",
    "DOCUMENT_FIELDS",
    "validate_corpus_document",
    "validate_corpus_record",
    "validate_corpus_file",
    "canonicalize_corpus_document",
    # exceptions
    "PetriNetError",
    "DuplicateNodeError",
    "UnknownNodeError",
    "InvalidArcError",
    "NotEnabledError",
    "InvalidMarkingError",
    "NotFreeChoiceError",
    "NotSchedulableError",
    "SerializationError",
    # structure
    "is_marked_graph",
    "is_conflict_free",
    "is_free_choice",
    "is_extended_free_choice",
    "is_ordinary",
    "classify",
    # incidence / invariants
    "IncidenceMatrices",
    "incidence_matrices",
    "t_invariants",
    "fast_minimal_semiflows",
    "combine_invariants",
    # simulation
    "Simulator",
    "CompiledSimulator",
    "SimulationTrace",
    "fire_sequence",
    "is_finite_complete_cycle",
    "find_firing_sequence",
    "find_finite_complete_cycle",
    "search_firing_order",
    "policy_first_enabled",
    "make_random_policy",
    "make_adversarial_policy",
    # reachability
    "ReachabilityGraph",
    "build_reachability_graph",
    "CoverabilityResult",
    "coverability_analysis",
    "is_reachable",
    "is_bounded",
    "is_k_bounded",
    "is_safe",
    "find_deadlocks",
    "is_live",
    "live_verdict",
    "place_bounds",
    # serialization / export
    "net_to_dict",
    "net_from_dict",
    "net_to_json",
    "net_from_json",
    "save_net",
    "load_net",
    "net_to_dot",
]
