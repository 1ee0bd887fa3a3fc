"""Strict schema validation for ``repro-qss.corpus/3`` documents.

The corpus JSON summary (:mod:`repro.petrinet.corpus`) is the artifact
other tooling consumes — CI trend jobs, the golden-corpus tests, ad-hoc
notebooks — so a silently malformed document is worse than a loud one.
This module is the single authority on what a well-formed document looks
like: exact top-level keys, the exact per-record field set of
:data:`~repro.petrinet.corpus.RECORD_FIELDS`, and per-field types that
match the module docstring of :mod:`repro.petrinet.corpus` (including
the nullable columns).  No third-party JSON-schema engine is involved;
the checks are hand-rolled so the error messages can carry the precise
path and expectation::

    records[3].bounded: expected bool or null, got 'yes' (str)

Validation is *strict*: unknown keys are rejected at both the document
and the record level, because an unexpected key is how schema drift
first shows up.

:func:`canonicalize_corpus_document` produces the deterministic form of
a document used by the committed golden corpora under ``tests/golden/``:
wall-clock measurements are zeroed, the worker count is pinned and the
``summary`` block is recomputed from the canonical records, so two runs
of the same corpus on different machines canonicalize to byte-identical
JSON.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

from .corpus import CORPUS_ANALYSES, CORPUS_SCHEMA, RECORD_FIELDS
from .compiled import ENGINES


class CorpusSchemaError(ValueError):
    """A corpus document violated the ``repro-qss.corpus/3`` schema.

    ``path`` locates the offending value (e.g. ``records[3].bounded``)
    and is always the prefix of ``str(error)``.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


def _type_name(value: Any) -> str:
    if value is None:
        return "null"
    return type(value).__name__


def _fail(path: str, expected: str, value: Any) -> None:
    raise CorpusSchemaError(
        path, f"expected {expected}, got {value!r} ({_type_name(value)})"
    )


# A checker takes (value, path) and raises CorpusSchemaError on mismatch.
Checker = Callable[[Any, str], None]


def _is_int(value: Any) -> bool:
    # bool is a subclass of int; an int column holding True is a bug
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


def _str(value: Any, path: str) -> None:
    if not isinstance(value, str):
        _fail(path, "str", value)


def _int(value: Any, path: str) -> None:
    if not _is_int(value):
        _fail(path, "int", value)


def _bool(value: Any, path: str) -> None:
    if not isinstance(value, bool):
        _fail(path, "bool", value)


def _number(value: Any, path: str) -> None:
    if not _is_number(value):
        _fail(path, "number", value)


def _nullable(checker: Checker, expected: str) -> Checker:
    def check(value: Any, path: str) -> None:
        if value is None:
            return
        try:
            checker(value, path)
        except CorpusSchemaError:
            _fail(path, f"{expected} or null", value)

    return check


def _str_list(value: Any, path: str) -> None:
    if not isinstance(value, list):
        _fail(path, "list of str", value)
    for i, item in enumerate(value):
        if not isinstance(item, str):
            _fail(f"{path}[{i}]", "str", item)


def _int_list(value: Any, path: str) -> None:
    if not isinstance(value, list):
        _fail(path, "list of int", value)
    for i, item in enumerate(value):
        if not _is_int(item):
            _fail(f"{path}[{i}]", "int", item)


def _params(value: Any, path: str) -> None:
    if not isinstance(value, dict):
        _fail(path, "object of generator parameters", value)
    for key, item in value.items():
        if not isinstance(key, str):
            _fail(path, "object with str keys", key)
        if not (
            isinstance(item, (bool, str)) or _is_int(item)
        ):
            _fail(f"{path}.{key}", "int, bool or str", item)


#: checker and human-readable expectation per record field, in
#: :data:`RECORD_FIELDS` order.
_RECORD_CHECKERS: Dict[str, Checker] = {
    "family": _str,
    "seed": _int,
    "params": _params,
    "net_name": _str,
    "places": _int,
    "transitions": _int,
    "arcs": _int,
    "net_class": _str,
    "free_choice": _nullable(_bool, "bool"),
    "bounded": _nullable(_bool, "bool"),
    "unbounded_places": _str_list,
    "max_place_bound": _nullable(_int, "int"),
    "coverability_nodes": _int,
    "coverability_complete": _bool,
    "reachable_markings": _nullable(_int, "int"),
    "exploration_complete": _bool,
    "deadlocks": _nullable(_int, "int"),
    "deadlock_free": _nullable(_bool, "bool"),
    "live": _nullable(_bool, "bool"),
    "schedulable": _nullable(_bool, "bool"),
    "allocations": _nullable(_int, "int"),
    "reductions": _nullable(_int, "int"),
    "cycle_lengths": _nullable(_int_list, "list of int"),
    "fleet_instances": _nullable(_int, "int"),
    "fleet_events": _nullable(_int, "int"),
    "fleet_cycles_total": _nullable(_int, "int"),
    "fleet_cycles_p50": _nullable(_number, "number"),
    "fleet_cycles_p95": _nullable(_number, "number"),
    "fleet_budget_stops": _nullable(_int, "int"),
    "fleet_throughput_eps": _nullable(_number, "number"),
    "error": _nullable(_str, "str"),
    "elapsed_ms": _number,
}

assert set(_RECORD_CHECKERS) == set(RECORD_FIELDS), (
    "corpus_schema is out of sync with RECORD_FIELDS"
)

#: The exact top-level key set of a corpus document.
DOCUMENT_FIELDS: Tuple[str, ...] = (
    "schema",
    "n",
    "workers",
    "engine",
    "analyse",
    "elapsed_seconds",
    "records",
    "summary",
)


def validate_corpus_record(record: Any, path: str = "record") -> None:
    """Validate one record object; raise :class:`CorpusSchemaError`.

    The field set must match :data:`RECORD_FIELDS` exactly — missing
    fields and unknown keys are both rejected — and every value must
    satisfy its documented type (nullable columns accept ``None``).
    """
    if not isinstance(record, dict):
        _fail(path, "record object", record)
    missing = [name for name in RECORD_FIELDS if name not in record]
    if missing:
        raise CorpusSchemaError(
            path, f"missing field(s): {', '.join(missing)}"
        )
    unknown = sorted(set(record) - set(RECORD_FIELDS))
    if unknown:
        raise CorpusSchemaError(
            path,
            f"unknown field(s): {', '.join(unknown)} "
            "(the record schema is closed; see RECORD_FIELDS)",
        )
    for name in RECORD_FIELDS:
        _RECORD_CHECKERS[name](record[name], f"{path}.{name}")
    if record["places"] < 0 or record["transitions"] < 0 or record["arcs"] < 0:
        raise CorpusSchemaError(path, "net size fields must be non-negative")
    if record["elapsed_ms"] < 0:
        raise CorpusSchemaError(
            f"{path}.elapsed_ms", "must be non-negative"
        )


def validate_corpus_document(doc: Any) -> Mapping[str, Any]:
    """Validate a full corpus JSON document, returning it unchanged.

    Checks the schema tag, the exact top-level key set, every record via
    :func:`validate_corpus_record` and the cross-field invariant
    ``n == len(records)``.  Raises :class:`CorpusSchemaError` with the
    offending path on the first violation.
    """
    if not isinstance(doc, dict):
        _fail("document", "corpus document object", doc)
    if "schema" not in doc:
        raise CorpusSchemaError("document", "missing field(s): schema")
    if doc["schema"] != CORPUS_SCHEMA:
        raise CorpusSchemaError(
            "schema",
            f"expected {CORPUS_SCHEMA!r}, got {doc['schema']!r} "
            "(other schema versions are not supported by this validator)",
        )
    missing = [name for name in DOCUMENT_FIELDS if name not in doc]
    if missing:
        raise CorpusSchemaError(
            "document", f"missing field(s): {', '.join(missing)}"
        )
    unknown = sorted(set(doc) - set(DOCUMENT_FIELDS))
    if unknown:
        raise CorpusSchemaError(
            "document",
            f"unknown field(s): {', '.join(unknown)} "
            "(the document schema is closed; see DOCUMENT_FIELDS)",
        )
    if not _is_int(doc["n"]) or doc["n"] < 0:
        _fail("n", "non-negative int", doc["n"])
    if not _is_int(doc["workers"]) or doc["workers"] < 1:
        _fail("workers", "positive int", doc["workers"])
    if doc["engine"] not in ENGINES:
        _fail("engine", f"one of {', '.join(ENGINES)}", doc["engine"])
    if doc["analyse"] not in CORPUS_ANALYSES:
        _fail(
            "analyse", f"one of {', '.join(CORPUS_ANALYSES)}", doc["analyse"]
        )
    if not _is_number(doc["elapsed_seconds"]) or doc["elapsed_seconds"] < 0:
        _fail("elapsed_seconds", "non-negative number", doc["elapsed_seconds"])
    if not isinstance(doc["records"], list):
        _fail("records", "list of record objects", doc["records"])
    for i, record in enumerate(doc["records"]):
        validate_corpus_record(record, path=f"records[{i}]")
    if doc["n"] != len(doc["records"]):
        raise CorpusSchemaError(
            "n",
            f"expected len(records) == {len(doc['records'])}, got {doc['n']}",
        )
    if not isinstance(doc["summary"], dict):
        _fail("summary", "summary object", doc["summary"])
    total = doc["summary"].get("total")
    if total is not None and total != doc["n"]:
        raise CorpusSchemaError(
            "summary.total", f"expected n == {doc['n']}, got {total}"
        )
    return doc


def validate_corpus_file(path: str) -> Mapping[str, Any]:
    """Load ``path`` as JSON and validate it as a corpus document."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as error:
            raise CorpusSchemaError("document", f"not valid JSON: {error}")
    return validate_corpus_document(doc)


def canonicalize_corpus_document(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """The deterministic form of a corpus document, for golden comparison.

    Wall-clock measurements are machine noise and are zeroed
    (``elapsed_seconds``, per-record ``elapsed_ms``,
    ``fleet_throughput_eps`` — kept as ``0.0`` when the runtime sweep
    ran, so swept and unswept records stay distinguishable), and
    ``workers`` is pinned to 1 (the pool size does not change any
    verdict).  The ``summary`` block is recomputed from the canonical
    records so its timing aggregates are deterministic too.  Everything
    else — every verdict, count and parameter — is preserved verbatim,
    which is exactly what makes the committed goldens meaningful.
    """
    from ..analysis.corpus_stats import summarize_corpus

    validate_corpus_document(doc)
    records = []
    for record in doc["records"]:
        canonical = dict(record)
        canonical["elapsed_ms"] = 0.0
        if canonical["fleet_throughput_eps"] is not None:
            canonical["fleet_throughput_eps"] = 0.0
        records.append(canonical)
    return {
        "schema": doc["schema"],
        "n": doc["n"],
        "workers": 1,
        "engine": doc["engine"],
        "analyse": doc["analyse"],
        "elapsed_seconds": 0.0,
        "records": records,
        "summary": summarize_corpus(records),
    }
