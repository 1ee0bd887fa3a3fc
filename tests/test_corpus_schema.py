"""Adversarial suite for the ``repro-qss.corpus/3`` schema validator.

Every record field is mutated — wrong type, missing, unknown key, bad
schema tag, broken cross-field invariants — and every mutation must be
rejected with a :class:`CorpusSchemaError` whose message carries the
offending path and the expectation, because "records[3].bounded:
expected bool or null, got 'yes' (str)" is actionable and "invalid
document" is not.  The committed goldens double as the positive
fixtures: they must validate unchanged.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.petrinet.corpus import CORPUS_SCHEMA, RECORD_FIELDS
from repro.petrinet.corpus_schema import (
    DOCUMENT_FIELDS,
    CorpusSchemaError,
    canonicalize_corpus_document,
    validate_corpus_document,
    validate_corpus_file,
    validate_corpus_record,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CORPORA = (
    "corpus_properties.json",
    "corpus_qss.json",
    "corpus_runtime.json",
)

#: One type-violating value per record field.  ``True`` for int fields
#: and ``1`` for bool fields pin the strictness around bool being a
#: subclass of int; floats are rejected by int fields.
BAD_VALUES = {
    "family": 17,
    "seed": True,
    "params": "stages=3",
    "net_name": None,
    "places": 1.5,
    "transitions": "31",
    "arcs": None,
    "net_class": False,
    "free_choice": "yes",
    "bounded": "yes",
    "unbounded_places": "p1",
    "max_place_bound": 2.5,
    "coverability_nodes": None,
    "coverability_complete": 1,
    "reachable_markings": "many",
    "exploration_complete": 0,
    "deadlocks": False,
    "deadlock_free": 0,
    "live": "maybe",
    "schedulable": 1,
    "allocations": "64",
    "reductions": 3.5,
    "cycle_lengths": ["3", "4"],
    "fleet_instances": 16.0,
    "fleet_events": "320",
    "fleet_cycles_total": True,
    "fleet_cycles_p50": "fast",
    "fleet_cycles_p95": [95],
    "fleet_budget_stops": "none",
    "fleet_throughput_eps": "quick",
    "error": 404,
    "elapsed_ms": "slow",
}


def load_doc(name="corpus_properties.json"):
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


class TestValidDocuments:
    @pytest.mark.parametrize("name", GOLDEN_CORPORA)
    def test_committed_goldens_validate(self, name):
        doc = load_doc(name)
        assert validate_corpus_document(doc) is doc

    def test_bad_values_cover_every_field(self):
        assert set(BAD_VALUES) == set(RECORD_FIELDS)


class TestRecordFieldMutations:
    @pytest.mark.parametrize("field", sorted(RECORD_FIELDS))
    def test_wrong_type_rejected_with_path(self, field):
        doc = load_doc()
        doc["records"][3][field] = copy.deepcopy(BAD_VALUES[field])
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_document(doc)
        message = str(excinfo.value)
        assert f"records[3].{field}" in message
        assert "expected" in message

    @pytest.mark.parametrize("field", sorted(RECORD_FIELDS))
    def test_missing_field_rejected_by_name(self, field):
        doc = load_doc()
        del doc["records"][0][field]
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_document(doc)
        message = str(excinfo.value)
        assert "records[0]" in message
        assert "missing" in message
        assert field in message

    def test_unknown_record_key_rejected(self):
        doc = load_doc()
        doc["records"][1]["verdict"] = "fine"
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_document(doc)
        assert "records[1]" in str(excinfo.value)
        assert "verdict" in str(excinfo.value)
        assert "unknown" in str(excinfo.value)

    def test_nested_list_item_path(self):
        record = load_doc()["records"][0]
        record["unbounded_places"] = ["p_ok", 3]
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_record(record, path="records[0]")
        assert "records[0].unbounded_places[1]" in str(excinfo.value)

    def test_params_value_type_rejected_with_key(self):
        record = load_doc()["records"][0]
        record["params"] = {"stages": 1.5}
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_record(record, path="records[0]")
        assert "records[0].params.stages" in str(excinfo.value)

    def test_negative_sizes_rejected(self):
        record = load_doc()["records"][0]
        record["places"] = -1
        with pytest.raises(CorpusSchemaError):
            validate_corpus_record(record)

    def test_error_message_is_actionable(self):
        doc = load_doc()
        doc["records"][3]["bounded"] = "yes"
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_document(doc)
        assert (
            "records[3].bounded: expected bool or null, got 'yes' (str)"
            in str(excinfo.value)
        )
        assert excinfo.value.path == "records[3].bounded"


class TestDocumentMutations:
    def test_bad_schema_tag_rejected(self):
        doc = load_doc()
        doc["schema"] = "repro-qss.corpus/2"
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_document(doc)
        assert CORPUS_SCHEMA in str(excinfo.value)
        assert "repro-qss.corpus/2" in str(excinfo.value)

    def test_missing_schema_tag_rejected(self):
        doc = load_doc()
        del doc["schema"]
        with pytest.raises(CorpusSchemaError):
            validate_corpus_document(doc)

    @pytest.mark.parametrize("field", [f for f in DOCUMENT_FIELDS if f != "schema"])
    def test_missing_top_level_field_rejected(self, field):
        doc = load_doc()
        del doc[field]
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_document(doc)
        assert field in str(excinfo.value)

    def test_unknown_top_level_key_rejected(self):
        doc = load_doc()
        doc["comment"] = "hand-edited"
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_document(doc)
        assert "comment" in str(excinfo.value)

    def test_n_must_match_record_count(self):
        doc = load_doc()
        doc["n"] += 1
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_document(doc)
        assert "len(records)" in str(excinfo.value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", -1),
            ("n", "8"),
            ("workers", 0),
            ("workers", True),
            ("engine", "turbo"),
            ("analyse", "vibes"),
            ("elapsed_seconds", -0.5),
            ("elapsed_seconds", "1.2"),
            ("records", {"0": {}}),
            ("summary", "aggregates"),
            ("engine", "frontier"),
        ],
    )
    def test_top_level_type_violations(self, field, value):
        doc = load_doc()
        doc[field] = value
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_document(doc)
        assert str(excinfo.value).startswith(field) or "len(records)" in str(
            excinfo.value
        )

    def test_summary_total_must_match_n(self):
        doc = load_doc()
        doc["summary"]["total"] += 2
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_document(doc)
        assert "summary.total" in str(excinfo.value)

    def test_non_dict_document_rejected(self):
        with pytest.raises(CorpusSchemaError):
            validate_corpus_document([1, 2, 3])


class TestFileAndCanonicalization:
    def test_validate_file_round_trip(self):
        doc = validate_corpus_file(str(GOLDEN_DIR / "corpus_qss.json"))
        assert doc["n"] == len(doc["records"])

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(CorpusSchemaError) as excinfo:
            validate_corpus_file(str(bad))
        assert "not valid JSON" in str(excinfo.value)

    def test_canonicalize_zeroes_wall_clock_and_is_idempotent(self):
        doc = load_doc("corpus_runtime.json")
        doc["elapsed_seconds"] = 12.5
        doc["workers"] = 8
        doc["records"][0]["elapsed_ms"] = 3.25
        canonical = canonicalize_corpus_document(doc)
        assert canonical["elapsed_seconds"] == 0.0
        assert canonical["workers"] == 1
        assert all(r["elapsed_ms"] == 0.0 for r in canonical["records"])
        assert all(
            r["fleet_throughput_eps"] in (None, 0.0)
            for r in canonical["records"]
        )
        assert canonicalize_corpus_document(canonical) == canonical

    def test_canonicalize_validates_first(self):
        doc = load_doc()
        doc["records"][0]["bounded"] = "yes"
        with pytest.raises(CorpusSchemaError):
            canonicalize_corpus_document(doc)
