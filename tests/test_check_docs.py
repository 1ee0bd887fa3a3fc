"""The docs checker's CLI-reference pass: flag-table choices.

``docs/check_docs.py`` runs in the CI docs job; these tests pin that a
flag-table row spelling out ``--flag {a,b,…}`` must match the parser's
``choices`` for that flag exactly, so a stale engine list fails.
"""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def check_docs(tmp_path, monkeypatch):
    """The checker module, reading a private copy of ``docs/cli.md``."""
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "docs" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    shutil.copy(REPO / "docs" / "cli.md", tmp_path / "cli.md")
    monkeypatch.setattr(module, "DOCS", tmp_path)
    return module


def _errors(module):
    errors: list = []
    module.check_cli_reference(errors)
    return errors


def test_cli_reference_matches_the_parser(check_docs):
    assert _errors(check_docs) == []


@pytest.mark.parametrize(
    "stale",
    [
        "`--engine {compiled,legacy,frontier}`",  # a dropped choice
        "`--engine {legacy,compiled}`",  # reordered
        "`--engine {compiled}`",  # a missing choice
    ],
)
def test_stale_engine_choices_fail(check_docs, stale):
    cli = check_docs.DOCS / "cli.md"
    text = cli.read_text(encoding="utf-8")
    section = text.index("## `analyse`")
    row = text.index("`--engine {compiled,legacy}`", section)
    cli.write_text(
        text[:row] + stale + text[row + len("`--engine {compiled,legacy}`") :],
        encoding="utf-8",
    )
    errors = _errors(check_docs)
    assert len(errors) == 1
    assert "'analyse' flag table lists --engine" in errors[0]
    assert "its parser takes {compiled,legacy}" in errors[0]
