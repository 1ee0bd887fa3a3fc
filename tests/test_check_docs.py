"""The docs checker's CLI-reference and doc-import passes.

``docs/check_docs.py`` runs in the CI docs job; these tests pin that a
flag-table row spelling out ``--flag {a,b,…}`` must match the parser's
``choices`` for that flag exactly, so a stale engine list fails, and
that a python block importing a name ``repro`` no longer exports fails.
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


def test_stale_doc_import_fails(check_docs):
    page = check_docs.DOCS / "quickstart.md"
    shutil.copy(REPO / "docs" / "quickstart.md", page)
    errors: list = []
    assert check_docs.check_python_imports(errors) > 0
    assert errors == []
    text = page.read_text(encoding="utf-8")
    line = "from repro.codegen import ProgramExecutor\n"
    assert line in text
    page.write_text(
        text.replace(line, "from repro.codegen import ProgramExecutor, make_resolver\n"),
        encoding="utf-8",
    )
    check_docs.check_python_imports(errors)
    assert len(errors) == 1
    assert "stale import -> from repro.codegen import make_resolver" in errors[0]
