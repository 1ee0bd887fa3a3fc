#!/usr/bin/env python
"""Docs-site checks, run by the CI docs job.

The documentation is a plain markdown tree; "building" it means proving
it is internally consistent with the code:

1. every relative markdown link in ``docs/*.md`` and ``README.md``
   resolves to an existing file or directory;
2. every path mentioned in the paper-map tables (``docs/paper_map.md``)
   exists in the repository;
3. every ``repro-qss`` subcommand and every long option of the argument
   parser is documented in ``docs/cli.md`` (introspected from
   ``repro.cli.build_parser`` — adding a flag without documenting it
   fails CI), and every long option a subcommand's flag table lists is
   one its parser still has (removing a flag but not its row fails CI);
   a row written ``--flag {a,b,…}`` must list exactly the parser's
   ``choices`` for that flag, in order;
4. every ``from repro… import a, b`` inside a fenced python block of
   ``docs/*.md`` and ``README.md`` names a module and attributes that
   exist (a deleted export fails CI instead of rotting in the docs).

Exits non-zero with a summary of every violation.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

#: Markdown inline links: ``[text](target)``; external schemes are skipped.
LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
#: Repo paths quoted in the paper-map tables, e.g. ```src/repro/...py```.
PATH_MENTION = re.compile(r"`((?:src|tests|benchmarks|docs|examples)/[^`\s]+)`")
#: One subcommand's part of cli.md: its ``## `name` `` heading up to the
#: next ``## `` heading.
CLI_SECTION = re.compile(r"^## `([a-z0-9-]+)`(.*?)(?=^## |\Z)", re.M | re.S)
#: The first cell of a table row, where the flag tables name their flags.
FIRST_CELL = re.compile(r"^\|([^|\n]*)\|", re.M)
LONG_OPTION = re.compile(r"--[a-z][a-z0-9-]*")
#: A flag-table cell spelling out the flag's choices: ``--flag {a,b,c}``.
FLAG_CHOICES = re.compile(r"(--[a-z][a-z0-9-]*) \{([^}]*)\}")
#: A fenced python block, up to its closing fence.
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _pages() -> list:
    return sorted(DOCS.glob("*.md")) + [REPO / "README.md"]


def check_links(errors: list) -> int:
    checked = 0
    for page in _pages():
        for match in LINK.finditer(page.read_text(encoding="utf-8")):
            target = match.group(1)
            if "://" in target or target.startswith("mailto:"):
                continue
            checked += 1
            resolved = (page.parent / target).resolve()
            if not resolved.exists():
                errors.append(f"{page.relative_to(REPO)}: broken link -> {target}")
    return checked


def check_paper_map(errors: list) -> int:
    text = (DOCS / "paper_map.md").read_text(encoding="utf-8")
    mentions = sorted(set(PATH_MENTION.findall(text)))
    if len(mentions) < 10:
        errors.append(
            f"paper_map.md: expected a table full of repo paths, found "
            f"only {len(mentions)}"
        )
    for mention in mentions:
        if not (REPO / mention).exists():
            errors.append(f"paper_map.md: missing path -> {mention}")
    return len(mentions)


def check_cli_reference(errors: list) -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import build_parser  # noqa: E402

    text = (DOCS / "cli.md").read_text(encoding="utf-8")
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions  # noqa: SLF001 - argparse introspection
        if action.dest == "command"
    )
    sections = dict(CLI_SECTION.findall(text))
    checked = 0
    for name, sub in subparsers.choices.items():
        checked += 1
        if f"## `{name}`" not in text:
            errors.append(f"cli.md: undocumented subcommand -> {name}")
            continue
        options = set()
        choices = {}
        for action in sub._actions:  # noqa: SLF001
            for option in action.option_strings:
                options.add(option)
                choices[option] = list(action.choices or ())
                if not option.startswith("--") or option == "--help":
                    continue
                checked += 1
                if option not in text:
                    errors.append(
                        f"cli.md: undocumented option of {name!r} -> {option}"
                    )
        for cell in FIRST_CELL.findall(sections.get(name, "")):
            for option in LONG_OPTION.findall(cell):
                checked += 1
                if option not in options:
                    errors.append(
                        f"cli.md: the {name!r} flag table lists {option}, "
                        f"which its parser does not have"
                    )
            for option, listed in FLAG_CHOICES.findall(cell):
                checked += 1
                if option in options and listed.split(",") != choices[option]:
                    errors.append(
                        f"cli.md: the {name!r} flag table lists {option} "
                        f"{{{listed}}}, its parser takes "
                        f"{{{','.join(choices[option])}}}"
                    )
    return checked


def check_python_imports(errors: list) -> int:
    sys.path.insert(0, str(REPO / "src"))
    checked = 0
    for page in _pages():
        label = os.path.relpath(page, REPO)
        for block in PYTHON_BLOCK.findall(page.read_text(encoding="utf-8")):
            try:
                tree = ast.parse(block)
            except SyntaxError as err:
                errors.append(f"{label}: python block does not parse: {err.msg}")
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom) or not node.module:
                    continue
                if node.module.split(".")[0] != "repro":
                    continue
                try:
                    module = importlib.import_module(node.module)
                except ImportError:
                    errors.append(f"{label}: no module {node.module}")
                    continue
                for alias in node.names:
                    checked += 1
                    if alias.name != "*" and not hasattr(module, alias.name):
                        errors.append(
                            f"{label}: stale import -> from {node.module} "
                            f"import {alias.name}"
                        )
    return checked


def main() -> int:
    errors: list = []
    links = check_links(errors)
    paths = check_paper_map(errors)
    cli = check_cli_reference(errors)
    imports = check_python_imports(errors)
    if errors:
        print(f"docs check FAILED ({len(errors)} problem(s)):")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(
        f"docs check ok: {links} links, {paths} paper-map paths, "
        f"{cli} CLI symbols, {imports} doc imports verified"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
