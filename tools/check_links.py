#!/usr/bin/env python3
"""Docs link checker (run by the CI docs job).

Fails (exit 1) when:

* a relative markdown link ``[text](path)`` in any tracked ``*.md`` file
  points at a file that does not exist;
* a ``*.md`` document referenced from a Python docstring/comment in
  ``src/`` (e.g. ``EXPERIMENTS.md``, ``docs/architecture.md``) does not
  exist — this is exactly how the repo once shipped dangling
  ``EXPERIMENTS.md`` citations;
* a repo-relative ``src/...``/``tests/...``/``benchmarks/...`` path
  named in a markdown file does not exist;
* a backticked private name (one leading underscore: ``_slab_tokens``,
  ``Block._bail_timed``) or CamelCase name (``FiberTensor``,
  ``BVIntersect``) in ``docs/``, README.md or EXPERIMENTS.md names no
  identifier of the code in ``src/``, ``tests/``, ``tools/``,
  ``benchmarks/`` or ``perfbench/`` -- prose that outlived a rename or
  a deletion;
* the same documents name a ``repro <word>`` command that is no
  subcommand of ``src/repro/cli.py``, or an ``--opt KEY=`` that no
  study under ``src/repro/studies/`` declares (an ``Option("KEY"`` row)
  -- a deleted command or option lingering in prose.

Usage::

    python tools/check_links.py [repo_root]
"""

from __future__ import annotations

import os
import re
import sys

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: repo-relative code paths mentioned in markdown prose/backticks
MD_CODE_PATH = re.compile(r"\b((?:src|tests|benchmarks|docs|tools)/[\w./-]+\.(?:py|md|yml))")
#: doc files cited from Python sources: either a docs/ path or an
#: ALL-CAPS root document (EXPERIMENTS.md, README.md, ...) — anything
#: looser also matches attribute accesses like ``self.md``
PY_DOC_REF = re.compile(r"\b(docs/[\w-]+\.md|[A-Z][A-Z0-9_-]+\.md)\b")

SKIP_SCHEMES = ("http://", "https://", "mailto:", "#")

#: inline code spans, and the private names inside them (not dunders;
#: ``_check_*`` stands for every name it opens) and the CamelCase ones
#: (a capital, another capital later, a lower-case letter, no underscore)
CODE_SPAN = re.compile(r"`([^`\n]+)`")
PRIVATE_NAME = re.compile(r"(?<!\w)_[A-Za-z0-9]\w*\*?")
CAMEL_NAME = re.compile(
    r"(?<!\w)(?=[A-Za-z0-9]*[a-z])[A-Z][a-z0-9]*[A-Z][A-Za-z0-9]*(?!\w)")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
#: where a private name cited by the prose must exist, and the prose
CODE_TREES = ("src", "tests", "tools", "benchmarks", "perfbench")
NAMED_DOCS = ("docs", "README.md", "EXPERIMENTS.md")

#: a ``repro`` command line in prose (global ``--engine`` flag skipped),
#: an ``--opt`` key, and where the code declares the two
REPRO_COMMAND = re.compile(r"\brepro(?:\s+--engine[\s=]+[\w-]+)*\s+([a-z][\w-]*)")
OPT_KEY = re.compile(r"--opt[\s=]+([a-z_]\w*)=")
SUBCOMMAND = re.compile(r"add_parser\(\s*\"([\w-]+)\"")
OPTION_ROW = re.compile(r"\bOption\(\s*\"(\w+)\"")

#: meta files that quote paths from *other* repositories (exemplar
#: snippets, related-work notes) — not claims about this tree
SKIP_FILES = {"SNIPPETS.md", "PAPERS.md", "ISSUE.md", "CHANGES.md"}


def iter_files(root: str, suffix: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in (".git", "__pycache__", ".repro-cache", ".pytest_cache")
        ]
        for filename in sorted(filenames):
            if filename.endswith(suffix):
                yield os.path.join(dirpath, filename)


def check_markdown(root: str):
    for path in iter_files(root, ".md"):
        if os.path.basename(path) in SKIP_FILES:
            continue
        base = os.path.dirname(path)
        text = open(path, encoding="utf-8").read()
        for match in MD_LINK.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                yield path, f"broken link -> {match.group(1)}"
        for match in MD_CODE_PATH.finditer(text):
            if not os.path.exists(os.path.join(root, match.group(1))):
                yield path, f"missing referenced file -> {match.group(1)}"


def check_python_doc_refs(root: str):
    for path in iter_files(os.path.join(root, "src"), ".py"):
        text = open(path, encoding="utf-8").read()
        for match in PY_DOC_REF.finditer(text):
            name = match.group(1)
            if not (
                os.path.exists(os.path.join(root, name))
                or os.path.exists(os.path.join(root, "docs", name))
            ):
                yield path, f"cites nonexistent doc -> {name}"


def named_doc_paths(root: str):
    for doc in NAMED_DOCS:
        target = os.path.join(root, doc)
        if os.path.isdir(target):
            yield from iter_files(target, ".md")
        elif os.path.isfile(target):
            yield target


def declared(root: str, tree: str, pattern: re.Pattern) -> set:
    return {name for path in iter_files(os.path.join(root, tree), ".py")
            for name in pattern.findall(open(path, encoding="utf-8").read())}


def check_commands(root: str):
    commands = declared(root, "src/repro", SUBCOMMAND)
    options = declared(root, "src/repro/studies", OPTION_ROW)
    for path in named_doc_paths(root):
        text = open(path, encoding="utf-8").read()
        for pattern, known, what in ((REPRO_COMMAND, commands, "subcommand"),
                                     (OPT_KEY, options, "study option")):
            for match in pattern.finditer(text):
                if match.group(1) not in known:
                    line = text.count("\n", 0, match.start()) + 1
                    yield path, (f"line {line}: `{match.group(0)}` names no "
                                 f"{what}")


def check_names(root: str):
    known = set()
    for tree in CODE_TREES:
        for path in iter_files(os.path.join(root, tree), ".py"):
            known.update(IDENTIFIER.findall(open(path, encoding="utf-8").read()))
    for path in named_doc_paths(root):
        text = open(path, encoding="utf-8").read()
        for span in CODE_SPAN.finditer(text):
            code = span.group(1)
            for name in PRIVATE_NAME.findall(code) + CAMEL_NAME.findall(code):
                if name.endswith("*"):
                    found = any(word.startswith(name[:-1]) for word in known)
                else:
                    found = name in known
                if not found:
                    line = text.count("\n", 0, span.start()) + 1
                    yield path, f"line {line}: `{name}` names nothing in the code"


def main(argv=None) -> int:
    root = os.path.abspath((argv or sys.argv[1:] or ["."])[0])
    problems = (list(check_markdown(root)) + list(check_python_doc_refs(root))
                + list(check_names(root)) + list(check_commands(root)))
    for path, message in problems:
        print(f"{os.path.relpath(path, root)}: {message}")
    if problems:
        print(f"\n{len(problems)} broken reference(s)")
        return 1
    print("docs links OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
