"""Every block class ``repro.blocks`` exports is built by the program.

A static guard, an AST walk over ``src/repro`` that runs no simulation:
a concrete block class counts as reached when some module outside
``repro.blocks`` calls it, when a ``NODE_KINDS`` row of
``repro/graph/ir.py`` names it (its factory, or a helper the row calls),
or when ``make_scanner`` / ``make_repeater`` calls it.  A class that none
of these reach is a primitive no graph builds: delete it with its tests,
or name it in :data:`UNREACHED` with the reason.
"""

import ast
from pathlib import Path

import repro
import repro.blocks
from repro.blocks import Block

SRC = Path(repro.__file__).parent
#: the block classes no graph builds, each kept for a reason
UNREACHED = {
    # the block differential's unary map (tests/blocks/test_window_blocks.py)
    "Exp",
}
#: the block-package functions graphs build their blocks through
BUILDERS = ("make_scanner", "make_repeater")


def called_names(tree):
    """Names called in *tree*: ``Name(...)`` and ``module.Name(...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


def loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def node_kind_names():
    """Every name a ``NODE_KINDS`` row loads, through the module's
    helper functions it names, transitively."""
    module = ast.parse((SRC / "graph" / "ir.py").read_text())
    functions = {node.name: node for node in module.body
                 if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in module.body
                 if isinstance(node, ast.AnnAssign)
                 and getattr(node.target, "id", None) == "NODE_KINDS")
    names, todo = set(), [table]
    while todo:
        for name in loaded_names(todo.pop()) - names:
            names.add(name)
            if name in functions:
                todo.append(functions[name])
    return names


def reached_names():
    reached = node_kind_names()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        if path.parent.name != "blocks":
            reached.update(called_names(tree))
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in BUILDERS:
                reached.update(called_names(node))
    return reached


def exported_blocks():
    return {name for name in repro.blocks.__all__
            if isinstance(getattr(repro.blocks, name), type)
            and issubclass(getattr(repro.blocks, name), Block)
            and getattr(repro.blocks, name) is not Block}


def test_every_exported_block_is_built():
    unreached = exported_blocks() - reached_names()
    assert unreached == UNREACHED, (
        f"built by no kernel, study, NODE_KINDS row, make_scanner or "
        f"make_repeater: {sorted(unreached - UNREACHED)}; reached now, so "
        f"no longer an exception: {sorted(UNREACHED - unreached)}")

