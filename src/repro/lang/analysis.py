"""Graph analyses: Table 1 features/counts and Table 2 expressibility.

:func:`expression_features` derives the left half of Table 1 (output
order, input orders, number of inputs, reduction order, broadcast, ops)
and :func:`primitive_row` the right half (the per-primitive composition
counts).  :func:`lost_without` implements the Table 2 ablation: whether
an expression remains expressible when one SAM primitive is removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .compile import CompiledProgram

#: Table 1 column order for primitive counts
TABLE1_COLUMNS = (
    "level_scanner",
    "repeat",
    "intersect",
    "union",
    "alu",
    "reduce",
    "crd_drop",
    "level_writer",
    "array",
)

#: Table 2 removal scenarios, in the paper's row order
TABLE2_SCENARIOS = (
    "comp_level_scanner",
    "comp_and_uncomp_level_scanners",
    "repeater",
    "unioner",
    "intersecter_keep_locator",
    "intersecter_with_locator_removed",
    "adder",
    "multiplier",
    "reducer",
    "coordinate_dropper",
    "comp_level_writer",
    "comp_and_uncomp_level_writers",
)


@dataclass
class ExpressionFeatures:
    """The sparse tensor algebra features of Table 1's left half."""

    out_order: int
    input_orders: Tuple[int, ...]
    num_inputs: int
    reduce_order: int  # max reducer dimension n; -1 when no reduction
    broadcast: bool
    ops: Tuple[str, ...]


def expression_features(program: CompiledProgram) -> ExpressionFeatures:
    asg = program.assignment
    orders = tuple(sorted({a.order for a in asg.accesses}))
    ops = set()
    reduce_order = -1
    for node in program.graph.nodes.values():
        if node.kind == "alu":
            op = node.params.get("op")
            ops.add({"mul": "*", "add": "+", "sub": "-"}[op])
        elif node.kind == "reduce":
            reduce_order = max(reduce_order, node.params.get("n", 0))
    return ExpressionFeatures(
        out_order=len(asg.lhs.indices),
        input_orders=orders,
        num_inputs=len(asg.accesses),
        reduce_order=reduce_order,
        broadcast=program.primitive_counts().get("repeat", 0) > 0,
        ops=tuple(sorted(ops)),
    )


def primitive_row(program: CompiledProgram) -> Dict[str, int]:
    """Primitive counts in Table 1 column order (zero-filled)."""
    counts = program.primitive_counts()
    return {column: counts.get(column, 0) for column in TABLE1_COLUMNS}


def _scanner_formats(program: CompiledProgram) -> set:
    return {
        node.params.get("format", "compressed")
        for node in program.graph.nodes_of_kind("level_scanner")
    }


def _alu_ops(program: CompiledProgram) -> set:
    return {
        node.params.get("op") for node in program.graph.nodes_of_kind("alu")
    }


def _intersect_replaceable_by_locator(program: CompiledProgram) -> bool:
    """Could every intersecter be rewritten as iterate-locate (section 4.2)?

    A locator replaces a two-way intersection when one side can be probed
    in O(1) instead of iterated — i.e. when that side's level scanner
    reads an uncompressed (dense) level, the SpMV-with-dense-vector case
    the paper highlights.  Compressed-compressed coiteration, chained
    merges (sides that are themselves merger outputs), and three-or-more
    way intersections still need the real intersecter.
    """
    graph = program.graph
    for node in graph.nodes_of_kind("intersect"):
        if len(node.params.get("sides", [])) > 2:
            return False
        probe_side_found = False
        for edge in graph.in_edges(node):
            if not edge.dst_port.startswith("crd"):
                continue
            src = graph.nodes[edge.src]
            if src.kind == "level_scanner" and src.params.get("format") == "dense":
                probe_side_found = True
        if not probe_side_found:
            return False
    return True


def lost_without(
    program: CompiledProgram,
    scenario: str,
    output_format: Optional[Tuple[str, ...]] = None,
) -> bool:
    """True if the expression is NOT expressible without the primitive.

    Implements the Table 2 removal semantics, including the paper's
    nuances: scenario 5 keeps the locator available as an intersection
    substitute, and scenario 10 honours the reducer's accumulate-empty-
    fibers-to-zero configuration, which makes droppers optional unless
    sparse outputs would otherwise store the results of ineffectual
    multiplicative merges.  *output_format* is the result format a
    corpus entry declares (see :func:`output_compressed`).
    """
    graph = program.graph
    counts = program.primitive_counts()
    if scenario == "comp_level_scanner":
        return "compressed" in _scanner_formats(program)
    if scenario == "comp_and_uncomp_level_scanners":
        return bool(graph.nodes_of_kind("level_scanner"))
    if scenario == "repeater":
        return counts.get("repeat", 0) > 0
    if scenario == "unioner":
        return counts.get("union", 0) > 0
    if scenario == "intersecter_keep_locator":
        if counts.get("intersect", 0) == 0:
            return False
        return not _intersect_replaceable_by_locator(program)
    if scenario == "intersecter_with_locator_removed":
        return counts.get("intersect", 0) > 0 or counts.get("locate", 0) > 0
    if scenario == "adder":
        return bool(_alu_ops(program) & {"add", "sub"})
    if scenario == "multiplier":
        return "mul" in _alu_ops(program)
    if scenario == "reducer":
        return counts.get("reduce", 0) > 0
    if scenario == "coordinate_dropper":
        # With reducers configured to accumulate empty fibers into
        # explicit zeros, droppers become optional for pure contractions
        # (the output just stores explicit zeros).  They stay structurally
        # required when a multiplicative term's explicit zeros would be
        # union-merged with another additive term — the zeros would
        # corrupt the merged compressed output.
        has_value_drop = any(
            n.params.get("mode") == "value" for n in graph.nodes_of_kind("crd_drop")
        )
        return has_value_drop and counts.get("union", 0) > 0
    if scenario == "comp_level_writer":
        return output_compressed(program, output_format)
    if scenario == "comp_and_uncomp_level_writers":
        return bool(program.info.lhs_vars) or counts.get("level_writer", 0) > 0
    raise ValueError(f"unknown Table 2 scenario {scenario!r}")


def output_compressed(
    program: CompiledProgram, output_format: Optional[Tuple[str, ...]] = None
) -> bool:
    """Whether the program's result uses any compressed level.

    Custard currently always writes compressed outputs, but a corpus
    entry may declare its result's format for analysis purposes (the
    TACO website's default output is dense): *output_format*, when given,
    is honoured instead.  It is an argument, not an attribute of the
    program, because one compiled program serves every entry that shares
    its specification.
    """
    if output_format is not None:
        return "compressed" in output_format
    return bool(program.info.lhs_vars)
