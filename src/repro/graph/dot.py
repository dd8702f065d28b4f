"""DOT export of SAM graphs.

The SAM artifact stores compiled graphs in the Graphviz DOT format; we do
the same so graphs can be visually compared against the paper's figures
(stippled arrows for reference streams, solid for coordinate streams,
double-struck — rendered bold — for value streams, as in Figure 4).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .ir import NODE_KINDS, SamGraph

_EDGE_STYLE = {
    "ref": 'style=dashed, color="gray40"',
    "crd": "color=black",
    "vals": 'color="blue", penwidth=2',
    "bv": 'color="purple"',
    "repsig": 'style=dotted, color="orange"',
}


def to_dot(
    graph: SamGraph, clusters: Sequence[Tuple[str, Sequence[str]]] = ()
) -> str:
    """Render *graph* as a DOT digraph string.

    *clusters* are ``(kind, node names)`` pairs, one per fused segment of
    the compiled backend (see :func:`repro.sim.backends.plan.partition_segments`):
    each is drawn as a ``cluster_fused_*`` subgraph labelled with its
    kind, so the fusion decisions are visually auditable.  Names that are
    not graph nodes (binder-inserted fanouts) are dropped, and a cluster
    left empty is not drawn.  The graph itself is never annotated.
    """
    lines = [f'digraph "{graph.name}" {{', "  rankdir=LR;", "  node [fontsize=10];"]
    drawn = [(kind, [n for n in names if n in graph.nodes]) for kind, names in clusters]
    drawn = [(kind, names) for kind, names in drawn if names]
    fused = {name for _, names in drawn for name in names}

    def node_line(node):
        row = NODE_KINDS.get(node.kind)
        shape = "box" if row is None else row.shape
        return f'  "{node.name}" [label="{node.label()}", shape={shape}];'

    for si, (kind, names) in enumerate(drawn):
        label = f"fused segment {si}" + (f" [{kind}]" if kind else "")
        lines.append(f"  subgraph cluster_fused_{si} {{")
        lines.append(f'    label="{label}"; style=dashed; color="red3";')
        for name in names:
            lines.append("  " + node_line(graph.nodes[name]))
        lines.append("  }")
    for node in graph.nodes.values():
        if node.name in fused:
            continue
        lines.append(node_line(node))
    for edge in graph.edges:
        style = _EDGE_STYLE.get(edge.kind, "color=black")
        lines.append(
            f'  "{edge.src}" -> "{edge.dst}" '
            f'[taillabel="{edge.src_port}", headlabel="{edge.dst_port}", '
            f"fontsize=8, {style}];"
        )
    lines.append("}")
    return "\n".join(lines)


def write_dot(graph: SamGraph, path: str) -> str:
    """Write the DOT rendering to *path*; returns the path."""
    text = to_dot(graph)
    with open(path, "w") as handle:
        handle.write(text)
    return path
