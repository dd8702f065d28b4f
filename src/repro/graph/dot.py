"""DOT export of SAM graphs.

The SAM artifact stores compiled graphs in the Graphviz DOT format; we do
the same so graphs can be visually compared against the paper's figures
(stippled arrows for reference streams, solid for coordinate streams,
double-struck — rendered bold — for value streams, as in Figure 4).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .ir import SamGraph

_EDGE_STYLE = {
    "ref": 'style=dashed, color="gray40"',
    "crd": "color=black",
    "vals": 'color="blue", penwidth=2',
    "bv": 'color="purple"',
    "repsig": 'style=dotted, color="orange"',
}

_NODE_SHAPE = {
    "level_scanner": "box",
    "level_writer": "box",
    "vals_writer": "box",
    "array": "cylinder",
    "intersect": "diamond",
    "union": "diamond",
    "repeat": "parallelogram",
    "alu": "circle",
    "reduce": "house",
    "crd_drop": "trapezium",
    "locate": "component",
    "root": "point",
    "sink": "point",
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
        shape = _NODE_SHAPE.get(node.kind, "box")
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


def blocks_to_dot(graph) -> str:
    """Render a wired block graph (:class:`repro.graph.builder.Graph`).

    Works on the instantiated-block plane rather than the IR plane:
    edges are recovered from channel identity across each block's
    registered ports and labelled with the producer/consumer port names;
    subgraphs recorded by :meth:`Graph.include` become clusters.
    """
    producers = {}
    consumers = {}
    chans = {}
    for block in graph.blocks:
        for port, chan in block.outputs.items():
            producers.setdefault(id(chan), []).append((block.name, port))
            chans[id(chan)] = chan
        for port, chan in block.inputs.items():
            consumers.setdefault(id(chan), []).append((block.name, port))
            chans[id(chan)] = chan

    grouped = {}
    for gname, members in getattr(graph, "groups", {}).items():
        for block in members:
            grouped[block.name] = gname

    def node_line(block, indent="  "):
        shape = _NODE_SHAPE.get(block.primitive, "box")
        return (
            f'{indent}"{block.name}" '
            f'[label="{block.name}\\n{block.primitive}", shape={shape}];'
        )

    lines = [f'digraph "{graph.name}" {{', "  rankdir=LR;",
             "  node [fontsize=10];"]
    for gi, (gname, members) in enumerate(
            sorted(getattr(graph, "groups", {}).items())):
        lines.append(f"  subgraph cluster_sub_{gi} {{")
        lines.append(f'    label="{gname}"; style=dashed; color="gray50";')
        for block in members:
            lines.append(node_line(block, indent="    "))
        lines.append("  }")
    for block in graph.blocks:
        if block.name not in grouped:
            lines.append(node_line(block))
    for cid, chan in chans.items():
        style = _EDGE_STYLE.get(chan.kind, "color=black")
        for src, sport in producers.get(cid, ()):
            for dst, dport in consumers.get(cid, ()):
                lines.append(
                    f'  "{src}" -> "{dst}" '
                    f'[label="{chan.name}", taillabel="{sport}", '
                    f'headlabel="{dport}", fontsize=8, {style}];'
                )
    lines.append("}")
    return "\n".join(lines)
