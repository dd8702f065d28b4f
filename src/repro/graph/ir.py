"""SAM dataflow graph intermediate representation (paper sections 3 and 5).

A :class:`SamGraph` is the compiler's output and the simulator's input: a
directed graph of typed primitive nodes whose ports are connected by
typed stream edges.  The IR is deliberately close to the paper's figures
— one node per drawn block — so :mod:`repro.graph.dot` renders graphs
that look like Figure 4, and :meth:`SamGraph.primitive_counts` produces
the right-hand side of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: node kinds that correspond to countable SAM primitives, mapped to the
#: Table 1 column they are tallied under.
PRIMITIVE_COLUMNS = {
    "level_scanner": "level_scanner",
    "repeat": "repeat",
    "intersect": "intersect",
    "union": "union",
    "alu": "alu",
    "reduce": "reduce",
    "crd_drop": "crd_drop",
    "level_writer": "level_writer",
    "vals_writer": "level_writer",
    "array": "array",
    "locate": "locate",
    "bv_convert": "bv_convert",
}

#: non-primitive plumbing kinds (wires, sources, sinks)
PLUMBING_KINDS = ("root", "source", "sink", "broadcast")


class GraphError(ValueError):
    """Raised for malformed SAM graphs."""


@dataclass
class Node:
    """One dataflow block: a kind, free-form parameters, and a unique name."""

    name: str
    kind: str
    params: Dict = field(default_factory=dict)

    def label(self) -> str:
        """Human-readable label used by the DOT exporter."""
        bits = [self.kind]
        for key in ("tensor", "var", "op", "n", "mode", "format"):
            if key in self.params:
                bits.append(f"{key}={self.params[key]}")
        return f"{self.name}\\n" + " ".join(bits)


@dataclass(frozen=True)
class Edge:
    """A stream from (src node, src port) to (dst node, dst port)."""

    src: str
    src_port: str
    dst: str
    dst_port: str
    kind: str = "crd"  # crd | ref | vals | bv | repsig


class SamGraph:
    """A SAM dataflow graph: nodes, edges, and the result specification."""

    def __init__(self, name: str = "sam"):
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.edges: List[Edge] = []
        #: the edge driving each (dst node, dst port): one input, one driver
        self._drivers: Dict[Tuple[str, str], Edge] = {}
        self._counter: Dict[str, int] = {}
        self._frozen = False
        #: what :func:`repro.graph.bind.bind` works out from the structure
        #: alone, kept once the graph is frozen: the wiring per ``record``,
        #: the plan per ``record`` and bound level classes
        self._bind_memo: Dict = {}

    def freeze(self) -> None:
        """Refuse every later :meth:`add` / :meth:`connect`.

        A compiled program's graph is shared by every caller that
        compiles the same specification, so it must not change after
        lowering returns it.
        """
        self._frozen = True

    def _check_open(self) -> None:
        if self._frozen:
            raise GraphError(
                f"graph {self.name!r} belongs to a compiled program, which is "
                f"shared and immutable: it takes no new nodes or edges"
            )

    # -- construction ------------------------------------------------------
    def add(self, kind: str, name: Optional[str] = None, **params) -> Node:
        """Add a node; names are auto-generated per kind when omitted."""
        self._check_open()
        if name is None:
            index = self._counter.get(kind, 0)
            self._counter[kind] = index + 1
            name = f"{kind}{index}"
        if name in self.nodes:
            raise GraphError(f"duplicate node name {name!r}")
        node = Node(name, kind, params)
        self.nodes[name] = node
        return node

    def connect(
        self,
        src: "Node | str",
        src_port: str,
        dst: "Node | str",
        dst_port: str,
        kind: str = "crd",
    ) -> Edge:
        self._check_open()
        src_name = src.name if isinstance(src, Node) else src
        dst_name = dst.name if isinstance(dst, Node) else dst
        for node_name in (src_name, dst_name):
            if node_name not in self.nodes:
                raise GraphError(f"unknown node {node_name!r}")
        prior = self._drivers.get((dst_name, dst_port))
        if prior is not None:
            raise GraphError(
                f"input port {dst_name}.{dst_port} already driven by "
                f"{prior.src}.{prior.src_port}"
            )
        edge = Edge(src_name, src_port, dst_name, dst_port, kind)
        self.edges.append(edge)
        self._drivers[dst_name, dst_port] = edge
        return edge

    # -- queries -------------------------------------------------------------
    def in_edges(self, node: "Node | str") -> List[Edge]:
        name = node.name if isinstance(node, Node) else node
        return [e for e in self.edges if e.dst == name]

    def out_edges(self, node: "Node | str") -> List[Edge]:
        name = node.name if isinstance(node, Node) else node
        return [e for e in self.edges if e.src == name]

    def nodes_of_kind(self, kind: str) -> List[Node]:
        return [n for n in self.nodes.values() if n.kind == kind]

    def primitive_counts(self) -> Dict[str, int]:
        """Tally nodes per Table 1 column (plumbing kinds excluded)."""
        counts: Dict[str, int] = {}
        for node in self.nodes.values():
            column = PRIMITIVE_COLUMNS.get(node.kind)
            if column is not None:
                counts[column] = counts.get(column, 0) + 1
        return counts

    # -- validation ------------------------------------------------------
    def validate(self) -> "SamGraph":
        """Structural checks: known endpoints, no dangling required inputs."""
        seen: set = set()
        for edge in self.edges:
            key = (edge.dst, edge.dst_port)
            if key in seen:  # pragma: no cover - connect() prevents this
                raise GraphError(f"port {key} multiply driven")
            seen.add(key)
        driven = {dst for dst, _ in seen}
        for node in self.nodes.values():
            if node.kind in PLUMBING_KINDS:
                continue
            if node.kind != "root" and node.name not in driven:
                raise GraphError(f"node {node.name!r} ({node.kind}) has no inputs")
        return self

    def __repr__(self) -> str:
        return (
            f"SamGraph({self.name!r}, nodes={len(self.nodes)}, "
            f"edges={len(self.edges)})"
        )


def fanout_groups(graph: SamGraph) -> Dict[Tuple[str, str], List[Edge]]:
    """Edges grouped by source (node, port) — multi-element groups fan out."""
    groups: Dict[Tuple[str, str], List[Edge]] = {}
    for edge in graph.edges:
        groups.setdefault((edge.src, edge.src_port), []).append(edge)
    return groups
