"""SAM dataflow graph intermediate representation (paper sections 3 and 5).

A :class:`SamGraph` is the compiler's output and the simulator's input: a
directed graph of typed primitive nodes whose ports are connected by
typed stream edges.  The IR is deliberately close to the paper's figures
— one node per drawn block — so :mod:`repro.graph.dot` renders graphs
that look like Figure 4, and :meth:`SamGraph.primitive_counts` produces
the right-hand side of Table 1.

Every node kind is declared once, as one :data:`NODE_KINDS` row: its
ports, its Table 1 column, its DOT shape and the blocks
:func:`repro.graph.bind.bind` makes of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..blocks import (
    ALU,
    ArrayLoad,
    CompressedLevelWriter,
    CoordDropper,
    Intersect,
    Locator,
    MatrixReducer,
    MergeSide,
    RootFeeder,
    ScalarALU,
    ScalarReducer,
    Sink,
    StreamFeeder,
    UncompressedLevelWriter,
    Union,
    ValsWriter,
    ValueDropper,
    VectorReducer,
    make_repeater,
    make_scanner,
)


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


Ports = List[Tuple[str, str]]


class NodeKind(NamedTuple):
    """One SAM node kind, declared once.

    ``ports`` maps a node's params to its (inputs, outputs), each a list
    of (port, stream kind) pairs; ``column`` is the Table 1 column the
    node is tallied under (None for plumbing: roots, sources, sinks);
    ``shape`` is its DOT node shape.  ``build(node, ins, out, binding)``
    returns the blocks the node binds to, in order: ``ins`` and ``out``
    map port names to channels (a missing required input raises
    :class:`GraphError`), and ``binding`` resolves the node's operand
    (``tensor(node)``, ``level(node)``) and holds the ``builder``.
    """

    ports: Callable[[Dict], Tuple[Ports, Ports]]
    column: Optional[str]
    shape: str
    build: Callable


def _fixed(ins: Ports, outs: Ports) -> Callable[[Dict], Tuple[Ports, Ports]]:
    return lambda params: (list(ins), list(outs))


def _scanner_ports(params: Dict) -> Tuple[Ports, Ports]:
    ins = [("ref", "ref")] + ([("skip", "crd")] if params.get("skip") else [])
    return ins, [("crd", "crd"), ("ref", "ref")]


def _merger_ports(params: Dict) -> Tuple[Ports, Ports]:
    ins: Ports = []
    outs = [("crd", "crd")]
    for i, arity in enumerate(params["sides"]):
        ins.append((f"crd{i}", "crd"))
        for j in range(arity):
            ins.append((f"ref{i}_{j}", "ref"))
            outs.append((f"ref{i}_{j}", "ref"))
        if params.get("skipping"):
            outs.append((f"skip{i}", "crd"))
    return ins, outs


def _alu_ports(params: Dict) -> Tuple[Ports, Ports]:
    ins = [("a", "vals")] + ([] if "const" in params else [("b", "vals")])
    return ins, [("val", "vals")]


#: a reducer's ports per dimension ``n``: coordinates reduced, then values
_REDUCED = {0: ("val",), 1: ("crd", "val"), 2: ("crd_outer", "crd_inner", "val")}


def _reduce_ports(params: Dict) -> Tuple[Ports, Ports]:
    n = params.get("n", 0)
    if n not in _REDUCED:
        raise GraphError(f"reducer dimension n={n} not supported")
    ports = [(port, "vals" if port == "val" else "crd") for port in _REDUCED[n]]
    return ports, list(ports)


def _drop_ports(params: Dict) -> Tuple[Ports, Ports]:
    inner = "vals" if params.get("mode", "fiber") == "value" else "crd"
    ports = [("outer", "crd"), ("inner", inner)]
    return ports, list(ports)


def _locate_ports(params: Dict) -> Tuple[Ports, Ports]:
    ins = [("crd", "crd"), ("ref", "ref")]
    if params.get("use_target"):
        ins.append(("target", "ref"))
    return ins, [("crd", "crd"), ("ref_found", "ref"), ("ref_in", "ref")]


def _merger(cls) -> Callable:
    def build(node, ins, out, binding):
        sides: List[MergeSide] = []
        out_refs = []
        for i, arity in enumerate(node.params["sides"]):
            refs = [ins[f"ref{i}_{j}"] for j in range(arity)]
            skip = out.get(f"skip{i}") if node.params.get("skipping") else None
            if skip is not None:
                # Side-band port: the merger holds the skip channel
                # without registering it, so exempt it from the
                # producerless-stream check.
                binding.builder.unused(skip)
            sides.append(MergeSide(ins[f"crd{i}"], refs, skip=skip))
            out_refs.append([out[f"ref{i}_{j}"] for j in range(arity)])
        return (cls(sides, out["crd"], out_refs, name=node.name),)

    return build


def _alu(node, ins, out, binding):
    op = node.params["op"]
    if "const" in node.params:
        return (ScalarALU(op, node.params["const"], ins["a"], out["val"],
                          name=node.name),)
    return (ALU(op, ins["a"], ins["b"], out["val"], name=node.name),)


def _reduce(node, ins, out, binding):
    n = node.params.get("n", 0)
    if n == 0:
        return (ScalarReducer(
            ins["val"], out["val"],
            empty_policy=node.params.get("empty_policy", "zero"), name=node.name),)
    if n == 1:
        return (VectorReducer(
            ins["crd"], ins["val"], out["crd"], out["val"],
            flush_level=node.params.get("flush_level", 1), name=node.name),)
    return (MatrixReducer(
        ins["crd_outer"], ins["crd_inner"], ins["val"],
        out["crd_outer"], out["crd_inner"], out["val"], name=node.name),)


def _drop(node, ins, out, binding):
    cls = ValueDropper if node.params.get("mode") == "value" else CoordDropper
    return (cls(ins["outer"], ins["inner"], out["outer"], out["inner"],
                name=node.name),)


def _level_writer(node, ins, out, binding):
    if node.params.get("format", "compressed") == "compressed":
        return (CompressedLevelWriter(ins["crd"], name=node.name),)
    return (UncompressedLevelWriter(node.params["size"], ins["crd"],
                                    name=node.name),)


#: every SAM node kind, by the name :meth:`SamGraph.add` takes
NODE_KINDS: Dict[str, NodeKind] = {
    "root": NodeKind(
        _fixed([], [("ref", "ref")]), None, "point",
        lambda node, ins, out, binding: (RootFeeder(out["ref"], name=node.name),)),
    "source": NodeKind(
        lambda params: ([], [("out", params.get("stream_kind", "crd"))]), None, "box",
        lambda node, ins, out, binding: (
            StreamFeeder(node.params["tokens"], out["out"], name=node.name),)),
    "sink": NodeKind(
        _fixed([("in", "crd")], []), None, "point",
        lambda node, ins, out, binding: (Sink(ins["in"], name=node.name),)),
    "level_scanner": NodeKind(
        _scanner_ports, "level_scanner", "box",
        lambda node, ins, out, binding: (make_scanner(
            binding.level(node), ins["ref"], out["crd"], out["ref"],
            in_skip=ins.get("skip"), name=node.name),)),
    "repeat": NodeKind(
        _fixed([("crd", "crd"), ("ref", "ref")], [("ref", "ref")]), "repeat",
        "parallelogram",
        lambda node, ins, out, binding: make_repeater(
            ins["crd"], ins["ref"], out["ref"], name=node.name)),
    "intersect": NodeKind(_merger_ports, "intersect", "diamond", _merger(Intersect)),
    "union": NodeKind(_merger_ports, "union", "diamond", _merger(Union)),
    "alu": NodeKind(_alu_ports, "alu", "circle", _alu),
    "reduce": NodeKind(_reduce_ports, "reduce", "house", _reduce),
    "crd_drop": NodeKind(_drop_ports, "crd_drop", "trapezium", _drop),
    "array": NodeKind(
        _fixed([("ref", "ref")], [("val", "vals")]), "array", "cylinder",
        lambda node, ins, out, binding: (ArrayLoad(
            binding.tensor(node).vals, ins["ref"], out["val"], name=node.name),)),
    "level_writer": NodeKind(
        _fixed([("crd", "crd")], []), "level_writer", "box", _level_writer),
    "vals_writer": NodeKind(
        _fixed([("val", "vals")], []), "level_writer", "box",
        lambda node, ins, out, binding: (ValsWriter(ins["val"], name=node.name),)),
    "locate": NodeKind(
        _locate_ports, "locate", "component",
        lambda node, ins, out, binding: (Locator(
            binding.level(node), ins["crd"], ins["ref"], out["crd"],
            out["ref_found"], out["ref_in"], in_target_ref=ins.get("target"),
            name=node.name),)),
}


def node_ports(node: Node) -> Tuple[Ports, Ports]:
    """(inputs, outputs) as (port, stream-kind) pairs for *node*'s kind."""
    row = NODE_KINDS.get(node.kind)
    if row is None:
        raise GraphError(f"unknown node kind {node.kind!r}")
    return row.ports(node.params)


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

    def nodes_of_kind(self, kind: str) -> List[Node]:
        return [n for n in self.nodes.values() if n.kind == kind]

    def primitive_counts(self) -> Dict[str, int]:
        """Tally nodes per Table 1 column (plumbing kinds excluded)."""
        counts: Dict[str, int] = {}
        for node in self.nodes.values():
            row = NODE_KINDS.get(node.kind)
            if row is not None and row.column is not None:
                counts[row.column] = counts.get(row.column, 0) + 1
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
            row = NODE_KINDS.get(node.kind)
            if row is not None and row.column is None:
                continue  # plumbing
            if node.name not in driven:
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
