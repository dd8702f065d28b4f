"""Binding: instantiate a SamGraph as simulator blocks and channels.

This is the "automatic binding from SAM to a streaming dataflow
simulator" of the paper's abstract: every IR node becomes a block, every
edge becomes a channel, and source ports feeding several consumers get a
fanout block (a wire split, not a SAM primitive).

The binder needs the actual tensors because scanners, arrays and locators
close over level/value storage ("memories are pre-initialised").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from ..blocks import (
    ALU,
    ArrayLoad,
    CompressedLevelWriter,
    CoordDropper,
    Fanout,
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
from ..formats.tensor import FiberTensor, scalar_tensor
from ..sim.backends import SimulationReport, run_blocks
from ..sim.backends.plan import (  # noqa: F401 (re-exported)
    FusedSegment,
    Plan,
    partition_segments,
    plan_blocks,
    segment_plan_key,
)
from ..streams.channel import Channel
from .builder import Graph
from .ir import GraphError, Node, SamGraph, fanout_groups


def node_ports(node: Node) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
    """(inputs, outputs) as (port, stream-kind) pairs for *node*'s kind."""
    kind = node.kind
    if kind == "root":
        return [], [("ref", "ref")]
    if kind == "source":
        return [], [("out", node.params.get("stream_kind", "crd"))]
    if kind == "sink":
        return [("in", "crd")], []
    if kind == "level_scanner":
        ins = [("ref", "ref")]
        if node.params.get("skip"):
            ins.append(("skip", "crd"))
        return ins, [("crd", "crd"), ("ref", "ref")]
    if kind == "repeat":
        return [("crd", "crd"), ("ref", "ref")], [("ref", "ref")]
    if kind in ("intersect", "union"):
        sides: List[int] = node.params["sides"]
        ins = []
        outs = [("crd", "crd")]
        for i, arity in enumerate(sides):
            ins.append((f"crd{i}", "crd"))
            for j in range(arity):
                ins.append((f"ref{i}_{j}", "ref"))
                outs.append((f"ref{i}_{j}", "ref"))
            if node.params.get("skipping"):
                outs.append((f"skip{i}", "crd"))
        return ins, outs
    if kind == "alu":
        if "const" in node.params:
            return [("a", "vals")], [("val", "vals")]
        return [("a", "vals"), ("b", "vals")], [("val", "vals")]
    if kind == "reduce":
        n = node.params.get("n", 0)
        if n == 0:
            return [("val", "vals")], [("val", "vals")]
        if n == 1:
            return (
                [("crd", "crd"), ("val", "vals")],
                [("crd", "crd"), ("val", "vals")],
            )
        if n == 2:
            return (
                [("crd_outer", "crd"), ("crd_inner", "crd"), ("val", "vals")],
                [("crd_outer", "crd"), ("crd_inner", "crd"), ("val", "vals")],
            )
        raise GraphError(f"reducer dimension n={n} not supported")
    if kind == "crd_drop":
        mode = node.params.get("mode", "fiber")
        inner_kind = "vals" if mode == "value" else "crd"
        return (
            [("outer", "crd"), ("inner", inner_kind)],
            [("outer", "crd"), ("inner", inner_kind)],
        )
    if kind == "array":
        return [("ref", "ref")], [("val", "vals")]
    if kind == "level_writer":
        return [("crd", "crd")], []
    if kind == "vals_writer":
        return [("val", "vals")], []
    if kind == "locate":
        ins = [("crd", "crd"), ("ref", "ref")]
        if node.params.get("use_target"):
            ins.append(("target", "ref"))
        return ins, [("crd", "crd"), ("ref_found", "ref"), ("ref_in", "ref")]
    raise GraphError(f"unknown node kind {kind!r}")


class BoundGraph:
    """A bound graph: live blocks, channels, and result-writer handles.

    ``plan`` is the :class:`~repro.sim.backends.plan.Plan` of the blocks
    when the graph is frozen (shared by every bind of that graph with
    the same ``record`` and level classes), else None: the engine then
    plans the run itself.
    """

    def __init__(self, graph: SamGraph):
        self.graph = graph
        self.builder = Graph(graph.name)
        # Aliases onto the builder's collections (same underlying objects).
        self.blocks: List = self.builder.blocks
        self.channels: Dict[str, Channel] = self.builder.channels
        #: writer blocks keyed by IR node name
        self.writers: Dict[str, object] = {}
        self.plan: Optional[Plan] = None
        self._report: Optional[SimulationReport] = None

    def run(
        self,
        max_cycles: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> SimulationReport:
        from .builder import active_capture

        capture = active_capture()
        if capture is not None and not capture.simulate:
            self._report = SimulationReport(0, list(self.blocks))
            capture.record(self.blocks, self._report)
            return self._report
        self._report = run_blocks(
            self.blocks, max_cycles=max_cycles, backend=backend, plan=self.plan
        )
        if capture is not None:
            capture.record(self.blocks, self._report)
        return self._report

    @property
    def cycles(self) -> int:
        if self._report is None:
            raise RuntimeError("graph has not been run")
        return self._report.cycles


def _resolve_tensor(name: str, tensors: Dict[str, FiberTensor]) -> FiberTensor:
    if name not in tensors:
        raise GraphError(f"tensor {name!r} not supplied to bind()")
    value = tensors[name]
    # Accept numpy scalars too: the vectorized data plane hands back
    # np.float64 values, which sweep code may pass straight in as alphas.
    if isinstance(value, (int, float, np.number)):
        return scalar_tensor(float(value), name=name)
    return value


class _Wiring(NamedTuple):
    """The channels :func:`bind` makes for one graph and ``record``, by
    creation index, and where every node port finds its channel."""

    names: Tuple[str, ...]  # per channel
    kinds: Tuple[str, ...]
    records: Tuple[bool, ...]
    unused: Tuple[int, ...]  # dangling outputs
    fanouts: Tuple[Tuple[int, Tuple[int, ...], str], ...]  # (hub, legs, name)
    in_port: Dict[Tuple[str, str], int]  # (node, input port) -> channel
    out_port: Tuple[Tuple[Tuple[str, int], ...], ...]  # per node: (port, channel)


def _wire(graph: SamGraph, record: FrozenSet[str]) -> _Wiring:
    """One channel per input port; a fanout's hub stands for its source
    port, and an output no edge leaves gets a dangling channel."""
    groups = fanout_groups(graph)
    channels: List[Tuple[str, str, bool]] = []
    in_port: Dict[Tuple[str, str], int] = {}
    hubs: Dict[Tuple[str, str], int] = {}
    fanouts = []

    def channel(name: str, kind: str, rec: bool = False) -> int:
        channels.append((name, kind, rec))
        return len(channels) - 1

    for (src, src_port), edges in groups.items():
        rec = f"{src}.{src_port}" in record
        if len(edges) == 1:
            edge = edges[0]
            in_port[(edge.dst, edge.dst_port)] = channel(
                f"{src}.{src_port}->{edge.dst}.{edge.dst_port}", edge.kind, rec)
        else:
            hub = hubs[(src, src_port)] = channel(
                f"{src}.{src_port}", edges[0].kind, rec)
            legs = []
            for edge in edges:
                leg = in_port[(edge.dst, edge.dst_port)] = channel(
                    f"{src}.{src_port}->{edge.dst}.{edge.dst_port}", edge.kind)
                legs.append(leg)
            fanouts.append((hub, tuple(legs), f"fan:{src}.{src_port}"))
    unused = []
    out_port = []
    for node in graph.nodes.values():
        ports = []
        for port, kind in node_ports(node)[1]:
            edges = groups.get((node.name, port), [])
            if not edges:
                k = channel(f"{node.name}.{port}(dangling)", kind,
                            f"{node.name}.{port}" in record)
                unused.append(k)
            elif len(edges) == 1:
                k = in_port[(edges[0].dst, edges[0].dst_port)]
            else:
                k = hubs[(node.name, port)]
            ports.append((port, k))
        out_port.append(tuple(ports))
    names, kinds, records = zip(*channels) if channels else ((), (), ())
    return _Wiring(names, kinds, records, tuple(unused), tuple(fanouts),
                   in_port, tuple(out_port))


def bind(
    graph: SamGraph,
    tensors: Dict[str, FiberTensor],
    record: Tuple[str, ...] = (),
) -> BoundGraph:
    """Instantiate *graph* over *tensors*; ``record`` names edges to trace.

    Edge identifiers for ``record`` are ``"src.port"`` strings; recorded
    channels keep their full token history for stream analyses.

    What depends on the graph's structure alone is worked out once per
    frozen graph: its wiring per ``record``, and its validation and
    :class:`~repro.sim.backends.plan.Plan` per ``record`` and the
    classes of the levels bound (which pick the scanner classes).  A
    graph that fails validation keeps no plan, so every bind raises.
    """
    record = frozenset(record)
    memo = graph._bind_memo if graph._frozen else {}
    wiring = memo.get(record)
    if wiring is None:
        wiring = memo[record] = _wire(graph, record)
    bound = BoundGraph(graph)
    builder = bound.builder
    chans = [builder.channel(name, kind=kind, record=rec)
             for name, kind, rec in zip(wiring.names, wiring.kinds, wiring.records)]
    for k in wiring.unused:
        builder.unused(chans[k])
    for hub, legs, name in wiring.fanouts:
        builder.add(Fanout(chans[hub], [chans[k] for k in legs], name=name))
    in_port = wiring.in_port
    levels = []  # the class of every level bound, in node order

    def in_channel(node: Node, port: str) -> Optional[Channel]:
        k = in_port.get((node.name, port))
        return None if k is None else chans[k]

    def require(node: Node, port: str) -> Channel:
        k = in_port.get((node.name, port))
        if k is None:
            raise GraphError(f"input {node.name}.{port} is not connected")
        return chans[k]

    for node, out_port in zip(graph.nodes.values(), wiring.out_port):
        kind = node.kind
        out = {port: chans[k] for port, k in out_port}
        if kind == "root":
            builder.add(RootFeeder(out["ref"], name=node.name))
        elif kind == "source":
            builder.add(
                StreamFeeder(node.params["tokens"], out["out"], name=node.name)
            )
        elif kind == "sink":
            builder.add(Sink(require(node, "in"), name=node.name))
        elif kind == "level_scanner":
            tensor = _resolve_tensor(node.params["tensor"], tensors)
            level = tensor.levels[node.params["depth"]]
            levels.append(type(level))
            builder.add(
                make_scanner(
                    level,
                    require(node, "ref"),
                    out["crd"],
                    out["ref"],
                    in_skip=in_channel(node, "skip"),
                    name=node.name,
                )
            )
        elif kind == "repeat":
            sig, rep = make_repeater(
                require(node, "crd"), require(node, "ref"), out["ref"], name=node.name
            )
            builder.add_all([sig, rep])
        elif kind in ("intersect", "union"):
            sides_spec: List[int] = node.params["sides"]
            sides = []
            out_ref_groups = []
            for i, arity in enumerate(sides_spec):
                refs = [require(node, f"ref{i}_{j}") for j in range(arity)]
                skip = out.get(f"skip{i}") if node.params.get("skipping") else None
                if skip is not None:
                    # Side-band port: the merger holds the skip channel
                    # without registering it, so exempt it from the
                    # producerless-stream check.
                    builder.unused(skip)
                sides.append(MergeSide(require(node, f"crd{i}"), refs, skip=skip))
                out_ref_groups.append([out[f"ref{i}_{j}"] for j in range(arity)])
            cls = Intersect if kind == "intersect" else Union
            builder.add(
                cls(sides, out["crd"], out_ref_groups, name=node.name)
            )
        elif kind == "alu":
            if "const" in node.params:
                builder.add(
                    ScalarALU(
                        node.params["op"],
                        node.params["const"],
                        require(node, "a"),
                        out["val"],
                        name=node.name,
                    )
                )
            else:
                builder.add(
                    ALU(
                        node.params["op"],
                        require(node, "a"),
                        require(node, "b"),
                        out["val"],
                        name=node.name,
                    )
                )
        elif kind == "reduce":
            n = node.params.get("n", 0)
            if n == 0:
                builder.add(
                    ScalarReducer(
                        require(node, "val"),
                        out["val"],
                        empty_policy=node.params.get("empty_policy", "zero"),
                        name=node.name,
                    )
                )
            elif n == 1:
                builder.add(
                    VectorReducer(
                        require(node, "crd"),
                        require(node, "val"),
                        out["crd"],
                        out["val"],
                        flush_level=node.params.get("flush_level", 1),
                        name=node.name,
                    )
                )
            else:
                builder.add(
                    MatrixReducer(
                        require(node, "crd_outer"),
                        require(node, "crd_inner"),
                        require(node, "val"),
                        out["crd_outer"],
                        out["crd_inner"],
                        out["val"],
                        name=node.name,
                    )
                )
        elif kind == "crd_drop":
            cls = ValueDropper if node.params.get("mode") == "value" else CoordDropper
            if cls is ValueDropper:
                block = ValueDropper(
                    require(node, "outer"),
                    require(node, "inner"),
                    out["outer"],
                    out["inner"],
                    name=node.name,
                )
            else:
                block = CoordDropper(
                    require(node, "outer"),
                    require(node, "inner"),
                    out["outer"],
                    out["inner"],
                    name=node.name,
                )
            builder.add(block)
        elif kind == "array":
            tensor = _resolve_tensor(node.params["tensor"], tensors)
            builder.add(
                ArrayLoad(tensor.vals, require(node, "ref"), out["val"], name=node.name)
            )
        elif kind == "level_writer":
            if node.params.get("format", "compressed") == "compressed":
                writer = CompressedLevelWriter(require(node, "crd"), name=node.name)
            else:
                writer = UncompressedLevelWriter(
                    node.params["size"], require(node, "crd"), name=node.name
                )
            bound.writers[node.name] = writer
            builder.add(writer)
        elif kind == "vals_writer":
            writer = ValsWriter(require(node, "val"), name=node.name)
            bound.writers[node.name] = writer
            builder.add(writer)
        elif kind == "locate":
            tensor = _resolve_tensor(node.params["tensor"], tensors)
            level = tensor.levels[node.params["depth"]]
            levels.append(type(level))
            builder.add(
                Locator(
                    level,
                    require(node, "crd"),
                    require(node, "ref"),
                    out["crd"],
                    out["ref_found"],
                    out["ref_in"],
                    in_target_ref=in_channel(node, "target"),
                    name=node.name,
                )
            )
        else:
            raise GraphError(f"cannot bind node kind {kind!r}")
    # Every bound graph is validated before it can run: kind mismatches,
    # duplicate producers, missing fanouts, and unconnected required
    # ports surface here, at bind time, naming the offending port.  A
    # frozen graph's plan stands for its validation: the same structure
    # passed it.
    key = (record, tuple(levels))
    plan = memo.get(key)
    if plan is None:
        builder.validate()
        if graph._frozen:
            plan = memo[key] = plan_blocks(bound.blocks)[0]
    bound.plan = plan
    return bound
