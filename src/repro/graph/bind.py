"""Binding: instantiate a SamGraph as simulator blocks and channels.

This is the "automatic binding from SAM to a streaming dataflow
simulator" of the paper's abstract: every IR node becomes a block, every
edge becomes a channel, and source ports feeding several consumers get a
fanout block (a wire split, not a SAM primitive).

The binder needs the actual tensors because scanners, arrays and locators
close over level/value storage ("memories are pre-initialised").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
    """A bound graph: live blocks, channels, and result-writer handles."""

    def __init__(self, graph: SamGraph):
        self.graph = graph
        self.builder = Graph(graph.name)
        # Aliases onto the builder's collections (same underlying objects).
        self.blocks: List = self.builder.blocks
        self.channels: Dict[str, Channel] = self.builder.channels
        #: writer blocks keyed by IR node name
        self.writers: Dict[str, object] = {}
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
            self.blocks, max_cycles=max_cycles, backend=backend
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


def bind(
    graph: SamGraph,
    tensors: Dict[str, FiberTensor],
    record: Tuple[str, ...] = (),
) -> BoundGraph:
    """Instantiate *graph* over *tensors*; ``record`` names edges to trace.

    Edge identifiers for ``record`` are ``"src.port"`` strings; recorded
    channels keep their full token history for stream analyses.
    """
    bound = BoundGraph(graph)
    groups = fanout_groups(graph)

    # One channel per input port; a fanout's hub stands for its source port.
    in_port: Dict[Tuple[str, str], Channel] = {}
    hubs: Dict[Tuple[str, str], Channel] = {}
    builder = bound.builder
    for (src, src_port), edges in groups.items():
        rec = f"{src}.{src_port}" in record
        if len(edges) == 1:
            edge = edges[0]
            in_port[(edge.dst, edge.dst_port)] = builder.channel(
                f"{src}.{src_port}->{edge.dst}.{edge.dst_port}",
                kind=edge.kind, record=rec,
            )
        else:
            hub = builder.channel(f"{src}.{src_port}", kind=edges[0].kind,
                                  record=rec)
            outs = []
            for edge in edges:
                leg = builder.channel(
                    f"{src}.{src_port}->{edge.dst}.{edge.dst_port}", kind=edge.kind
                )
                in_port[(edge.dst, edge.dst_port)] = leg
                outs.append(leg)
            builder.add(Fanout(hub, outs, name=f"fan:{src}.{src_port}"))
            hubs[(src, src_port)] = hub

    def out_channel(node: Node, port: str, kind: str) -> Channel:
        """Channel a node should push *port* into (hub, leg, or dangling)."""
        edges = groups.get((node.name, port), [])
        if not edges:
            chan = builder.channel(f"{node.name}.{port}(dangling)", kind=kind,
                                   record=f"{node.name}.{port}" in record)
            builder.unused(chan)
            return chan
        if len(edges) == 1:
            e = edges[0]
            return in_port[(e.dst, e.dst_port)]
        return hubs[(node.name, port)]

    def in_channel(node: Node, port: str) -> Optional[Channel]:
        return in_port.get((node.name, port))

    def require(node: Node, port: str) -> Channel:
        channel = in_channel(node, port)
        if channel is None:
            raise GraphError(f"input {node.name}.{port} is not connected")
        return channel

    for node in graph.nodes.values():
        kind = node.kind
        _, outs = node_ports(node)
        out = {port: out_channel(node, port, pkind) for port, pkind in outs}
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
    # ports surface here, at bind time, naming the offending port.
    builder.validate()
    return bound


# -- segment fusion ------------------------------------------------------
#
# The compiled backend (sim/backends/compiled.py) partitions a bound
# block list into fusible segments: maximal linear chains of
# descriptor-carrying blocks joined by single-producer/single-consumer
# channels, executed as one super-block per segment.  The partition is
# purely structural — roles come from each block's
# ``TimingDescriptor.fuse_role`` — so it can also annotate DOT renderings
# (graph/dot.py) without running anything.


from dataclasses import dataclass, field


#: roles that may continue a value chain after the head
_CHAIN_INTERIOR = ("map",)
#: roles that may close a value chain (a trailing "map" also closes one)
_CHAIN_TAIL = ("map", "reduce", "sink", "write")


@dataclass
class FusedSegment:
    """One fusible segment — a chain: zip/map head, map interiors,
    map/reduce/sink/write tail — as member block indices plus interior
    channels.

    ``kind`` is the human-readable classification used in fusion stats
    and DOT labels: ``"value-chain"``, or ``"writer-tail"`` for a chain
    closed by a writer.

    ``links`` holds the interior channels in flow order.  Fused
    execution never pushes tokens through them, so the engine
    reconstructs their token counts arithmetically.

    A zip head may additionally absorb one *feeder* per operand: a map
    block whose single output is that operand (e.g. the two value loads
    in front of a multiplier).  ``feeders`` holds ``(block index,
    feeder→head channel)`` pairs aligned with the head's input order,
    ``None`` for operands wired directly; feeder indices also appear in
    ``members`` (before the head) so claiming and reporting see them.
    """

    members: List[int]
    links: List[Channel] = field(default_factory=list)
    feeders: List = field(default_factory=list)
    kind: str = ""


def _fuse_role(block) -> str:
    timing = getattr(block, "timing", None)
    if timing is None or getattr(block, "drain_timed", None) is None:
        return ""
    return getattr(timing, "fuse_role", "")


def _link_ok(channel: Channel, producers, consumers) -> bool:
    """Whether *channel* can be a fused-interior link (structurally)."""
    return (
        channel.capacity is None
        and not channel.record
        and len(producers.get(channel, ())) == 1
        and len(consumers.get(channel, ())) == 1
    )


def partition_segments(blocks) -> List[FusedSegment]:
    """Partition *blocks* into fusible segments for the compiled backend.

    Returns the segments in head-index order; every block belongs to at
    most one segment and single-block "segments" are never emitted.  The
    rules (see docs/architecture.md, "segment fusion"):

    * a member joins a segment only through channels that are unbounded,
      unrecorded, and single-producer/single-consumer;
    * every input of a non-head member must come from its predecessor
      (no side entrances), and every output of a non-tail member must go
      to its successor (no side exits);
    * ``zip``/``map`` roles may head a value chain, ``map`` may continue
      it, and ``map``/``reduce``/``sink``/``write`` may close it.

    Blocks without a fuse role (scanners, locators, mergers, repeaters,
    droppers …) are never claimed: they run their own ``drain_timed`` on
    the plain timed plane (docs/architecture.md, "Segment fusion").
    """
    producers: Dict[Channel, List[int]] = {}
    consumers: Dict[Channel, List[int]] = {}
    for i, block in enumerate(blocks):
        for ch in block.outputs.values():
            producers.setdefault(ch, []).append(i)
        for ch in block.inputs.values():
            consumers.setdefault(ch, []).append(i)

    roles = [_fuse_role(b) for b in blocks]
    claimed = [False] * len(blocks)
    segments: List[FusedSegment] = []

    def sole_successor(i: int):
        """(next index, link) if *i*'s one output feeds an unclaimed
        block through a fusible link; else (None, None)."""
        outs = list(blocks[i].outputs.values())
        if len(outs) != 1 or not _link_ok(outs[0], producers, consumers):
            return None, None
        nxt = consumers[outs[0]][0]
        if claimed[nxt] or nxt == i:
            return None, None
        # No side entrances: every input of nxt must come from i.
        for ch in blocks[nxt].inputs.values():
            if producers.get(ch, [None])[0] != i:
                return None, None
        return nxt, outs[0]

    # A head is a zip/map block that could not itself be the
    # continuation of an earlier fusible member.
    def could_continue(i: int) -> bool:
        ins = list(blocks[i].inputs.values())
        if len(ins) != 1 or not _link_ok(ins[0], producers, consumers):
            return False
        prev = producers[ins[0]][0]
        if claimed[prev] or roles[prev] not in ("zip", "map"):
            return False
        nxt, _ = sole_successor(prev)
        return nxt == i

    def feeder_for(channel, head: int):
        """(map index, link) feeding *channel* into zip head, or None."""
        if not _link_ok(channel, producers, consumers):
            return None
        prev = producers[channel][0]
        if (
            claimed[prev]
            or prev == head
            or roles[prev] != "map"
            or len(blocks[prev].inputs) != 1
            or len(blocks[prev].outputs) != 1
        ):
            return None
        return prev, channel

    for i, block in enumerate(blocks):
        if claimed[i] or roles[i] not in ("zip", "map"):
            continue
        if roles[i] == "map" and could_continue(i):
            continue  # an earlier head will pick this block up
        feeders: List = []
        if roles[i] == "zip":
            feeders = [
                feeder_for(ch, i) for ch in block.inputs.values()
            ]
        members = [i]
        links: List[Channel] = []
        cur = i
        while True:
            nxt, link = sole_successor(cur)
            if nxt is None:
                break
            role = roles[nxt]
            if role not in _CHAIN_TAIL:
                break
            members.append(nxt)
            links.append(link)
            claimed[nxt] = True
            if role not in _CHAIN_INTERIOR:
                break  # reduce/sink close the chain
            cur = nxt
        n_feeders = sum(1 for f in feeders if f is not None)
        if len(members) + n_feeders < 2:
            for m in members[1:]:
                claimed[m] = False
            continue
        claimed[i] = True
        for entry in feeders:
            if entry is not None:
                claimed[entry[0]] = True
        members = [f[0] for f in feeders if f is not None] + members
        kind = "writer-tail" if roles[members[-1]] == "write" else "value-chain"
        segments.append(FusedSegment(members, links, feeders, kind))

    segments.sort(key=lambda s: s.members[0])
    return segments


def segment_plan_key(blocks, segment: "FusedSegment") -> Tuple:
    """Structural plan-cache key of one fused segment.

    Keys capture everything the compiled backend's composed schedule
    depends on — member classes, fuse roles, initiation intervals,
    transform tags, link visibility deltas,
    and feeder placement — and nothing run-specific (no clocks, no
    data), so repeated bindings of the same expression shape map to the
    same :data:`repro.jit.PLAN_CACHE` entry.  Link deltas are derived
    structurally (0 when the consumer runs later in the block list, 1
    otherwise — the rule the engine applies at init time), so keys
    computed without timed state (e.g. by ``repro graph --dump-plan``)
    match the engine's.
    """
    producers: Dict[Channel, int] = {}
    consumers: Dict[Channel, int] = {}
    for i, block in enumerate(blocks):
        for ch in block.outputs.values():
            producers[ch] = i
        for ch in block.inputs.values():
            consumers.setdefault(ch, i)
    members = []
    for i in segment.members:
        block = blocks[i]
        timing = getattr(block, "timing", None)
        ii = 1 if timing is None else timing.ii
        members.append(
            (type(block).__name__, _fuse_role(block), ii, block.plan_tag())
        )
    deltas = []
    for ch in segment.links:
        p = producers.get(ch)
        c = consumers.get(ch)
        deltas.append(0 if p is not None and c is not None and c > p else 1)
    feeders = tuple(f is not None for f in segment.feeders)
    return (
        segment.kind,
        tuple(members),
        tuple(deltas),
        feeders,
    )
