"""Binding: instantiate a SamGraph as simulator blocks and channels.

This is the "automatic binding from SAM to a streaming dataflow
simulator" of the paper's abstract: every IR node becomes a block, every
edge becomes a channel, and source ports feeding several consumers get a
fanout block (a wire split, not a SAM primitive).  A node's blocks are
made by its kind's :data:`~repro.graph.ir.NODE_KINDS` row.

The binder needs the actual tensors because scanners, arrays and locators
close over level/value storage ("memories are pre-initialised").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..blocks import Fanout
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
from .builder import active_capture, validate_blocks
from .ir import NODE_KINDS, GraphError, Node, SamGraph, fanout_groups, node_ports


class BoundGraph:
    """A bound graph: live blocks, channels, and result-writer handles.

    ``unchecked`` holds the ids of the channels the connectivity check
    exempts (the outputs a node kind may leave open, side-band skip
    channels).  ``plan`` is the :class:`~repro.sim.backends.plan.Plan`
    of the blocks when the graph is frozen (shared by every bind of that
    graph with the same ``record`` and level classes), else None: the
    engine then plans the run itself.
    """

    def __init__(self, graph: SamGraph):
        self.graph = graph
        self.blocks: List = []
        self.channels: Dict[str, Channel] = {}
        self.unchecked: Set[int] = set()
        #: writer blocks keyed by IR node name
        self.writers: Dict[str, object] = {}
        self.plan: Optional[Plan] = None

    #: what ``perfbench/workloads.py`` validates a bound graph through
    #: (``bound.builder.validate()``): the bound graph itself
    builder = property(lambda self: self)

    def validate(self) -> None:
        """:func:`~repro.graph.builder.validate_blocks` over the bound
        blocks."""
        validate_blocks(self.blocks, self.unchecked)

    def run(
        self,
        max_cycles: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> SimulationReport:
        """Simulate on *backend*; an active :func:`capture_runs` records
        the launch (and with ``simulate=False`` intercepts it)."""
        capture = active_capture()
        if capture is not None and not capture.simulate:
            report = SimulationReport(0, list(self.blocks))
        else:
            report = run_blocks(self.blocks, max_cycles=max_cycles,
                                backend=backend, plan=self.plan)
        if capture is not None:
            capture.record(self.blocks, report, self.graph)
        return report


class _Inputs(dict):
    """A node's input channels by port; a port no edge drives raises."""

    __slots__ = ("node",)
    node: str

    def __missing__(self, port: str):
        raise GraphError(f"input {self.node}.{port} is not connected")


class _Binding:
    """What a node's block factory reads beside its channels: the
    tensors bound, and the bound graph's exempt channels."""

    def __init__(self, bound: BoundGraph, tensors: Dict[str, FiberTensor]):
        self.unchecked = bound.unchecked
        self.tensors = tensors
        self.levels: List[type] = []  # the class of every level bound, in node order

    def unused(self, channel: Channel) -> None:
        """Exempt a side-band channel from the connectivity check."""
        self.unchecked.add(id(channel))

    def tensor(self, node: Node) -> FiberTensor:
        name = node.params["tensor"]
        if name not in self.tensors:
            raise GraphError(f"tensor {name!r} not supplied to bind()")
        value = self.tensors[name]
        # Accept numpy scalars too: the vectorized data plane hands back
        # np.float64 values, which sweep code may pass straight in as alphas.
        if isinstance(value, (int, float, np.number)):
            return scalar_tensor(float(value), name=name)
        return value

    def level(self, node: Node):
        level = self.tensor(node).levels[node.params["depth"]]
        self.levels.append(type(level))
        return level


class _Wiring(NamedTuple):
    """The channels :func:`bind` makes for one graph and ``record``, by
    creation index, and where every node port finds its channel."""

    names: Tuple[str, ...]  # per channel
    kinds: Tuple[str, ...]
    records: Tuple[bool, ...]
    unused: Tuple[int, ...]  # dangling outputs their kinds leave open
    unconnected: Tuple[str, ...]  # "node.port" of every other dangling output
    fanouts: Tuple[Tuple[int, Tuple[int, ...], str], ...]  # (hub, legs, name)
    in_ports: Tuple[Tuple[Tuple[str, int], ...], ...]  # per node: (port, channel)
    out_ports: Tuple[Tuple[Tuple[str, int], ...], ...]


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
    unused, unconnected = [], []
    in_ports: Dict[str, List[Tuple[str, int]]] = {name: [] for name in graph.nodes}
    for (name, port), k in in_port.items():
        in_ports[name].append((port, k))
    out_ports = []
    for node in graph.nodes.values():
        ports = []
        for port, kind in node_ports(node)[1]:
            edges = groups.get((node.name, port), [])
            if not edges:
                k = channel(f"{node.name}.{port}(dangling)", kind,
                            f"{node.name}.{port}" in record)
                if port in NODE_KINDS[node.kind].open_outputs:
                    unused.append(k)
                else:
                    unconnected.append(f"{node.name}.{port}")
            elif len(edges) == 1:
                k = in_port[(edges[0].dst, edges[0].dst_port)]
            else:
                k = hubs[(node.name, port)]
            ports.append((port, k))
        out_ports.append(tuple(ports))
    names, kinds, records = zip(*channels) if channels else ((), (), ())
    return _Wiring(names, kinds, records, tuple(unused), tuple(unconnected),
                   tuple(fanouts), tuple(tuple(in_ports[name]) for name in graph.nodes),
                   tuple(out_ports))


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
    chans = [Channel(name, kind=kind, record=rec)
             for name, kind, rec in zip(wiring.names, wiring.kinds, wiring.records)]
    bound.channels = dict(zip(wiring.names, chans))
    # an output its kind leaves open has no reader: it counts, keeps nothing
    for k in wiring.unused:
        chans[k].drops = True
        bound.unchecked.add(id(chans[k]))
    blocks = bound.blocks
    for hub, legs, name in wiring.fanouts:
        blocks.append(Fanout(chans[hub], [chans[k] for k in legs], name=name))
    binding = _Binding(bound, tensors)
    for node, in_ports, out_ports in zip(graph.nodes.values(), wiring.in_ports,
                                         wiring.out_ports):
        ins = _Inputs({port: chans[k] for port, k in in_ports})
        ins.node = node.name
        row = NODE_KINDS[node.kind]
        made = row.build(node, ins, {port: chans[k] for port, k in out_ports},
                         binding)
        blocks.extend(made)
        if row.column == "level_writer":
            bound.writers[node.name] = made[0]
    if wiring.unconnected:
        # An output no edge leaves is a lost result unless its kind's
        # row declares it open (NodeKind.open_outputs).
        raise GraphError(f"output {wiring.unconnected[0]} is not connected")
    # Every bound graph is validated before it can run: kind mismatches,
    # duplicate producers, missing fanouts, and unconnected required
    # ports surface here, at bind time, naming the offending port.  A
    # frozen graph's plan stands for its validation: the same structure
    # passed it.
    key = (record, tuple(binding.levels))
    plan = memo.get(key)
    if plan is None:
        bound.validate()
        if graph._frozen:
            plan = memo[key] = plan_blocks(blocks)[0]
    bound.plan = plan
    return bound
