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

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

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
from .builder import Graph
from .ir import NODE_KINDS, GraphError, Node, SamGraph, fanout_groups, node_ports


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


class _Inputs(dict):
    """A node's input channels by port; a port no edge drives raises."""

    __slots__ = ("node",)
    node: str

    def __missing__(self, port: str):
        raise GraphError(f"input {self.node}.{port} is not connected")


class _Binding:
    """What a node's block factory reads beside its channels: the
    tensors bound, and the builder (which marks side-band channels)."""

    def __init__(self, builder: Graph, tensors: Dict[str, FiberTensor]):
        self.builder = builder
        self.tensors = tensors
        self.levels: List[type] = []  # the class of every level bound, in node order

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
    unused: Tuple[int, ...]  # dangling outputs
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
    unused = []
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
                unused.append(k)
            elif len(edges) == 1:
                k = in_port[(edges[0].dst, edges[0].dst_port)]
            else:
                k = hubs[(node.name, port)]
            ports.append((port, k))
        out_ports.append(tuple(ports))
    names, kinds, records = zip(*channels) if channels else ((), (), ())
    return _Wiring(names, kinds, records, tuple(unused), tuple(fanouts),
                   tuple(tuple(in_ports[name]) for name in graph.nodes),
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
    builder = bound.builder
    chans = [builder.channel(name, kind=kind, record=rec)
             for name, kind, rec in zip(wiring.names, wiring.kinds, wiring.records)]
    for k in wiring.unused:
        builder.unused(chans[k])
    for hub, legs, name in wiring.fanouts:
        builder.add(Fanout(chans[hub], [chans[k] for k in legs], name=name))
    binding = _Binding(builder, tensors)
    for node, in_ports, out_ports in zip(graph.nodes.values(), wiring.in_ports,
                                         wiring.out_ports):
        ins = _Inputs({port: chans[k] for port, k in in_ports})
        ins.node = node.name
        row = NODE_KINDS[node.kind]
        made = row.build(node, ins, {port: chans[k] for port, k in out_ports},
                         binding)
        builder.add_all(made)
        if row.column == "level_writer":
            bound.writers[node.name] = made[0]
    # Every bound graph is validated before it can run: kind mismatches,
    # duplicate producers, missing fanouts, and unconnected required
    # ports surface here, at bind time, naming the offending port.  A
    # frozen graph's plan stands for its validation: the same structure
    # passed it.
    key = (record, tuple(binding.levels))
    plan = memo.get(key)
    if plan is None:
        builder.validate()
        if graph._frozen:
            plan = memo[key] = plan_blocks(bound.blocks)[0]
    bound.plan = plan
    return bound
