"""Declarative graph construction: typed ports, auto-wiring, validation.

:class:`Graph` is the layer every kernel uses.  A stream is *named
once* at its producer (:meth:`Graph.out`) and referenced by the same
name at its consumer (:meth:`Graph.in_`); matching names auto-wire the
edge, exactly as the SAM paper draws graphs (named streams between
typed block ports).  Explicit :meth:`Graph.connect` rebinds an input
port past the name matching, and :meth:`Graph.validate` checks the
whole graph *before it runs*: duplicate producers, multi-consumer
streams without a ``Fanout``, unconnected required ports, port/stream
kind mismatches against each block's
:class:`~repro.blocks.base.PortSpec` declarations, and capability
mismatches for the requested backend.  A validated graph can also be
nested: :meth:`Graph.as_node` exposes its open streams as ports so a
PE-array lane or a tiled kernel composes as a single node
(:meth:`Graph.include`).

Typical use::

    g = Graph("spmv")
    g.add(RootFeeder(g.out("root", "ref"), name="root_B"))
    g.add(make_scanner(level, g.in_("root"),
                       g.out("crd"), g.out("ref", "ref")))
    report = g.run(backend="compiled")   # validates, then simulates
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..blocks.base import Block
from ..sim.backends import SimulationReport, run_blocks
from ..streams.channel import Channel
from ..streams.channel import STREAM_KINDS


class RunCapture:
    """Recorder for simulation launches made while a capture is active.

    ``runs`` collects one ``(blocks, report)`` pair per launch through
    :meth:`Graph.run` or :meth:`repro.graph.bind.BoundGraph.run`.
    With ``simulate=False`` the launch is intercepted entirely: the
    block list is recorded and a zero-cycle report returned without
    running, so ``repro lint`` can collect graph structure from kernels
    whose results it does not need.
    """

    def __init__(self, simulate: bool = True):
        self.simulate = simulate
        self.runs: List[Tuple[List[Block], SimulationReport]] = []

    def record(self, blocks: Iterable[Block],
               report: SimulationReport) -> None:
        self.runs.append((list(blocks), report))


#: innermost-last stack of active captures (see :func:`capture_runs`)
_CAPTURE_STACK: List[RunCapture] = []


def active_capture() -> Optional[RunCapture]:
    """The innermost active :class:`RunCapture`, or None."""
    return _CAPTURE_STACK[-1] if _CAPTURE_STACK else None


@contextlib.contextmanager
def capture_runs(simulate: bool = True):
    """Record every graph launched through the builder/bind run paths.

    The static-analysis CLI uses this to get at the wired block lists
    kernels build internally::

        with capture_runs() as capture:
            spmv_locate(matrix, vector, backend="timed-batch")
        for blocks, report in capture.runs:
            ...

    ``simulate=False`` skips the simulations entirely (structure-only
    capture); kernels that consume their own intermediate results need
    the default ``simulate=True``.
    """
    capture = RunCapture(simulate=simulate)
    _CAPTURE_STACK.append(capture)
    try:
        yield capture
    finally:
        _CAPTURE_STACK.pop()


class GraphValidationError(RuntimeError):
    """A graph failed build-time validation.

    ``violations`` carries every individual finding; the message names
    the offending block and port for each.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations: List[str] = list(violations)
        super().__init__(
            "graph validation failed:\n  " + "\n  ".join(self.violations)
        )


class GraphNode:
    """A validated subgraph exposed as a single composite node.

    ``inputs`` maps each open (unfed) stream name to its channel,
    ``outputs`` each unconsumed one; handing those channels to blocks of
    the enclosing :class:`Graph` — a ``Parallelizer`` fanning into each
    lane's input, an ``InterleaveSerializer`` draining each lane's output
    — wires the composition without touching the subgraph's internals.
    """

    def __init__(self, graph: "Graph", inputs: Dict[str, Channel],
                 outputs: Dict[str, Channel]):
        self.graph = graph
        self.name = graph.name
        self.inputs = inputs
        self.outputs = outputs

    def input(self, name: str) -> Channel:
        return self.inputs[name]

    def output(self, name: str) -> Channel:
        return self.outputs[name]

    def __repr__(self) -> str:
        return (
            f"GraphNode({self.name!r}, in={sorted(self.inputs)}, "
            f"out={sorted(self.outputs)})"
        )


class Graph:
    """Declarative dataflow graph: named streams, typed ports, validation.

    A stream is declared exactly once at its producer with :meth:`out`
    and referenced by name at each consumer with :meth:`in_`; identical
    names auto-wire the edge.  :meth:`validate` (run automatically by
    :meth:`run`) rejects malformed graphs before simulation — see
    :class:`GraphValidationError` — using each block's
    :class:`~repro.blocks.base.PortSpec` declarations and capability
    flags.  :meth:`as_node`/:meth:`include` nest validated subgraphs as
    composite nodes.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.blocks: List[Block] = []
        self.channels: Dict[str, Channel] = {}
        #: stream names already claimed by a producer via :meth:`out`
        self._produced: Set[str] = set()
        #: channel ids exempt from connectivity checks (see :meth:`unused`)
        self._unchecked: Set[int] = set()

    # -- channels and blocks --------------------------------------------
    def channel(
        self,
        name: str,
        kind: str = "crd",
        capacity: Optional[int] = None,
        record: bool = False,
    ) -> Channel:
        """Create and register a channel; duplicate names are rejected."""
        if name in self.channels:
            raise ValueError(f"duplicate channel name {name!r}")
        chan = Channel(name, kind=kind, capacity=capacity, record=record)
        self.channels[name] = chan
        return chan

    def __getitem__(self, name: str) -> Channel:
        return self.channels[name]

    def __contains__(self, name: str) -> bool:
        return name in self.channels

    def add(self, block):
        """Register one block; returns it so writer handles can be kept."""
        self.blocks.append(block)
        return block

    def add_all(self, blocks: Iterable) -> None:
        """Register several blocks (e.g. the pair from ``make_repeater``)."""
        self.blocks.extend(blocks)

    # -- declarative wiring ---------------------------------------------
    def out(
        self,
        name: str,
        kind: str = "crd",
        capacity: Optional[int] = None,
        record: bool = False,
    ) -> Channel:
        """Declare stream *name* at its producer; creates the channel.

        A second ``out()`` for the same name is rejected immediately —
        one stream has one producer (merge explicitly through an
        ``InterleaveSerializer`` instead).  Adopts a forward-referenced
        channel created earlier by :meth:`in_` when the declarations agree;
        conflicting re-declarations (a different kind or capacity than
        the forward reference committed to) raise instead of silently
        mutating the channel consumers already hold.
        """
        if kind not in STREAM_KINDS:
            raise ValueError(f"unknown stream kind {kind!r} for {name!r}")
        if name in self._produced:
            raise GraphValidationError(
                f"stream {name!r} declared by two producers; merge them "
                f"through an InterleaveSerializer or rename one"
            )
        self._produced.add(name)
        if name in self.channels:
            chan = self.channels[name]
            if chan.kind != kind:
                raise GraphValidationError(
                    f"stream {name!r} was forward-referenced as kind "
                    f"{chan.kind!r} but its producer declares {kind!r}; "
                    f"make the declarations agree"
                )
            if capacity is not None:
                if chan.capacity is not None and chan.capacity != capacity:
                    raise GraphValidationError(
                        f"stream {name!r} already has capacity "
                        f"{chan.capacity} but its producer re-declares "
                        f"capacity {capacity}; conflicting capacities"
                    )
                chan.capacity = capacity
            if record:
                chan.record = record
            return chan
        return self.channel(name, kind, capacity=capacity, record=record)

    def in_(self, name: str, kind: Optional[str] = None) -> Channel:
        """Reference stream *name* at a consumer.

        Normally the producer has declared it already (graphs are built
        source-to-sink); passing ``kind`` allows a forward reference,
        creating the channel for a producer declared later.
        """
        if name in self.channels:
            return self.channels[name]
        if kind is None:
            raise GraphValidationError(
                f"stream {name!r} referenced before its producer declared "
                f"it; call out({name!r}, ...) first or pass kind= to "
                f"forward-reference"
            )
        return self.channel(name, kind)

    def unused(self, *streams) -> None:
        """Exempt streams from connectivity checks.

        Marks intentionally dangling outputs (a locator's unused
        coordinate stream) and side-band-fed inputs (merge-side skip
        channels, which the merger holds without registering) so
        :meth:`validate` does not flag them.
        """
        for stream in streams:
            chan = self.channels[stream] if isinstance(stream, str) else stream
            self._unchecked.add(id(chan))

    # -- validation ------------------------------------------------------
    def _scan(self, allow_open: bool = False):
        """Walk the wired blocks; returns (violations, open_in, open_out)."""
        producers: Dict[int, List[Tuple[Block, str]]] = {}
        consumers: Dict[int, List[Tuple[Block, str]]] = {}
        chan_by_id: Dict[int, Channel] = {}
        for block in self.blocks:
            for port, chan in block.outputs.items():
                producers.setdefault(id(chan), []).append((block, port))
                chan_by_id[id(chan)] = chan
            for port, chan in block.inputs.items():
                consumers.setdefault(id(chan), []).append((block, port))
                chan_by_id[id(chan)] = chan

        violations: List[str] = []
        open_in: Dict[str, Channel] = {}
        open_out: Dict[str, Channel] = {}

        for cid, plist in producers.items():
            chan = chan_by_id[cid]
            if len(plist) > 1:
                names = ", ".join(f"{b.name}.{p}" for b, p in plist)
                violations.append(
                    f"stream {chan.name!r} has multiple producers ({names}); "
                    f"merge them through an InterleaveSerializer"
                )
            if cid not in consumers and cid not in self._unchecked:
                block, port = plist[0]
                if allow_open:
                    open_out[chan.name or port] = chan
                else:
                    violations.append(
                        f"{block.name}.{port} writes stream {chan.name!r} "
                        f"which has no consumer; mark it unused() if "
                        f"intentional"
                    )
        for cid, clist in consumers.items():
            chan = chan_by_id[cid]
            if len(clist) > 1:
                names = ", ".join(f"{b.name}.{p}" for b, p in clist)
                violations.append(
                    f"stream {chan.name!r} has multiple consumers ({names}); "
                    f"split it through an explicit Fanout"
                )
            if cid not in producers and cid not in self._unchecked:
                block, port = clist[0]
                if allow_open:
                    open_in[chan.name or port] = chan
                else:
                    violations.append(
                        f"{block.name}.{port} reads stream {chan.name!r} "
                        f"which has no producer"
                    )

        for block in self.blocks:
            specs = type(block).port_specs
            for direction, registry in (("in", block.inputs),
                                        ("out", block.outputs)):
                for port, chan in registry.items():
                    spec = type(block).spec_for(direction, port)
                    if (spec is not None and spec.kind is not None
                            and chan.kind != spec.kind):
                        violations.append(
                            f"{block.name}.{port} expects a {spec.kind!r} "
                            f"stream but {chan.name!r} carries {chan.kind!r}"
                        )
            for spec in specs:
                if spec.variadic or spec.sideband or not spec.required:
                    continue
                registry = block.inputs if spec.direction == "in" else block.outputs
                if spec.name not in registry:
                    violations.append(
                        f"{block.name}: required {spec.direction} port "
                        f"{spec.name!r} is unconnected"
                    )
        return violations, open_in, open_out

    def validate(self, backend: Optional[str] = None,
                 analyze: bool = False) -> "Graph":
        """Check the wired graph; raises :class:`GraphValidationError`.

        Rejected at bind time, each naming the offending block and port:
        duplicate producers, multi-consumer streams without a Fanout,
        unconnected required ports (dangling outputs / unfed inputs),
        stream-kind mismatches against PortSpec declarations, and — when
        *backend* is given — blocks with no execution plane the backend
        can drive (capability mismatch).

        ``analyze=True`` additionally runs the static-analysis passes
        (:mod:`repro.analysis`: protocol inference and deadlock/capacity
        checking) and raises on any error-severity finding, so a graph
        can be proved protocol-consistent and deadlock-free before its
        first simulated cycle.
        """
        violations, _, _ = self._scan(allow_open=False)
        if backend is not None:
            from ..sim.backends import get_backend

            planes = set(get_backend(backend).planes)
            for block in self.blocks:
                caps = type(block).capabilities()
                if not caps & planes:
                    violations.append(
                        f"{block.name} ({type(block).__name__}) supports "
                        f"{sorted(caps)} but backend {backend!r} drives "
                        f"{sorted(planes)}; no common execution plane"
                    )
        if violations:
            raise GraphValidationError(violations)
        if analyze:
            from ..analysis import lint_blocks

            findings = lint_blocks(self.blocks).errors
            if findings:
                raise GraphValidationError(
                    [finding.render() for finding in findings]
                )
        return self

    # -- nested composition ---------------------------------------------
    def as_node(self) -> GraphNode:
        """Expose this validated subgraph as a single composite node.

        Internal wiring is checked (kinds, duplicate producers,
        multi-consumer streams); open streams become the node's port
        interface instead of violations.
        """
        violations, open_in, open_out = self._scan(allow_open=True)
        if violations:
            raise GraphValidationError(violations)
        return GraphNode(self, open_in, open_out)

    def include(self, node: GraphNode, prefix: Optional[str] = None) -> GraphNode:
        """Merge a composite node's blocks into this graph.

        Channels are registered under ``{prefix}.{name}``; the node's
        open ports stay addressable through ``node.input()``/
        ``node.output()`` for wiring to enclosing blocks.
        """
        prefix = prefix if prefix is not None else node.name
        for cname, chan in node.graph.channels.items():
            key = f"{prefix}.{cname}" if prefix else cname
            if key in self.channels:
                raise GraphValidationError(
                    f"including {node.name!r}: channel name {key!r} "
                    f"collides with an existing stream"
                )
            self.channels[key] = chan
        self.blocks.extend(node.graph.blocks)
        self._unchecked |= node.graph._unchecked
        return node

    # -- execution -------------------------------------------------------
    def run(
        self,
        max_cycles: Optional[int] = None,
        backend: Optional[str] = None,
        validate: bool = True,
    ) -> SimulationReport:
        """Validate (by default), then simulate on the chosen backend."""
        if validate:
            self.validate(backend=backend)
        capture = active_capture()
        if capture is not None and not capture.simulate:
            report = SimulationReport(0, list(self.blocks))
            capture.record(self.blocks, report)
            return report
        report = run_blocks(self.blocks, max_cycles=max_cycles,
                            backend=backend)
        if capture is not None:
            capture.record(self.blocks, report)
        return report

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, blocks={len(self.blocks)}, "
            f"channels={len(self.channels)})"
        )
