"""Run capture and the block-list validation of a bound graph.

Every graph runs through :meth:`repro.graph.bind.BoundGraph.run`;
:func:`capture_runs` records those launches for the analyses that read
wired block lists.  :func:`validate_blocks` checks a wired block list
*before it runs*: duplicate producers, multi-consumer streams without a
``Fanout``, unconnected required ports, port/stream kind mismatches
against each block's :class:`~repro.blocks.base.PortSpec` declarations,
and blocks no engine can run.  :func:`~repro.graph.bind.bind` calls it
on a graph's first bind.
"""

from __future__ import annotations

import contextlib
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple

from ..blocks.base import Block
from ..sim.backends import SimulationReport
from ..streams.channel import Channel


class RunCapture:
    """Recorder for simulation launches made while a capture is active.

    ``runs`` collects one ``(blocks, report)`` pair per launch through
    :meth:`repro.graph.bind.BoundGraph.run`, and ``graphs`` the
    :class:`~repro.graph.ir.SamGraph` each launch bound, in the same
    order.  With ``simulate=False`` the launch is intercepted entirely:
    the block list is recorded and a zero-cycle report returned without
    running, so ``repro lint`` can collect graph structure from kernels
    whose results it does not need.
    """

    def __init__(self, simulate: bool = True):
        self.simulate = simulate
        self.runs: List[Tuple[List[Block], SimulationReport]] = []
        self.graphs: List = []

    def record(self, blocks: Iterable[Block], report: SimulationReport,
               graph) -> None:
        self.runs.append((list(blocks), report))
        self.graphs.append(graph)


#: innermost-last stack of active captures (see :func:`capture_runs`)
_CAPTURE_STACK: List[RunCapture] = []


def active_capture() -> Optional[RunCapture]:
    """The innermost active :class:`RunCapture`, or None."""
    return _CAPTURE_STACK[-1] if _CAPTURE_STACK else None


@contextlib.contextmanager
def capture_runs(simulate: bool = True):
    """Record every graph launched through :meth:`BoundGraph.run`.

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


def validate_blocks(blocks: List[Block],
                    unchecked: AbstractSet[int] = frozenset()) -> None:
    """Check a wired block list; raises :class:`GraphValidationError`.

    Rejected, each naming the offending block and port: duplicate
    producers, multi-consumer streams without a Fanout, unconnected
    required ports (dangling outputs / unfed inputs, except the channels
    whose ids are in *unchecked*), stream-kind mismatches against
    PortSpec declarations, and blocks whose class defines no ``_run``
    generator: every engine runs a block on it when its window hook
    cannot, and ``cycle`` runs nothing else.
    """
    producers: Dict[int, List[Tuple[Block, str]]] = {}
    consumers: Dict[int, List[Tuple[Block, str]]] = {}
    chan_by_id: Dict[int, Channel] = {}
    for block in blocks:
        for port, chan in block.outputs.items():
            producers.setdefault(id(chan), []).append((block, port))
            chan_by_id[id(chan)] = chan
        for port, chan in block.inputs.items():
            consumers.setdefault(id(chan), []).append((block, port))
            chan_by_id[id(chan)] = chan

    violations: List[str] = []
    for cid, plist in producers.items():
        chan = chan_by_id[cid]
        if len(plist) > 1:
            names = ", ".join(f"{b.name}.{p}" for b, p in plist)
            violations.append(
                f"stream {chan.name!r} has multiple producers ({names}); "
                f"merge them through an InterleaveSerializer"
            )
        if cid not in consumers and cid not in unchecked:
            block, port = plist[0]
            violations.append(
                f"{block.name}.{port} writes stream {chan.name!r} "
                f"which has no consumer"
            )
    for cid, clist in consumers.items():
        chan = chan_by_id[cid]
        if len(clist) > 1:
            names = ", ".join(f"{b.name}.{p}" for b, p in clist)
            violations.append(
                f"stream {chan.name!r} has multiple consumers ({names}); "
                f"split it through an explicit Fanout"
            )
        if cid not in producers and cid not in unchecked:
            block, port = clist[0]
            violations.append(
                f"{block.name}.{port} reads stream {chan.name!r} "
                f"which has no producer"
            )

    for block in blocks:
        if type(block)._run is Block._run:
            violations.append(
                f"{block.name} ({type(block).__name__}) defines no _run "
                f"generator, so no engine can run it"
            )
        for direction, registry in (("in", block.inputs), ("out", block.outputs)):
            for port, chan in registry.items():
                spec = type(block).spec_for(direction, port)
                if (spec is not None and spec.kind is not None
                        and chan.kind != spec.kind):
                    violations.append(
                        f"{block.name}.{port} expects a {spec.kind!r} "
                        f"stream but {chan.name!r} carries {chan.kind!r}"
                    )
        for spec in type(block).port_specs:
            if spec.variadic or spec.sideband or not spec.required:
                continue
            registry = block.inputs if spec.direction == "in" else block.outputs
            if spec.name not in registry:
                violations.append(
                    f"{block.name}: required {spec.direction} port "
                    f"{spec.name!r} is unconnected"
                )
    if violations:
        raise GraphValidationError(violations)
