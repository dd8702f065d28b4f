"""Top-level Custard compilation entry point (paper section 5).

``compile_expression`` takes the three Custard inputs — an expression in
tensor index notation, a format language specification, and a schedule —
and produces a :class:`CompiledProgram`: a SAM dataflow graph that can be
simulated on any inputs matching the expression's signature.

A program depends on its specification alone, so each process compiles
a specification once: :func:`compile_expression` keeps a bounded memo
keyed by the normalised arguments and hands every caller the same
immutable program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..formats.tensor import FiberTensor, scalar_tensor
from ..graph.bind import BoundGraph, bind
from ..graph.dot import to_dot
from ..graph.ir import SamGraph
from ..sim import SimulationReport
from .ast import Assignment, ExpressionError
from .formats import FormatSpec, TensorFormat
from .lower import LoweredInfo, lower
from .parser import parse
from .schedule import ConcreteIndexNotation, Schedule, apply_schedule


def check_extents(operands: Iterable[Tuple[str, Sequence[str], Sequence[int]]]) -> None:
    """Reject operands an expression cannot mean.

    *operands* are ``(tensor, index variables, shape)`` triples, one per
    access.  Raises :class:`ExpressionError` for an access whose rank is
    not its tensor's and for an index variable with two extents (a graph
    run on those silently iterates the shorter one).
    """
    extents: Dict[str, Tuple[int, str]] = {}
    for tensor, indices, shape in operands:
        shape = tuple(shape)
        if len(shape) != len(indices):
            raise ExpressionError(
                f"tensor {tensor!r} has rank {len(shape)} (shape {shape}) but "
                f"is accessed as {tensor}({','.join(indices)})"
            )
        for var, extent in zip(indices, shape):
            first, owner = extents.setdefault(var, (extent, tensor))
            if first != extent:
                raise ExpressionError(
                    f"index variable {var!r} has two extents: {first} in "
                    f"{owner!r} and {extent} in {tensor!r}"
                )


@dataclass
class RunResult:
    """Output of one simulated execution of a compiled program."""

    output: Union[FiberTensor, float]
    cycles: int
    report: SimulationReport
    bound: BoundGraph

    def to_numpy(self) -> np.ndarray:
        if isinstance(self.output, FiberTensor):
            return self.output.to_numpy()
        return np.array(self.output)


@dataclass(frozen=True, eq=False)
class CompiledProgram:
    """A compiled SAM program: graph + the metadata needed to execute it.

    Immutable: :func:`compile_expression` hands the same program to every
    caller that compiles its specification, so nothing may change one
    after lowering.  Construction freezes the graph (a later ``add`` or
    ``connect`` raises :class:`~repro.graph.ir.GraphError`); facts that
    belong to one use of a program — a corpus entry's declared output
    format, a backend's fusion clusters — are passed beside it.
    """

    assignment: Assignment
    cin: ConcreteIndexNotation
    graph: SamGraph
    info: LoweredInfo
    formats: FormatSpec
    _counts: Mapping[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.graph.freeze()
        counts = MappingProxyType(self.graph.primitive_counts())
        object.__setattr__(self, "_counts", counts)

    # -- inspection ------------------------------------------------------
    def primitive_counts(self) -> Mapping[str, int]:
        """Table 1-style primitive tally for this program's graph, counted
        once, when the program was built (a read-only mapping)."""
        return self._counts

    def to_dot(self, clusters: Sequence[Tuple[str, Sequence[str]]] = ()) -> str:
        """The graph in DOT; *clusters* as :func:`repro.graph.dot.to_dot`."""
        return to_dot(self.graph, clusters)

    def __repr__(self) -> str:
        return f"CompiledProgram({self.assignment}, order={'->'.join(self.order)})"

    # -- execution -------------------------------------------------------
    def _prepare_inputs(self, tensors: Dict) -> Dict[str, FiberTensor]:
        for name in self.assignment.input_tensors:
            if name not in tensors:
                raise ExpressionError(f"missing input tensor {name!r}")
        check_extents(
            (a.tensor, a.indices, np.shape(tensors[a.tensor]))
            for a in self.assignment.accesses
        )
        prepared: Dict[str, FiberTensor] = {}
        for name in self.assignment.input_tensors:
            value = tensors[name]
            if isinstance(value, (int, float, np.number)):
                prepared[name] = scalar_tensor(float(value), name=name)
            elif isinstance(value, np.ndarray):
                access = next(
                    a for a in self.assignment.accesses if a.tensor == name
                )
                fmt = self.formats.for_access(access)
                prepared[name] = FiberTensor.from_numpy(
                    value, formats=fmt.formats, mode_order=fmt.mode_order, name=name
                )
            else:
                prepared[name] = value
        return prepared

    def _output_shape(self, tensors: Dict[str, FiberTensor]) -> Tuple[int, ...]:
        """Logical result shape, ordered by the lhs access's indices."""
        shape = []
        for var in self.assignment.lhs.indices:
            tensor_name, axis = self.info.dim_sources[var]
            shape.append(tensors[tensor_name].shape[axis])
        return tuple(shape)

    def run(
        self,
        tensors: Dict,
        record: Tuple[str, ...] = (),
        max_cycles: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> RunResult:
        """Bind the graph over *tensors*, simulate, and assemble the result.

        ``tensors`` maps tensor names to FiberTensors (or numpy arrays /
        plain floats for scalars); ``record`` lists ``"node.port"`` stream
        identifiers whose full token history should be captured for
        stream analyses (Figure 14); ``backend`` picks the simulation
        engine (see :mod:`repro.sim.backends`); a run that needs more
        than ``max_cycles`` cycles raises ``RuntimeError``.
        """
        prepared = self._prepare_inputs(tensors)
        bound = bind(self.graph, prepared, record=record)
        report = bound.run(max_cycles=max_cycles, backend=backend)
        vals_writer = bound.writers[self.info.vals_writer_node]
        if not self.info.lhs_vars:
            vals = vals_writer.vals
            value = float(vals[0]) if len(vals) else 0.0
            return RunResult(value, report.cycles, report, bound)
        levels = [
            bound.writers[self.info.writer_nodes[var]].level
            for var in self.info.lhs_vars
        ]
        # Storage level d holds lhs_vars[d]; map it to its logical axis so
        # schedules that write the result transposed stay correct.
        logical = self.assignment.lhs.indices
        mode_order = tuple(logical.index(var) for var in self.info.lhs_vars)
        output = FiberTensor(
            self._output_shape(prepared),
            levels,
            vals_writer.vals,
            mode_order=mode_order,
            name=self.assignment.lhs.tensor,
        )
        return RunResult(output, report.cycles, report, bound)


#: distinct programs one process keeps compiled, least recently used out
#: first.  Counted: a quick sweep at seed 7 compiles 62 distinct programs,
#: ``table1_mix`` 12 and Table 2's default corpus (400 entries) 276, so
#: the bound holds any one of them, or a sweep and the corpus, whole.
COMPILE_MEMO_SIZE = 512


def compile_expression(
    expression: Union[str, Assignment],
    formats: Optional[Dict] = None,
    schedule: Optional[Union[Schedule, Tuple[str, ...]]] = None,
    coordinate_skipping: bool = False,
) -> CompiledProgram:
    """Compile tensor index notation into a runnable SAM program.

    Parameters mirror Custard's three input APIs (Figure 10):

    * ``expression`` — e.g. ``"X(i,j) = B(i,k) * C(k,j)"``;
    * ``formats`` — per-tensor level formats, e.g.
      ``{"B": ["compressed", "compressed"], "C": (["compressed"]*2, (1, 0))}``;
    * ``schedule`` — an index-variable ordering, e.g. ``("i", "k", "j")``;
      defaults to alphabetical (the Table 1 convention).

    ``coordinate_skipping=True`` wires galloping feedback from every
    intersecter back to its trailing level scanners (section 4.2).

    A specification given as text is compiled once per process (up to
    :data:`COMPILE_MEMO_SIZE` distinct ones): every later call with the
    same text, formats, schedule and skipping returns the same immutable
    program without parsing, scheduling or lowering again.  A parsed
    :class:`Assignment` is mutable, so it is compiled afresh each call.
    """
    format_spec = FormatSpec.coerce(formats)
    reorder = Schedule.coerce(schedule).reorder
    key_formats = tuple(sorted(format_spec.formats.items()))
    key_order = None if reorder is None else tuple(reorder)
    if isinstance(expression, str):
        return _compile_text(expression, key_formats, key_order,
                             bool(coordinate_skipping))
    return _compile(expression, key_formats, key_order, coordinate_skipping)


@lru_cache(maxsize=COMPILE_MEMO_SIZE)
def _compile_text(
    text: str,
    formats: Tuple[Tuple[str, TensorFormat], ...],
    reorder: Optional[Tuple[str, ...]],
    coordinate_skipping: bool,
) -> CompiledProgram:
    return _compile(parse(text), formats, reorder, coordinate_skipping)


def _compile(
    assignment: Assignment,
    formats: Tuple[Tuple[str, TensorFormat], ...],
    reorder: Optional[Tuple[str, ...]],
    coordinate_skipping: bool,
) -> CompiledProgram:
    """Schedule and lower from normalised arguments; the program owns
    its :class:`FormatSpec`, never a caller's."""
    format_spec = FormatSpec(dict(formats))
    cin = apply_schedule(assignment, Schedule(reorder))
    graph, info = lower(cin, format_spec, coordinate_skipping=coordinate_skipping)
    return CompiledProgram(assignment, cin, graph, info, format_spec)
