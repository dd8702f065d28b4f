"""Top-level Custard compilation entry point (paper section 5).

``compile_expression`` takes the three Custard inputs — an expression in
tensor index notation, a format language specification, and a schedule —
and produces a :class:`CompiledProgram`: a SAM dataflow graph that can be
simulated on any inputs matching the expression's signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..formats.tensor import FiberTensor, scalar_tensor
from ..graph.bind import BoundGraph, bind
from ..graph.dot import to_dot
from ..graph.ir import SamGraph
from ..sim import SimulationReport
from .ast import Assignment, ExpressionError
from .formats import FormatSpec
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


class CompiledProgram:
    """A compiled SAM program: graph + the metadata needed to execute it."""

    def __init__(
        self,
        assignment: Assignment,
        cin: ConcreteIndexNotation,
        graph: SamGraph,
        info: LoweredInfo,
        formats: FormatSpec,
    ):
        self.assignment = assignment
        self.cin = cin
        self.graph = graph
        self.info = info
        self.formats = formats

    # -- inspection ------------------------------------------------------
    @property
    def order(self) -> Tuple[str, ...]:
        return self.cin.order

    def primitive_counts(self) -> Dict[str, int]:
        """Table 1-style primitive tally for this program's graph."""
        return self.graph.primitive_counts()

    def to_dot(self) -> str:
        return to_dot(self.graph)

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
    """
    assignment = parse(expression) if isinstance(expression, str) else expression
    format_spec = FormatSpec.coerce(formats)
    cin = apply_schedule(assignment, Schedule.coerce(schedule))
    graph, info = lower(cin, format_spec, coordinate_skipping=coordinate_skipping)
    return CompiledProgram(assignment, cin, graph, info, format_spec)
