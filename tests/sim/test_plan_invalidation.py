"""A plan kept with a frozen graph never outlives what it assumed.

``bind`` plans a frozen graph once per ``record`` and bound level
classes, and hands that plan to every later run of the graph.  A run
re-checks what may change after a bind (``Plan.live``): the wiring, each
channel's capacity and ``record``, the tokens queued before the run and
each block's own verdict.  Each case here changes one of those on a
shared compiled program whose plan is already made, then runs it on
every engine: the report must equal the changed graph's report on
``cycle`` (cycles, ``block_activity()``, ``graph_token_counts``), and on
a window engine ``report.handoff`` must be what a fresh, unmemoised plan
of the changed blocks gives.
"""

import numpy as np
import pytest

from repro.blocks import ALU, RootFeeder
from repro.formats import FiberTensor
from repro.graph import GraphValidationError
from repro.graph.bind import bind
from repro.lang import compile_expression
from repro.sim import graph_token_counts
from repro.sim.backends.plan import plan_blocks
from repro.streams import DONE, Channel

from blockkit import TIMED

SPMV = "x(i) = B(i,j) * c(j)"


def operands(formats=None):
    rng = np.random.default_rng(3)
    dense = np.where(rng.random((8, 6)) < 0.5, rng.uniform(0.1, 1.0, (8, 6)), 0.0)
    B = FiberTensor.from_numpy(dense, formats=formats, name="B")
    c = FiberTensor.from_numpy(rng.uniform(0.1, 1.0, 6), name="c")
    return {"B": B, "c": c}


def warm(record=()):
    """The shared program, run once so its plan for *record* is made."""
    program = compile_expression(SPMV)
    bind(program.graph, operands(), record=record).run(backend="compiled")
    return program


def traced():
    """``record`` naming a link inside the program's fused segment."""
    graph = compile_expression(SPMV).graph
    edge = next(e for e in graph.edges if graph.nodes[e.src].kind == "array")
    return (f"{edge.src}.{edge.src_port}",)


def same_as_cycle(engine, make):
    """Run ``make()``'s bound graph on *engine* and a second one on
    ``cycle``; every report field must agree.  Returns the engine's
    bound graph and report."""
    bound = make()
    fresh = plan_blocks(bound.blocks)[0]
    report = bound.run(backend=engine)
    oracle_bound = make()
    oracle = oracle_bound.run(backend="cycle")
    assert report.cycles == oracle.cycles
    assert report.block_activity() == oracle.block_activity()
    assert graph_token_counts(bound.blocks) == graph_token_counts(oracle_bound.blocks)
    if engine in TIMED:
        assert report.handoff == fresh.handoff
    return bound, report


def of_class(bound, cls):
    return next(b for b in bound.blocks if type(b) is cls)


def test_rebind_input_after_bind(engine):
    program = warm()

    def make():
        bound = bind(program.graph, operands())
        alu = of_class(bound, ALU)
        a, b = alu.inputs["in_a"], alu.inputs["in_b"]
        alu.rebind_input("in_a", Channel("swap", kind="vals"))
        alu.rebind_input("in_b", a)
        alu.rebind_input("in_a", b)
        assert bound.plan is not None and bound.plan.live(bound.blocks) is None
        return bound

    same_as_cycle(engine, make)


def test_finite_capacity_after_bind(engine):
    program = warm()

    def make():
        bound = bind(program.graph, operands())
        for ch in of_class(bound, ALU).outputs.values():
            ch.capacity = 1
        assert bound.plan.live(bound.blocks) is None
        return bound

    _, report = same_as_cycle(engine, make)
    if engine in TIMED:
        assert "capacity 1 without a credit pair" in report.handoff


class Ref(int):
    """A reference the batch plane refuses: not exactly an ``int``."""


@pytest.mark.parametrize("ref", [0, Ref(0)], ids=["batchable", "unbatchable"])
def test_channel_prefilled_after_bind(engine, ref):
    """The root's reference stream queued before the run instead of
    played; ``Ref(0)`` reads as fiber 0 but does not batch."""
    program = warm()

    def make():
        bound = bind(program.graph, operands())
        for root in (b for b in bound.blocks if type(b) is RootFeeder):
            root.tokens = []
            root.out.queue.extend([ref, DONE])
        held = bound.plan.live(bound.blocks)
        assert (held is not None) == (type(ref) is int)
        return bound

    _, report = same_as_cycle(engine, make)
    if engine in TIMED:
        assert (report.handoff is None) == (type(ref) is int)


def test_two_record_tuples(engine):
    """One program bound with and without a recorded link inside its
    fused segment: two plans, each run as its own graph."""
    program = warm(())
    warm(traced())
    fusion = {}
    for record in ((), traced(), ()):
        bound = bind(program.graph, operands(), record)
        assert bound.plan.live(bound.blocks) is not None  # its own plan
        bound, report = same_as_cycle(
            engine, lambda record=record: bind(program.graph, operands(), record))
        assert sum(ch.record for ch in bound.channels.values()) == len(record)
        if engine == "compiled":
            fusion[record] = report.fusion["fused_blocks"]
    if engine == "compiled":
        assert fusion[traced()] < fusion[()]


def test_recorded_history_matches_cycle(engine):
    program = warm(traced())
    histories = []
    for backend in (engine, "cycle"):
        bound = bind(program.graph, operands(), traced())
        bound.run(backend=backend)
        histories.append([list(ch.history) for ch in bound.channels.values()
                          if ch.record])
    assert histories[0] == histories[1] != [[]]


def test_level_classes(engine):
    """Dense and compressed levels pick different scanner classes: two
    plans.  A bitvector level cannot feed the coordinate streams this
    graph wires, and every bind over one fails validation — the plan of
    the other levels never stands in for it."""
    program = warm()
    plans = {}
    for formats in (None, ["dense", "dense"], None):
        bound = bind(program.graph, operands(formats))
        assert bound.plan.live(bound.blocks) is not None  # its own plan
        bound, _ = same_as_cycle(
            engine, lambda formats=formats: bind(program.graph, operands(formats)))
        plans.setdefault(str(formats), bound.plan)
        assert bound.plan is plans[str(formats)]
        for _ in range(2):
            with pytest.raises(GraphValidationError, match="'bv'"):
                bind(program.graph, operands(["dense", "bitvector"]))
    assert plans["None"] is not plans[str(["dense", "dense"])]
