"""Build-time validation of a wired block list.

Each wiring-error class :func:`repro.graph.validate_blocks` promises to
catch at bind time gets a test proving it is rejected *before*
simulation (previously these surfaced as mid-run stalls/bails or not at
all): kind mismatches, blocks with no ``_run`` generator, unconnected
required ports, duplicate producers, and multi-consumer streams without
an explicit Fanout.  Port declarations are covered alongside.
"""

import numpy as np
import pytest

from repro.blocks import (
    ALU,
    Block,
    Fanout,
    Intersect,
    PortError,
    PortSpec,
    Sink,
    StreamFeeder,
    Union,
)
from repro.formats import DenseLevel, FiberTensor
from repro.graph import (
    GraphError,
    GraphValidationError,
    SamGraph,
    bind,
    validate_blocks,
)
from repro.kernels import spmv
from repro.streams import Channel
from repro.streams.token import DONE


class TimedOnly(Block):
    """Synthetic block with only the timed drain hook (no generator)."""

    primitive = "alu"
    port_specs = (
        PortSpec("in", "in", kind=None),
        PortSpec("out", "out", kind=None),
    )

    def __init__(self, in_, out, name="timed_only"):
        super().__init__(name)
        self._in("in", in_)
        self._out("out", out)

    def drain_timed(self):
        return False


class OptionalWiring(Block):
    """Synthetic block whose constructor may leave ports unbound."""

    primitive = "sink"
    port_specs = (
        PortSpec("in_val", "in", kind="vals"),
        PortSpec("out_val", "out", kind="vals"),
    )

    def __init__(self, in_val=None, out_val=None, name="optional"):
        super().__init__(name)
        if in_val is not None:
            self._in("in_val", in_val)
        if out_val is not None:
            self._out("out_val", out_val)

    def _run(self):
        yield True


def _vals(name):
    return Channel(name, kind="vals")


def _feed(name, tokens, kind="vals"):
    """A feeder block on a new channel named *name*, and the channel."""
    chan = Channel(name, kind=kind)
    return StreamFeeder(tokens, chan, name=f"feed_{name}"), chan


def _rejected(*args, **kwargs) -> str:
    with pytest.raises(GraphValidationError) as err:
        validate_blocks(*args, **kwargs)
    return str(err.value)


class TestWiringErrors:
    def test_kind_mismatch_named_at_bind_time(self):
        feed_a, a = _feed("a", [1, DONE], kind="crd")  # wrong kind for an ALU
        feed_b, b = _feed("b", [2.0, DONE])
        x = _vals("x")
        blocks = [feed_a, feed_b, ALU("mul", a, b, x, name="mul"),
                  Sink(x, name="sink")]
        assert "mul.in_a expects a 'vals' stream but 'a' carries 'crd'" in (
            _rejected(blocks))

    def test_block_without_run_is_rejected(self):
        # Every engine falls back on a block's generator, and `cycle`
        # runs nothing else: a window hook alone is not enough.
        feed, a = _feed("a", [1.0, DONE])
        x = _vals("x")
        blocks = [feed, TimedOnly(a, x), Sink(x, name="sink")]
        message = _rejected(blocks)
        assert "timed_only (TimedOnly) defines no _run generator" in message
        assert "feed_a" not in message and "sink" not in message

    def test_unconnected_required_port(self):
        feed, a = _feed("a", [1.0, DONE])
        blocks = [feed, OptionalWiring(in_val=a)]  # out_val never bound
        assert "required out port 'out_val' is unconnected" in _rejected(blocks)

    def test_duplicate_port_bind_structural(self):
        # Two blocks pushing one channel without an InterleaveSerializer.
        x = _vals("x")
        blocks = [StreamFeeder([1.0, DONE], x, name="feed_1"),
                  StreamFeeder([2.0, DONE], x, name="feed_2"),
                  Sink(x, name="sink")]
        msg = _rejected(blocks)
        assert "multiple producers" in msg
        assert "feed_1.out" in msg and "feed_2.out" in msg
        assert "InterleaveSerializer" in msg

    def test_multi_consumer_needs_explicit_fanout(self):
        feed, a = _feed("a", [1.0, DONE])
        msg = _rejected([feed, Sink(a, name="sink_1"), Sink(a, name="sink_2")])
        assert "multiple consumers" in msg
        assert "sink_1.in" in msg and "sink_2.in" in msg
        assert "Fanout" in msg

    def test_explicit_fanout_passes(self):
        feed, a = _feed("a", [1.0, DONE])
        a0, a1 = _vals("a0"), _vals("a1")
        validate_blocks([feed, Fanout(a, [a0, a1], name="fan"),
                         Sink(a0, name="sink_1"), Sink(a1, name="sink_2")])

    def test_dangling_output_and_unused_exemption(self):
        feed, a = _feed("a", [1.0, DONE])
        assert "no consumer" in _rejected([feed])
        validate_blocks([feed], unchecked={id(a)})

    def test_producerless_input(self):
        assert "sink.in reads stream 'ghost' which has no producer" in (
            _rejected([Sink(_vals("ghost"), name="sink")]))

    def test_unknown_stream_kind_rejected(self):
        g = SamGraph("kindcheck")
        g.add("root", name="r")
        g.add("sink", name="s")
        with pytest.raises(ValueError):
            g.connect("r", "ref", "s", "in", kind="velocity")

    def test_all_violations_reported_together(self):
        feed, a = _feed("a", [1, DONE], kind="crd")
        blocks = [feed, ALU("mul", a, _vals("b"), _vals("x"), name="mul")]
        with pytest.raises(GraphValidationError) as err:
            validate_blocks(blocks)
        assert len(err.value.violations) == 3  # kind, no producer, dangling


class TestPortDeclarations:
    def test_undeclared_port_rejected_at_construction(self):
        sink = Sink(_vals("a"), name="sink")
        with pytest.raises(PortError) as err:
            sink._in("bogus", _vals("b"))
        assert "no declared in port 'bogus'" in str(err.value)

    def test_variadic_spec_matches_indices(self):
        spec = PortSpec("out{i}", "out", variadic=True)
        assert spec.matches("out0") and spec.matches("out17")
        assert not spec.matches("out") and not spec.matches("outx")
        pair = PortSpec("ref{i}_{j}", "in", variadic=True)
        assert pair.matches("ref2_0") and not pair.matches("ref2_")

    def test_subclass_with_its_own_specs_keeps_its_own_answers(self):
        class Parent(Block):
            port_specs = (PortSpec("in", "in", kind="crd"),
                          PortSpec("out{i}", "out", variadic=True))

        class Child(Parent):
            port_specs = (PortSpec("in", "in", kind="vals"),
                          PortSpec("lane{i}", "out", variadic=True))

        class Heir(Parent):  # declares nothing: the parent's specs
            pass

        assert Parent.spec_for("in", "in").kind == "crd"
        assert Parent.spec_for("out", "out3").name == "out{i}"
        assert Parent.spec_for("out", "lane3") is None
        assert Child.spec_for("in", "in").kind == "vals"
        assert Child.spec_for("out", "out3") is None
        assert Child.spec_for("out", "lane3").name == "lane{i}"
        assert Heir.spec_for("out", "out3") is Parent.spec_for("out", "out3")
        assert Heir.spec_for("out", "lane3") is None

    def test_variadic_ports_resolve(self):
        for merger in (Intersect, Union):
            assert merger.spec_for("in", "crd12").name == "crd{i}"
            assert merger.spec_for("in", "ref3_0").name == "ref{i}_{j}"
            assert merger.spec_for("out", "out_ref3_0").name == "out_ref{i}_{j}"
            assert merger.spec_for("in", "ref3_") is None
        assert Fanout.spec_for("out", "out12").name == "out{i}"
        assert Fanout.spec_for("in", "out12") is None

    def test_undeclared_port_error_lists_the_declared_ports(self):
        fanout = Fanout(Channel("a"), [Channel("b")], name="fan")
        for attempt in range(2):  # the second lookup answers from the memo
            with pytest.raises(PortError) as err:
                fanout._in("in0", Channel(f"c{attempt}"))
            assert str(err.value) == (
                "fan: no declared in port 'in0' on Fanout (declared: in)")
            with pytest.raises(PortError) as err:
                fanout._out("lane0", Channel(f"d{attempt}"))
            assert str(err.value) == (
                "fan: no declared out port 'lane0' on Fanout (declared: out{i})")



class TestSpmvLocateRegression:
    """Dropping one node from the spmv_locate graph, as bind sees it.

    Before validation this bug class was silent: the graph wired a
    channel nobody fed (or drained), and the simulation stalled or hung
    until the cycle ceiling.  Both halves now fail at bind, naming the
    port: a dropped producer leaves an input unfed, and a dropped
    consumer leaves an output no edge leaves that its node kind does
    not declare open.
    """

    B = np.array([[1.0, 0.0], [0.0, 2.0]])
    c = np.array([3.0, 4.0])

    def _bind_locate(self, drop=None):
        full = spmv.locate_graph()
        g = SamGraph(full.name)
        for node in full.nodes.values():
            if node.name != drop:
                g.add(node.kind, name=node.name, **node.params)
        for edge in full.edges:
            if drop not in (edge.src, edge.dst):
                g.connect(edge.src, edge.src_port, edge.dst, edge.dst_port, edge.kind)
        ct = FiberTensor((self.c.size,), [DenseLevel(self.c.size)], self.c, name="c")
        return bind(g, {"B": FiberTensor.from_numpy(self.B, name="B"), "c": ct})

    def test_intact_graph_validates_and_runs(self, engine):
        bound = self._bind_locate()
        assert bound.run(backend=engine).cycles > 0
        assert bound.writers["write_x_vals"].vals.tolist() == [3.0, 8.0]

    def test_dropped_consumer_is_a_bind_time_error(self):
        with pytest.raises(GraphError,
                           match=r"output drop_zero\.inner is not connected"):
            self._bind_locate(drop="write_x_vals")

    def test_dropped_producer_is_a_bind_time_error(self):
        with pytest.raises(GraphError, match=r"input reduce_j\.val is not connected"):
            self._bind_locate(drop="mul")
