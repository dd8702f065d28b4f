"""Build-time validation of the declarative graph layer.

Each wiring-error class the refactor promises to catch at bind time gets
a test proving it is rejected *before* simulation (previously these
surfaced as mid-run stalls/bails or not at all): kind mismatches,
backend-capability mismatches, unconnected required ports, duplicate
producers, and multi-consumer streams without an explicit Fanout.
Nested composition (``as_node``/``include``), explicit ``connect``
overrides, and the block-plane DOT renderer are covered alongside.
"""

import numpy as np
import pytest

from repro.blocks import (
    ALU,
    ArrayLoad,
    Block,
    CompressedLevelWriter,
    Fanout,
    Intersect,
    Locator,
    PortError,
    PortSpec,
    RootFeeder,
    ScalarReducer,
    Sink,
    StreamFeeder,
    Union,
    ValsWriter,
    ValueDropper,
    make_scanner,
)
from repro.formats import DenseLevel, FiberTensor
from repro.graph import GraphValidationError
from repro.graph.builder import Graph
from repro.streams.token import DONE

from blockkit import ENGINES, TIMED


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


def _feed(g, name, tokens, kind="vals", feeder=None):
    g.add(StreamFeeder(tokens, g.out(name, kind), name=feeder or f"feed_{name}"))


class TestWiringErrors:
    def test_kind_mismatch_named_at_bind_time(self):
        g = Graph("kinds")
        _feed(g, "a", [1.0, DONE], kind="crd")  # wrong kind for an ALU
        _feed(g, "b", [2.0, DONE])
        g.add(ALU("mul", g.in_("a"), g.in_("b"), g.out("x", "vals"),
                  name="mul"))
        g.add(Sink(g.in_("x"), name="sink"))
        with pytest.raises(GraphValidationError) as err:
            g.validate()
        assert "mul.in_a expects a 'vals' stream but 'a' carries 'crd'" in str(
            err.value
        )

    def test_capability_mismatch_per_backend(self):
        g = Graph("caps")
        _feed(g, "a", [1.0, DONE])
        g.add(TimedOnly(g.in_("a"), g.out("x", "vals")))
        g.add(Sink(g.in_("x"), name="sink"))
        assert "cycle" not in TIMED
        # Backends that drive the timed plane: fine.
        for backend in TIMED:
            g.validate(backend=backend)
        # Engines that only step generators: rejected.
        for backend in set(ENGINES) - set(TIMED):
            with pytest.raises(GraphValidationError) as err:
                g.validate(backend=backend)
            assert "timed_only" in str(err.value)
            assert "no common execution plane" in str(err.value)

    def test_capabilities_derived_from_hooks(self):
        assert TimedOnly.capabilities() == frozenset({"timed"})
        assert Sink.capabilities() == frozenset({"scalar", "timed"})
        assert OptionalWiring.capabilities() == frozenset({"scalar"})

    def test_unconnected_required_port(self):
        g = Graph("unbound")
        _feed(g, "a", [1.0, DONE])
        g.add(OptionalWiring(in_val=g.in_("a")))  # out_val never bound
        with pytest.raises(GraphValidationError) as err:
            g.validate()
        assert "required out port 'out_val' is unconnected" in str(err.value)

    def test_duplicate_producer_rejected_at_declaration(self):
        g = Graph("dup")
        g.out("x", "vals")
        with pytest.raises(GraphValidationError) as err:
            g.out("x", "vals")
        assert "two producers" in str(err.value)
        assert "InterleaveSerializer" in str(err.value)

    def test_duplicate_port_bind_structural(self):
        # Two blocks pushing one channel without an InterleaveSerializer:
        # caught even when the channel was shared directly, bypassing
        # Graph.out().
        g = Graph("dup2")
        chan = g.out("x", "vals")
        g.add(StreamFeeder([1.0, DONE], chan, name="feed_1"))
        g.add(StreamFeeder([2.0, DONE], chan, name="feed_2"))
        g.add(Sink(g.in_("x"), name="sink"))
        with pytest.raises(GraphValidationError) as err:
            g.validate()
        msg = str(err.value)
        assert "multiple producers" in msg
        assert "feed_1.out" in msg and "feed_2.out" in msg
        assert "InterleaveSerializer" in msg

    def test_multi_consumer_needs_explicit_fanout(self):
        g = Graph("fan")
        _feed(g, "a", [1.0, DONE])
        g.add(Sink(g.in_("a"), name="sink_1"))
        g.add(Sink(g.in_("a"), name="sink_2"))
        with pytest.raises(GraphValidationError) as err:
            g.validate()
        msg = str(err.value)
        assert "multiple consumers" in msg
        assert "sink_1.in" in msg and "sink_2.in" in msg
        assert "Fanout" in msg

    def test_explicit_fanout_passes(self):
        g = Graph("fan_ok")
        _feed(g, "a", [1.0, DONE])
        g.add(Fanout(g.in_("a"), [g.out("a0", "vals"), g.out("a1", "vals")],
                     name="fan"))
        g.add(Sink(g.in_("a0"), name="sink_1"))
        g.add(Sink(g.in_("a1"), name="sink_2"))
        g.validate()

    def test_dangling_output_and_unused_exemption(self):
        g = Graph("dangle")
        _feed(g, "a", [1.0, DONE])
        with pytest.raises(GraphValidationError) as err:
            g.validate()
        assert "no consumer" in str(err.value)
        g.unused("a")
        g.validate()

    def test_producerless_input(self):
        g = Graph("orphan")
        g.add(Sink(g.in_("ghost", kind="vals"), name="sink"))
        with pytest.raises(GraphValidationError) as err:
            g.validate()
        assert "sink.in reads stream 'ghost' which has no producer" in str(
            err.value
        )

    def test_forward_reference_requires_kind(self):
        g = Graph("fwd")
        with pytest.raises(GraphValidationError):
            g.in_("later")  # no kind, no producer yet
        chan = g.in_("later", kind="vals")
        assert g.out("later", "vals") is chan  # producer adopts it

    def test_unknown_stream_kind_rejected(self):
        g = Graph("kindcheck")
        with pytest.raises(ValueError):
            g.out("x", "velocity")

    def test_all_violations_reported_together(self):
        g = Graph("multi")
        _feed(g, "a", [1.0, DONE], kind="crd")
        g.add(ALU("mul", g.in_("a"), g.in_("b", kind="vals"),
                  g.out("x", "vals"), name="mul"))
        with pytest.raises(GraphValidationError) as err:
            g.validate()
        assert len(err.value.violations) == 3  # kind, no producer, dangling


class TestPortDeclarations:
    def test_undeclared_port_rejected_at_construction(self):
        g = Graph("ports")
        sink = Sink(g.out("a", "vals"), name="sink")
        with pytest.raises(PortError) as err:
            sink._in("bogus", g.out("b", "vals"))
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
        g = Graph("ports")
        fanout = Fanout(g.out("a", "crd"), [g.out("b", "crd")], name="fan")
        for attempt in range(2):  # the second lookup answers from the memo
            with pytest.raises(PortError) as err:
                fanout._in("in0", g.out(f"c{attempt}", "crd"))
            assert str(err.value) == (
                "fan: no declared in port 'in0' on Fanout (declared: in)")
            with pytest.raises(PortError) as err:
                fanout._out("lane0", g.out(f"d{attempt}", "crd"))
            assert str(err.value) == (
                "fan: no declared out port 'lane0' on Fanout (declared: out{i})")

    def test_rebind_unbound_port_rejected(self):
        g = Graph("rebind")
        sink = Sink(g.out("a", "vals"), name="sink")
        with pytest.raises(PortError):
            sink.rebind_input("other", g.out("b", "vals"))


class TestConnectOverride:
    def test_connect_repoints_consumer(self):
        g = Graph("connect")
        _feed(g, "a", [1.0, DONE])
        _feed(g, "b", [2.0, DONE])
        sink = g.add(Sink(g.in_("a"), name="sink"))
        g.connect("b", (sink, "in"))  # override the name auto-wiring
        g.unused("a")
        g.run(backend="cycle")
        assert sink.tokens[0] == 2.0

    def test_connect_accepts_block_port_pair(self):
        g = Graph("connect2")
        feed_a = g.add(StreamFeeder([1.0, DONE], g.out("a", "vals"),
                                    name="feed_a"))
        _feed(g, "b", [2.0, DONE])
        sink = g.add(Sink(g.in_("b"), name="sink"))
        g.connect((feed_a, "out"), (sink, "in"))
        g.unused("b")
        g.run(backend="cycle")
        assert sink.tokens[0] == 1.0


class TestNestedComposition:
    def _mac_node(self):
        sub = Graph("mac")
        a = sub.in_("a", kind="vals")
        b = sub.in_("b", kind="vals")
        sub.add(ALU("mul", a, b, sub.out("prod", "vals"), name="mul"))
        return sub.as_node()

    def test_as_node_exposes_open_streams(self):
        node = self._mac_node()
        assert sorted(node.inputs) == ["a", "b"]
        assert sorted(node.outputs) == ["prod"]

    def test_as_node_rejects_internal_violations(self):
        sub = Graph("bad")
        _feed(sub, "a", [1.0, DONE], kind="crd")
        sub.add(ALU("mul", sub.in_("a"), sub.in_("b", kind="vals"),
                    sub.out("x", "vals"), name="mul"))
        sub.add(Sink(sub.in_("x"), name="sink"))
        with pytest.raises(GraphValidationError):
            sub.as_node()

    def test_include_composes_and_runs(self):
        node = self._mac_node()
        g = Graph("parent")
        g.add(StreamFeeder([3.0, DONE], node.input("a"), name="feed_a"))
        g.add(StreamFeeder([4.0, DONE], node.input("b"), name="feed_b"))
        g.include(node)
        sink = g.add(Sink(node.output("prod"), name="sink"))
        report = g.run(backend="cycle")
        assert sink.tokens[0] == 12.0
        assert report.cycles > 0
        # Channels land under the subgraph prefix.
        assert "mac.prod" in g.channels

    def test_include_rejects_channel_collisions(self):
        node = self._mac_node()
        g = Graph("parent")
        g.out("mac.prod", "vals")
        g.add(StreamFeeder([1.0, DONE], node.input("a"), name="feed_a"))
        with pytest.raises(GraphValidationError) as err:
            g.include(node)
        assert "collides" in str(err.value)


class TestSpmvLocateRegression:
    """Dropping one connection from spmv_locate fails at bind, not mid-run.

    Before the declarative layer this bug class was silent: the graph
    hand-wired a channel nobody drained (or fed), and the simulation
    stalled or hung until the cycle ceiling.  Now ``run()`` validates
    first and names the port.
    """

    def _locate_graph(self, drop=None):
        B = np.array([[1.0, 0.0], [0.0, 2.0]])
        c = np.array([3.0, 4.0])
        bt = FiberTensor.from_numpy(B, name="B")
        g = Graph("spmv_locate")
        g.add(RootFeeder(g.out("root", "ref"), name="root_B"))
        g.add(make_scanner(bt.levels[0], g.in_("root"),
                           g.out("bi_crd"), g.out("bi_ref", "ref"),
                           name="scan_Bi"))
        g.add(make_scanner(bt.levels[1], g.in_("bi_ref"),
                           g.out("bj_crd"), g.out("bj_ref", "ref"),
                           name="scan_Bj"))
        g.add(Locator(DenseLevel(c.size), g.in_("bj_crd"), g.in_("bj_ref"),
                      g.out("loc_crd"), g.out("c_ref", "ref"),
                      g.out("b_ref", "ref"), name="locate_c"))
        g.unused("loc_crd")
        g.add(ArrayLoad(bt.vals, g.in_("b_ref"), g.out("b_val", "vals"),
                        name="vals_B"))
        g.add(ArrayLoad(c, g.in_("c_ref"), g.out("c_val", "vals"),
                        name="vals_c"))
        if drop != "mul":
            g.add(ALU("mul", g.in_("b_val"), g.in_("c_val"),
                      g.out("prod", "vals"), name="mul"))
        g.add(ScalarReducer(g.in_("prod", kind="vals"), g.out("sum", "vals"),
                            name="reduce_j"))
        g.add(ValueDropper(g.in_("bi_crd"), g.in_("sum"),
                           g.out("x_crd"), g.out("x_val", "vals"),
                           name="drop_zero"))
        g.add(CompressedLevelWriter(g.in_("x_crd"), name="write_x_i"))
        if drop != "write_x_vals":
            g.add(ValsWriter(g.in_("x_val"), name="write_x_vals"))
        return g

    def test_intact_graph_validates_and_runs(self):
        g = self._locate_graph()
        report = g.run(backend="cycle")
        assert report.cycles > 0

    def test_dropped_consumer_is_a_bind_time_error(self):
        g = self._locate_graph(drop="write_x_vals")
        with pytest.raises(GraphValidationError) as err:
            g.run(backend="cycle")
        assert ("drop_zero.out_val writes stream 'x_val' which has no "
                "consumer") in str(err.value)

    def test_dropped_producer_is_a_bind_time_error(self):
        g = self._locate_graph(drop="mul")
        with pytest.raises(GraphValidationError) as err:
            g.run(backend="cycle")
        msg = str(err.value)
        assert "reduce_j.in_val reads stream 'prod' which has no producer" in msg
        # The orphaned ALU inputs are reported in the same pass.
        assert "'b_val'" in msg and "'c_val'" in msg
