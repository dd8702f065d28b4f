"""Run capture, ``validate(analyze=True)``, and the out() conflict fix.

Covers the plumbing the analyzer rides on: :func:`capture_runs`
snapshots every simulation launch (optionally without simulating), the
declarative layer can run the analysis passes at validation time, and
``Graph.out()`` rejects re-declarations that conflict with a
forward-referenced channel instead of silently mutating it
(the old compat-shim behaviour).
"""

import pytest

from repro.blocks import ALU, Sink, StreamFeeder
from repro.graph import GraphValidationError, active_capture, capture_runs
from repro.graph.builder import Graph
from repro.streams.token import DONE, Stop


def _alu_graph(depth_b=1):
    """Tiny valid graph; depth_b=2 smuggles in a protocol depth bug."""
    g = Graph()
    a = g.out("a", "vals")
    b = g.out("b", "vals")
    g.add(StreamFeeder([1.0, 2.0, Stop(0), DONE], a, name="feed_a"))
    tokens_b = [3.0, 4.0, Stop(0), DONE]
    if depth_b == 2:
        tokens_b = [3.0, 4.0, Stop(0), Stop(1), DONE]
    g.add(StreamFeeder(tokens_b, b, name="feed_b"))
    g.add(ALU("mul", g.in_("a"), g.in_("b"), g.out("o", "vals"),
              name="mul"))
    g.add(Sink(g.in_("o"), name="sink"))
    return g


class TestCaptureRuns:
    def test_capture_records_each_launch(self, engine):
        with capture_runs() as capture:
            report = _alu_graph().run(backend=engine)
        assert report.cycles > 0
        assert len(capture.runs) == 1
        blocks, captured_report = capture.runs[0]
        assert {b.name for b in blocks} == {"feed_a", "feed_b", "mul",
                                            "sink"}
        assert captured_report is report

    def test_capture_without_simulation(self):
        with capture_runs(simulate=False) as capture:
            report = _alu_graph().run()
        # the launch is intercepted: no cycles spent, blocks captured
        assert report.cycles == 0
        assert len(capture.runs) == 1
        # and every channel counter is untouched
        blocks, _ = capture.runs[0]
        assert all(chan.pushed_total == 0
                   for b in blocks for chan in b.outputs.values())

    def test_stack_discipline(self):
        assert active_capture() is None
        with capture_runs() as outer:
            with capture_runs(simulate=False) as inner:
                assert active_capture() is inner
            assert active_capture() is outer
        assert active_capture() is None


class TestValidateAnalyze:
    def test_clean_graph_passes(self):
        g = _alu_graph()
        assert g.validate(analyze=True) is g

    def test_depth_bug_caught_at_validation_time(self):
        # both operands are vals-kind, so plain wiring validation is
        # happy; only protocol inference sees the nesting-depth skew
        g = _alu_graph(depth_b=2)
        g.validate()  # wiring-level: clean
        with pytest.raises(GraphValidationError) as err:
            g.validate(analyze=True)
        assert "depth-mismatch" in str(err.value)
        assert "mul" in str(err.value)


class TestOutConflictRejection:
    def test_kind_conflict_with_forward_reference_raises(self):
        g = Graph()
        g.in_("s", kind="crd")  # consumer forward-references as crd
        with pytest.raises(GraphValidationError) as err:
            g.out("s", "vals")
        assert "forward-referenced" in str(err.value)

    def test_capacity_conflict_raises(self):
        g = Graph()
        g.channel("s", "crd", capacity=4)
        with pytest.raises(GraphValidationError) as err:
            g.out("s", "crd", capacity=2)
        assert "conflicting capacities" in str(err.value)

    def test_agreeing_redeclaration_adopts_the_channel(self):
        g = Graph()
        fwd = g.in_("s", kind="crd")
        chan = g.out("s", "crd", capacity=8)
        assert chan is fwd
        assert chan.capacity == 8  # capacity fills in, never flips

    def test_same_capacity_is_not_a_conflict(self):
        g = Graph()
        g.channel("s", "crd", capacity=4)
        assert g.out("s", "crd", capacity=4).capacity == 4
