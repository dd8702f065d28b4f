"""Run capture: the plumbing the analyzer rides on.

:func:`capture_runs` snapshots every simulation launched through
:meth:`~repro.graph.bind.BoundGraph.run` (optionally without
simulating), with the :class:`~repro.graph.ir.SamGraph` each launch
bound.
"""

from repro.graph import SamGraph, active_capture, bind, capture_runs
from repro.streams.token import DONE, Stop


def _alu_graph():
    """Tiny valid graph: two value feeders, a multiply, a sink."""
    g = SamGraph("alu")
    for name, tokens in (("feed_a", [1.0, 2.0, Stop(0), DONE]),
                         ("feed_b", [3.0, 4.0, Stop(0), DONE])):
        g.add("source", name=name, tokens=tokens, stream_kind="vals")
    g.add("alu", name="mul", op="mul")
    g.connect("feed_a", "out", "mul", "a")
    g.connect("feed_b", "out", "mul", "b")
    g.add("vals_writer", name="sink")
    g.connect("mul", "val", "sink", "val")
    return g


class TestCaptureRuns:
    def test_capture_records_each_launch(self, engine):
        graph = _alu_graph()
        with capture_runs() as capture:
            report = bind(graph, {}).run(backend=engine)
        assert report.cycles > 0
        assert len(capture.runs) == 1
        blocks, captured_report = capture.runs[0]
        assert {b.name for b in blocks} == {"feed_a", "feed_b", "mul",
                                            "sink"}
        assert captured_report is report
        assert capture.graphs == [graph]

    def test_capture_without_simulation(self):
        with capture_runs(simulate=False) as capture:
            report = bind(_alu_graph(), {}).run()
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
