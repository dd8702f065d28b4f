"""Cycle engine tests."""

import pytest

from repro.blocks import ALU, Sink, StreamFeeder
from repro.sim import CycleEngine, DeadlockError, run_blocks
from repro.streams import Channel, DONE, Stop


class TestEngine:
    def test_cycle_count_linear_pipeline(self, engine):
        # A feeder pushing N tokens runs in N cycles; the sink consumes
        # in the same cycle (fully pipelined, zero-latency wires).
        src = Channel("s")
        tokens = [1, 2, 3, Stop(0), DONE]
        report = run_blocks([StreamFeeder(tokens, src), Sink(src)], backend=engine)
        assert report.cycles == len(tokens)

    def test_fully_pipelined_parallel_paths(self, engine):
        a, b = Channel("a", kind="vals"), Channel("b", kind="vals")
        out = Channel("o", kind="vals")
        tokens = [1.0, 2.0, Stop(0), DONE]
        report = run_blocks([
            StreamFeeder(tokens, a, name="fa"),
            StreamFeeder(tokens, b, name="fb"),
            ALU("add", a, b, out),
        ], backend=engine)
        # Both feeders run concurrently; the ALU overlaps with them.
        assert report.cycles <= 2 * len(tokens)

    def test_deadlock_detected(self, engine):
        # An ALU whose second input never arrives.
        a, b = Channel("a", kind="vals"), Channel("b", kind="vals")
        out = Channel("o", kind="vals")
        with pytest.raises(DeadlockError):
            run_blocks([StreamFeeder([1.0, DONE], a), ALU("add", a, b, out)],
                       backend=engine)

    def test_max_cycles_guard(self, engine):
        src = Channel("s")
        with pytest.raises(RuntimeError):
            run_blocks(
                [StreamFeeder(list(range(100)) + [DONE], src), Sink(src)],
                max_cycles=5,
                backend=engine,
            )

    def test_duplicate_names_rejected(self):
        src = Channel("s")
        blocks = [StreamFeeder([DONE], src, name="x"), Sink(src, name="x")]
        with pytest.raises(ValueError):
            CycleEngine(blocks)

    def test_empty_engine_rejected(self):
        with pytest.raises(ValueError):
            CycleEngine([])

    def test_block_activity_report(self, engine):
        src = Channel("s")
        report = run_blocks([StreamFeeder([1, DONE], src, name="feed"),
                             Sink(src, name="sink")], backend=engine)
        activity = report.block_activity()
        assert activity["feed"]["busy"] == 2
        assert activity["sink"]["busy"] == 2
