"""Tests for element-granularity distribution and interleave rejoin."""

from repro.blocks import InterleaveSerializer, Parallelizer, StreamFeeder
from repro.blocks.base import BlockError
from repro.sim import run_blocks
from repro.streams import Channel, DONE, Stop

import pytest


class TestElementParallelizer:
    def test_rotates_within_fiber(self, engine):
        src = Channel("s")
        lanes = [Channel(f"l{i}", record=True) for i in range(2)]
        run_blocks([
            StreamFeeder([10, 11, 12, Stop(0), DONE], src),
            Parallelizer(src, lanes, granularity="element"),
        ], backend=engine)
        assert list(lanes[0].history) == [10, 12, Stop(0), DONE]
        assert list(lanes[1].history) == [11, Stop(0), DONE]

    def test_rotation_resets_per_fiber(self, engine):
        src = Channel("s")
        lanes = [Channel(f"l{i}", record=True) for i in range(2)]
        run_blocks([
            StreamFeeder([1, Stop(0), 2, Stop(0), DONE], src),
            Parallelizer(src, lanes, granularity="element"),
        ], backend=engine)
        # Both fibers' first elements land on lane 0.
        assert list(lanes[0].history) == [1, Stop(0), 2, Stop(0), DONE]
        assert list(lanes[1].history) == [Stop(0), Stop(0), DONE]

    def test_unknown_granularity_rejected(self):
        with pytest.raises(BlockError):
            Parallelizer(Channel("s"), [Channel("l")], granularity="row")


class TestInterleaveSerializer:
    def test_round_robin_fibers(self, engine):
        lanes = [Channel("a"), Channel("b")]
        out = Channel("o", record=True)
        run_blocks([
            StreamFeeder([1, 2, Stop(0), 5, Stop(1), DONE], lanes[0], name="f0"),
            StreamFeeder([3, Stop(0), 6, 7, Stop(1), DONE], lanes[1], name="f1"),
            InterleaveSerializer(lanes, out),
        ], backend=engine)
        # Fibers interleave 0,1,0,1; boundaries normalise to S0 and the
        # joined stream's final stop is promoted.
        assert list(out.history) == [
            1, 2, Stop(0), 3, Stop(0), 5, Stop(0), 6, 7, Stop(1), DONE,
        ]

    def test_uneven_lane_counts(self, engine):
        lanes = [Channel("a"), Channel("b")]
        out = Channel("o", record=True)
        run_blocks([
            StreamFeeder([1, Stop(0), 3, Stop(1), DONE], lanes[0], name="f0"),
            StreamFeeder([2, Stop(1), DONE], lanes[1], name="f1"),
            InterleaveSerializer(lanes, out),
        ], backend=engine)
        assert list(out.history) == [1, Stop(0), 2, Stop(0), 3, Stop(1), DONE]

    def test_empty_fibers_preserved(self, engine):
        lanes = [Channel("a"), Channel("b")]
        out = Channel("o", record=True)
        run_blocks([
            StreamFeeder([Stop(0), 3, Stop(1), DONE], lanes[0], name="f0"),
            StreamFeeder([2, Stop(1), DONE], lanes[1], name="f1"),
            InterleaveSerializer(lanes, out),
        ], backend=engine)
        assert list(out.history) == [Stop(0), 2, Stop(0), 3, Stop(1), DONE]

    def test_single_lane_identity_shape(self, engine):
        lane = Channel("a")
        out = Channel("o", record=True)
        tokens = [1, Stop(0), 2, Stop(1), DONE]
        run_blocks([
            StreamFeeder(tokens, lane),
            InterleaveSerializer([lane], out),
        ], backend=engine)
        assert list(out.history) == tokens
