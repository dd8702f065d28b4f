"""Coordinate dropper tests, including the paper's Figure 8 example."""

import pytest

from repro.blocks import BlockError, CoordDropper, StreamFeeder, ValueDropper
from repro.sim import run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop


def fiber_drop(outer_tokens, inner_tokens, drop_zeros=False, inner_kind="crd", *,
               backend):
    outer, inner = Channel("o"), Channel("i", kind=inner_kind)
    oo = Channel("oo", record=True)
    oi = Channel("oi", kind=inner_kind, record=True)
    dropper = CoordDropper(outer, inner, oo, oi, drop_zeros=drop_zeros)
    run_blocks([
        StreamFeeder(outer_tokens, outer, name="fo"),
        StreamFeeder(inner_tokens, inner, name="fi"),
        dropper,
    ], backend=backend)
    return list(oo.history), list(oi.history), dropper


def value_drop(crd_tokens, val_tokens, *, backend):
    crd, val = Channel("c"), Channel("v", kind="vals")
    oc = Channel("oc", record=True)
    ov = Channel("ov", kind="vals", record=True)
    run_blocks([
        StreamFeeder(crd_tokens, crd, name="fc"),
        StreamFeeder(val_tokens, val, name="fv"),
        ValueDropper(crd, val, oc, ov),
    ], backend=backend)
    return list(oc.history), list(ov.history)


class TestFigure8:
    def test_paper_example(self, harness, engine):
        # Dropping coordinate 2 (its inner fiber is empty) and promoting
        # the surrounding stop tokens.
        outer = harness.paper("D, S0, 3, 2, 1, 0")
        inner = harness.paper("D, S1, 3, 1, S0, S0, 2, 0, S0, 1")
        oo, oi, dropper = fiber_drop(outer, inner, backend=engine)
        assert oo == harness.paper("D, S0, 3, 1, 0")
        assert oi == harness.paper("D, S1, 3, 1, S0, 2, 0, S0, 1")
        assert dropper.dropped == 1


class TestFiberDropper:
    def test_nothing_dropped_when_effectual(self, harness, engine):
        outer = harness.paper("D, S0, 1, 0")
        inner = harness.paper("D, S1, 5, S0, 4")
        oo, oi, _ = fiber_drop(outer, inner, backend=engine)
        assert oo == outer
        assert oi == inner

    def test_all_fibers_dropped(self, engine):
        oo, oi, _ = fiber_drop(
            [0, 1, Stop(0), DONE],
            [Stop(0), Stop(1), DONE],
            backend=engine,
        )
        assert oo == [Stop(0), DONE]
        assert oi == [Stop(1), DONE]

    def test_leading_empty_fiber(self, engine):
        oo, oi, _ = fiber_drop(
            [0, 1, Stop(0), DONE],
            [Stop(0), 7, Stop(1), DONE],
            backend=engine,
        )
        assert oo == [1, Stop(0), DONE]
        assert oi == [7, Stop(1), DONE]

    def test_drop_zeros_mode(self, engine):
        # With drop_zeros, a fiber of explicit zeros is ineffectual.
        oo, oi, _ = fiber_drop(
            [0, 1, Stop(0), DONE],
            [0.0, Stop(0), 3.0, Stop(1), DONE],
            drop_zeros=True,
            inner_kind="vals",
            backend=engine,
        )
        assert oo == [1, Stop(0), DONE]
        assert oi == [3.0, Stop(1), DONE]

    def test_inner_desync_detected(self, engine):
        with pytest.raises(BlockError):
            fiber_drop([0, Stop(0), DONE], [DONE], backend=engine)


class TestValueDropper:
    def test_drops_zero_pairs(self, engine):
        oc, ov = value_drop(
            [0, 1, 2, Stop(0), DONE],
            [1.0, 0.0, 3.0, Stop(0), DONE],
            backend=engine,
        )
        assert oc == [0, 2, Stop(0), DONE]
        assert ov == [1.0, 3.0, Stop(0), DONE]

    def test_drops_empty_tokens(self, engine):
        oc, ov = value_drop([0, 1, Stop(0), DONE], [EMPTY, 2.0, Stop(0), DONE],
                            backend=engine)
        assert oc == [1, Stop(0), DONE]
        assert ov == [2.0, Stop(0), DONE]

    def test_stops_pass_through(self, engine):
        oc, ov = value_drop(
            [0, Stop(0), 1, Stop(1), DONE],
            [1.0, Stop(0), 2.0, Stop(1), DONE],
            backend=engine,
        )
        assert oc == [0, Stop(0), 1, Stop(1), DONE]
        assert ov == [1.0, Stop(0), 2.0, Stop(1), DONE]

    def test_misaligned_stops_rejected(self, engine):
        with pytest.raises(BlockError):
            value_drop([Stop(0), DONE], [Stop(1), DONE], backend=engine)
