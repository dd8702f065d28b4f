"""Repeater tests, including the paper's Figure 6 example.

The repeater's window hook against ``cycle`` under every delivery, and
its protocol-error table, are the ``repeat`` row of
``test_window_blocks.py``.
"""

import pytest

from repro.blocks import BlockError, RepeatSigGen, Repeater, StreamFeeder
from repro.sim import DeadlockError, run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop


def repeat(crd_tokens, ref_tokens, *, backend):
    """The repeated references of one ``RepeatSigGen`` -> ``Repeater``
    pair: *ref_tokens* repeated over the driving *crd_tokens*."""
    crd, ref = Channel("crd"), Channel("ref", kind="ref")
    sig = Channel("sig", kind="repsig")
    out = Channel("out", kind="ref", record=True)
    run_blocks([
        StreamFeeder(list(crd_tokens), crd, name="fc"),
        StreamFeeder(list(ref_tokens), ref, name="fr"),
        RepeatSigGen(crd, sig, name="repeat.sig"),
        Repeater(ref, sig, out, name="repeat"),
    ], backend=backend)
    return list(out.history)


class TestFigure6:
    def test_scalar_repeat(self, harness, engine):
        # Repeating c's root reference over b's coordinates:
        # "D, S0, 9, 8, 6, 2, 0" drives "D, 0" into "D, S0, 0, 0, 0, 0, 0".
        out = repeat(harness.paper("D, S0, 9, 8, 6, 2, 0"), harness.paper("D, 0"),
                     backend=engine)
        assert out == harness.paper("D, S0, 0, 0, 0, 0, 0")


class TestHierarchicalRepeat:
    def test_one_ref_per_fiber(self, harness, engine):
        # Two references, each repeated over its own driving fiber.
        out = repeat(
            harness.paper("D, S1, 12, 11, S0, 10"),
            harness.paper("D, S0, 7, 5"),
            backend=engine,
        )
        assert out == harness.paper("D, S1, 7, 7, S0, 5")

    def test_gustavson_shape(self, harness, engine):
        # B's per-(i,k) value refs repeated over C's j fibers (Figure 4).
        out = repeat(
            harness.paper("D, S2, 9, 8, S0, 7, S1, 6, S0, 5"),
            harness.paper("D, S1, 22, 21, S0, 20, 10"),
            backend=engine,
        )
        assert out == harness.paper("D, S2, 22, 22, S0, 21, S1, 20, S0, 10")

    def test_empty_driving_fiber_discards_ref(self, engine):
        # The middle reference's fiber is empty: it is skipped entirely.
        out = repeat(
            [0, Stop(0), Stop(0), 1, Stop(1), DONE],
            [10, 11, 12, Stop(0), DONE],
            backend=engine,
        )
        assert out == [10, Stop(0), Stop(0), 12, Stop(1), DONE]

    def test_empty_ref_fiber_elevated_driver_stop(self, engine):
        # An empty reference fiber pairs with an elevated driver stop
        # (the empty-intersection case of the SpMM dataflow).
        out = repeat(
            [Stop(1), 5, Stop(2), DONE],
            [Stop(0), 7, Stop(1), DONE],
            backend=engine,
        )
        assert out == [Stop(1), 7, Stop(2), DONE]

    def test_empty_token_repeats_as_empty(self, engine):
        out = repeat([3, 4, Stop(0), DONE], [EMPTY, DONE], backend=engine)
        assert out == [EMPTY, EMPTY, Stop(0), DONE]


class TestProtocolErrors:
    def test_driver_desync_detected(self, engine):
        with pytest.raises((BlockError, DeadlockError)):
            repeat([5, Stop(0), DONE], [1, 2, Stop(0), DONE], backend=engine)

    def test_done_mismatch_detected(self, engine):
        with pytest.raises((BlockError, DeadlockError)):
            repeat([DONE], [1, Stop(0), DONE], backend=engine)
