"""Window-at-a-time ``CoordDropper.drain_timed`` against the cycle oracle.

The timed drain aligns the outer coordinates with the inner fibers once
per window (``streams.timing.align_chunks``, shared with the repeater),
schedules every gather, decision and fold event in one pass and pushes
each output once.  Everything here is differential: drawn protocol-
obeying streams — closings ``S0``/``S1``/``S2``, empty outer regions,
leading and all-dropped fibers, ``N`` and ``0.0`` inside fibers,
``drop_zeros`` both ways — delivered whole, in random slices, one token
a cycle through a scalar ``Relay`` on either input or behind the
outputs, or with part of a link already queued, must give the
``cycle`` engine's cycles, block activity, token counts, outputs and
``dropped`` count under ``timed-batch`` and ``compiled`` and its outputs
under ``functional``; every protocol error is one message on every
engine.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import BlockError, CoordDropper, StreamFeeder
from repro.sim import BACKENDS, graph_token_counts, run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop

from test_merge_window import Slicer
from test_reduce_window import canon
from test_repeat import Relay, assert_windows_sliced, probes, window_log

WIRINGS = ("plain", "relay-outer", "relay-inner", "prefilled-outer",
           "prefilled-inner", "relay-outputs", "sliced")


#: wiring -> the input links whose every push must be a window of its own
SLICING = {"relay-outer": ["outer"], "relay-inner": ["inner"],
           "sliced": ["outer", "inner"]}


def build(outer_tokens, inner_tokens, drop_zeros, wiring="plain", prefill=0):
    """``(blocks, recorded outputs, dropper)`` of one dropper.

    ``relay-*`` passes that input through a scalar ``Relay`` (one-token
    windows, one a cycle); ``prefilled-*`` starts the run with that
    link's first *prefill* tokens already queued; ``relay-outputs`` puts
    a scalar consumer behind both outputs, which sees a token the cycle
    it is stamped visible and no earlier; ``sliced`` delivers both
    inputs in slices of 1-5 tokens 1-4 cycles apart (seeded by
    *prefill*), so windows end anywhere.  An input relay and the slices
    come with a scalar probe behind each output: the dropper is woken
    every cycle and its windows end where the pushes do.
    """
    blocks, ins = [], []
    rng = random.Random(prefill)
    for side, tokens in (("outer", outer_tokens), ("inner", inner_tokens)):
        tokens = list(tokens)
        channel = Channel(side)
        if wiring == "sliced":
            plan = [(rng.randint(1, 5), rng.randint(0, 3)) for _ in tokens[::3]]
            blocks.append(Slicer(tokens, plan, channel, f"feed_{side}"))
            ins.append(channel)
            continue
        if wiring == f"prefilled-{side}":
            for token in tokens[:prefill]:
                channel.push(token)
            tokens = tokens[prefill:]
        if wiring == f"relay-{side}":
            raw = Channel(f"raw_{side}")
            blocks.append(StreamFeeder(tokens, raw, name=f"feed_{side}"))
            blocks.append(Relay(raw, channel, f"relay_{side}"))
        else:
            blocks.append(StreamFeeder(tokens, channel, name=f"feed_{side}"))
        ins.append(channel)
    outs = [Channel("oo", record=True), Channel("oi", record=True)]
    pushed = outs
    if wiring == "relay-outputs":
        pushed = [Channel("mo"), Channel("mi")]
        blocks += [Relay(mid, out, f"tail_{out.name}")
                   for mid, out in zip(pushed, outs)]
    dropper = CoordDropper(*ins, *pushed, drop_zeros=drop_zeros, name="drop")
    blocks.append(dropper)
    if wiring in SLICING:
        blocks += probes(outs)
    return blocks, outs, dropper


def run(streams, drop_zeros, backend, wiring="plain", prefill=0):
    """Everything a backend may not change, outputs and count last."""
    blocks, outs, dropper = build(*streams, drop_zeros, wiring, prefill)
    with window_log() as log:
        report = run_blocks(blocks, backend=backend)
    if backend in ("timed-batch", "compiled"):
        for link in SLICING.get(wiring, ()):
            assert_windows_sliced(log, link)
    return (
        report.cycles,
        report.block_activity(),
        graph_token_counts(blocks),
        [[canon(t) for t in ch.history] for ch in outs],
        dropper.dropped,
    )


def assert_matches_cycle(streams, drop_zeros, wiring="plain", prefill=0):
    want = run(streams, drop_zeros, "cycle", wiring, prefill)
    for backend in ("timed-batch", "compiled"):
        assert run(streams, drop_zeros, backend, wiring, prefill) == want, backend
    assert run(streams, drop_zeros, "functional", wiring, prefill)[3:] == want[3:]
    return want


# -- drawn structures ----------------------------------------------------------
#: one inner fiber: effectual values, explicit zeros and N in any mix
fibers = st.lists(st.sampled_from([1.0, 2.5, 0.0, -0.0, EMPTY]), max_size=4)
#: supergroups -> groups -> fibers (one per outer coordinate)
drop_shapes = st.lists(
    st.lists(st.lists(fibers, max_size=3), min_size=1, max_size=3),
    min_size=1, max_size=3,
)


def protocol_streams(shape):
    """An (outer, inner) pair obeying the dropper's protocol.

    One inner fiber per outer coordinate, closed by ``S0`` — or by an
    elevated stop when it also closes its group (``S1``) or supergroup
    (``S2``), which the outer stream mirrors one level down.  A group
    without coordinates is a bare outer stop against a bare elevated
    inner one.
    """
    outer, inner = [], []
    for supergroup in shape:
        for gi, group in enumerate(supergroup):
            up = 1 if gi == len(supergroup) - 1 else 0
            for j, fiber in enumerate(group):
                outer.append(len(outer))
                inner.extend(fiber)
                inner.append(Stop(up + 1) if j == len(group) - 1 else Stop(0))
            if not group:
                inner.append(Stop(up + 1))
            outer.append(Stop(up))
    return outer + [DONE], inner + [DONE]


class TestWindowDifferential:
    @pytest.mark.parametrize("wiring", WIRINGS)
    @settings(max_examples=60, deadline=None)
    @given(shape=drop_shapes, drop_zeros=st.booleans(), prefill=st.integers(1, 12))
    def test_full_report_identity(self, wiring, shape, drop_zeros, prefill):
        assert_matches_cycle(protocol_streams(shape), drop_zeros, wiring, prefill)

    def test_figure_8_is_one_window(self, harness, monkeypatch):
        outer = harness.paper("D, S0, 3, 2, 1, 0")
        inner = harness.paper("D, S1, 3, 1, S0, S0, 2, 0, S0, 1")
        want = assert_matches_cycle((outer, inner), False)
        assert want[3] == [
            ["0", "1", "3", "S0", "D"],
            ["1", "S0", "0", "2", "S0", "1", "3", "S1", "D"],
        ]
        assert want[4] == 1
        advances = []

        def advance(self, arrivals, real=CoordDropper._t_advance):
            advances.append(len(arrivals))
            return real(self, arrivals)

        monkeypatch.setattr(CoordDropper, "_t_advance", advance)
        run((outer, inner), False, "timed-batch")
        # 9 inner tokens + the outer S0 the closing S1 folds
        assert advances == [10]

    def test_boundary_held_across_windows(self):
        # the S1 a dropped fiber closes with outlives three windows of
        # dropped S0 fibers before a survivor emits it
        outer = [0, 1, Stop(0), 2, 3, 4, Stop(0), DONE]
        inner = [1.0, Stop(0), Stop(1), Stop(0), 0.0, Stop(0), 5.0, Stop(1), DONE]
        for wiring in WIRINGS:
            want = assert_matches_cycle((outer, inner), True, wiring, prefill=3)
            assert want[3] == [
                ["0", "S0", "4", "S0", "D"],
                ["0x1.0000000000000p+0", "S1", "0x1.4000000000000p+2", "S1", "D"],
            ]
            assert want[4] == 3

    def test_s0_closed_fiber_in_front_of_a_bare_stop(self):
        # not a stream the paper draws, but one the generator accepts:
        # the fiber closes S0, so the outer stop behind its owner is
        # bare and pairs with the empty S1 — alignment restarts there
        outer = [7, Stop(0), 8, Stop(0), DONE]
        inner = [1.0, Stop(0), Stop(1), 2.0, Stop(1), DONE]
        want = assert_matches_cycle((outer, inner), False)
        assert want[3][0] == ["7", "S0", "8", "S0", "D"]


# -- protocol errors -----------------------------------------------------------
#: three clean fibers in two groups, so a defect can sit behind a window
PREFIX = ([0, 1, Stop(0), 2, Stop(0)],
          [1.0, Stop(0), 2.0, Stop(1), 0.0, 3.0, Stop(1)])
ERRORS = {
    "drop: inner stream ended mid-fiber":
        ([5, Stop(0), DONE], [1.0, EMPTY, DONE]),
    "drop: outer stop S0 expects inner stop S1, got 1.0":
        ([Stop(0), DONE], [1.0, Stop(1), DONE]),
    "drop: outer stop S0 expects inner stop S1, got S2":
        ([Stop(0), DONE], [Stop(2), DONE]),
    "drop: outer stop S1 expects inner stop S2, got D":
        ([Stop(1), DONE], [DONE]),
    "drop: inner stop S1 expects outer stop S0, got 6":
        ([5, 6, Stop(0), DONE], [1.0, Stop(1), 2.0, Stop(1), DONE]),
    "drop: inner stop S2 expects outer stop S1, got S0":
        ([5, Stop(0), DONE], [1.0, Stop(2), DONE]),
    "drop: inner stop S1 expects outer stop S0, got D":
        ([5, DONE], [Stop(1), DONE]),
    "drop: inner stream out of sync at D, got 4.0":
        ([DONE], [4.0, Stop(0), DONE]),
    "drop: inner stream out of sync at D, got S1":
        ([DONE], [Stop(1), DONE]),
}


class TestProtocolErrors:
    @pytest.mark.parametrize("wiring", ("plain", "relay-outer", "relay-inner"))
    @pytest.mark.parametrize("repeat", (0, 1, 3), ids="prefix{}".format)
    @pytest.mark.parametrize("message", ERRORS)
    def test_one_message_on_every_engine(self, message, repeat, wiring):
        outer, inner = ERRORS[message]
        streams = PREFIX[0] * repeat + outer, PREFIX[1] * repeat + inner
        for backend in BACKENDS:
            with pytest.raises(BlockError) as caught:
                run(streams, False, backend, wiring)
            assert str(caught.value) == message, backend
