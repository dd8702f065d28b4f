"""Window-at-a-time ``CoordDropper`` and ``ValueDropper`` against the
cycle oracle.

The fiber-mode timed drain aligns the outer coordinates with the inner
fibers once per window (``streams.timing.align_chunks``, shared with the
repeater); the value-mode one pairs coordinates with values at the same
level once per window (``streams.timing.pair_chunks``, shared with the
vector reducer).  Each schedules every event of the window in one pass
and pushes each output once.  Everything here is differential: drawn
protocol-obeying streams — fiber mode: closings ``S0``/``S1``/``S2``,
empty outer regions, leading and all-dropped fibers, ``N`` and ``0.0``
inside fibers, ``drop_zeros`` both ways; value mode: the same closings,
empty fibers, ``1.0``/``0.0``/``-0.0``/``N`` values and phantom runs at
the boundaries — delivered whole, in random slices, one token a cycle
through a scalar ``Relay`` on either input or behind the outputs, or
with part of a link already queued, must give the ``cycle`` engine's
cycles, block activity, token counts, outputs and ``dropped`` count
under ``timed-batch`` and ``compiled`` and its outputs under
``functional``; every protocol error is one message on every engine.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blocks import BlockError, CoordDropper, StreamFeeder, ValueDropper
from repro.sim import BACKENDS, FunctionalEngine, graph_token_counts, run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop

from test_reduce_window import canon
from test_repeat import (
    TIMED, Relay, Slicer, assert_windows_sliced, probes, window_log,
)

WIRINGS = ("plain", "relay-outer", "relay-inner", "prefilled-outer",
           "prefilled-inner", "relay-outputs", "sliced")
#: the value dropper's inputs are named by what they carry
VALUE_WIRINGS = tuple(w.replace("outer", "crd").replace("inner", "val")
                      for w in WIRINGS)


def sliced_links(wiring, sides):
    """The input links whose every push must be a window of its own."""
    if wiring == "sliced":
        return list(sides)
    return [side for side in sides if wiring == f"relay-{side}"]


def build(streams, make, wiring="plain", prefill=0, sides=("outer", "inner")):
    """``(blocks, recorded outputs, dropper)`` of one dropper, made by
    ``make(*inputs, *outputs)``.

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
    for side, tokens in zip(sides, streams):
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
    dropper = make(*ins, *pushed)
    blocks.append(dropper)
    if sliced_links(wiring, sides):
        blocks += probes(outs)
    return blocks, outs, dropper


def outcome(blocks, outs, dropper, backend, links):
    """Everything a backend may not change, outputs and count last."""
    with window_log() as log:
        report = run_blocks(blocks, backend=backend)
    if backend in TIMED:
        for link in links:
            assert_windows_sliced(log, link)
    return (
        report.cycles,
        report.block_activity(),
        graph_token_counts(blocks),
        [[canon(t) for t in ch.history] for ch in outs],
        dropper.dropped,
    )


def run(streams, drop_zeros, backend, wiring="plain", prefill=0):
    def make(*channels):
        return CoordDropper(*channels, drop_zeros=drop_zeros, name="drop")

    built = build(streams, make, wiring, prefill)
    return outcome(*built, backend, sliced_links(wiring, ("outer", "inner")))


def assert_matches_cycle(streams, drop_zeros, wiring="plain", prefill=0):
    want = run(streams, drop_zeros, "cycle", wiring, prefill)
    for backend in TIMED:
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
    @example(shape=[[[], [[], [1.0]]]], drop_zeros=False, prefill=4)
    def test_full_report_identity(self, wiring, shape, drop_zeros, prefill):
        assert_matches_cycle(protocol_streams(shape), drop_zeros, wiring, prefill)

    def test_survivor_leaves_before_its_fold(self):
        # The last fiber, [1.0, S2], is complete slices before the outer
        # S1 its S2 folds.  The generator pushes the survivor's
        # coordinate, the boundary held in front of it and its value at
        # the decision and pops the fold after it, so the probes behind
        # the dropper see them then — on every engine.
        streams = protocol_streams([[[], [[], [1.0]]]])
        assert streams == ([Stop(0), 1, 2, Stop(1), DONE],
                           [Stop(1), Stop(0), 1.0, Stop(2), DONE])
        want = run(streams, False, "cycle", "sliced", prefill=4)
        assert want[0] == 10
        for backend in BACKENDS:
            got = run(streams, False, backend, "sliced", prefill=4)
            if issubclass(BACKENDS[backend], FunctionalEngine):
                assert got[3:] == want[3:], backend
            else:
                assert got == want, backend

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
    @pytest.mark.parametrize(
        "wiring", ("plain", "relay-outer", "relay-inner", "sliced"))
    @pytest.mark.parametrize("repeat", (0, 1, 3), ids="prefix{}".format)
    @pytest.mark.parametrize("message", ERRORS)
    def test_one_message_on_every_engine(self, message, repeat, wiring):
        outer, inner = ERRORS[message]
        streams = PREFIX[0] * repeat + outer, PREFIX[1] * repeat + inner
        for backend in BACKENDS:
            with pytest.raises(BlockError) as caught:
                run(streams, False, backend, wiring)
            assert str(caught.value) == message, backend


# -- value mode ----------------------------------------------------------------
def run_values(streams, backend, wiring="plain", prefill=0):
    built = build(streams, ValueDropper, wiring, prefill, sides=("crd", "val"))
    return outcome(*built, backend, sliced_links(wiring, ("crd", "val")))


def assert_values_match_cycle(streams, wiring="plain", prefill=0):
    want = run_values(streams, "cycle", wiring, prefill)
    for backend in TIMED:
        assert run_values(streams, backend, wiring, prefill) == want, backend
    assert run_values(streams, "functional", wiring, prefill)[3:] == want[3:]
    return want


#: a value a coordinate owns, and the phantoms a zero-policy reducer
#: upstream leaves at a boundary (values of regions with no coordinate)
pair_values = st.sampled_from([1.0, 0.0, -0.0, EMPTY])
phantom_runs = st.lists(st.sampled_from([0.0, -0.0, EMPTY]), max_size=2)
#: supergroups -> groups -> fibers of (owned values, phantoms)
value_shapes = st.lists(
    st.lists(
        st.lists(st.tuples(st.lists(pair_values, max_size=4), phantom_runs),
                 min_size=1, max_size=3),
        min_size=1, max_size=3,
    ),
    min_size=1, max_size=3,
)


def value_streams(shape, final=()):
    """A (crd, val) pair at one level obeying the value dropper's
    protocol: one value per coordinate, a fiber closed by ``S0`` — or by
    ``S1`` when it also closes its group, ``S2`` its supergroup — on
    both streams, *final* phantoms in front of ``D``."""
    crd, val = [], []
    for supergroup in shape:
        for gi, group in enumerate(supergroup):
            up = 1 if gi == len(supergroup) - 1 else 0
            for j, (owned, phantoms) in enumerate(group):
                stop = Stop(up + 1 if j == len(group) - 1 else 0)
                crd += [len(crd) + i for i in range(len(owned))] + [stop]
                val += list(owned) + list(phantoms) + [stop]
    return crd + [DONE], val + list(final) + [DONE]


class TestValueWindowDifferential:
    @pytest.mark.parametrize("wiring", VALUE_WIRINGS)
    @settings(max_examples=60, deadline=None)
    @given(shape=value_shapes, final=phantom_runs, prefill=st.integers(1, 12))
    @example(shape=[[[([1.0, 0.0, 2.5], [])]]], final=[], prefill=2)
    def test_full_report_identity(self, wiring, shape, final, prefill):
        assert_values_match_cycle(value_streams(shape, final), wiring, prefill)

    def test_pairs_leave_before_their_terminator(self):
        # One fiber in slices: the generator pushes each surviving pair
        # the cycle it pops it, long before the stop arrives, so the
        # probes behind the dropper see them then — on every engine.
        streams = value_streams([[[([1.0, 0.0, 2.5, EMPTY, 4.0], [0.0, EMPTY])]]])
        assert streams == ([0, 1, 2, 3, 4, Stop(2), DONE],
                           [1.0, 0.0, 2.5, EMPTY, 4.0, 0.0, EMPTY, Stop(2), DONE])
        want = run_values(streams, "cycle", "sliced", prefill=5)
        assert want[3] == [["0", "2", "4", "S2", "D"],
                           ["0x1.0000000000000p+0", "0x1.4000000000000p+1",
                            "0x1.0000000000000p+2", "S2", "D"]]
        assert want[4] == 2
        for backend in BACKENDS:
            got = run_values(streams, backend, "sliced", prefill=5)
            if issubclass(BACKENDS[backend], FunctionalEngine):
                assert got[3:] == want[3:], backend
            else:
                assert got == want, backend

    def test_whole_streams_are_one_window(self, monkeypatch):
        # empty fibers, phantoms in front of S0, S1 and D, dropped pairs
        streams = value_streams(
            [[[([1.0], [0.0]), ([], [EMPTY, -0.0])], [([0.0, 3.0], [])]]],
            final=[0.0],
        )
        want = assert_values_match_cycle(streams)
        assert want[3][0] == ["0", "S0", "S1", "4", "S2", "D"]
        assert want[4] == 1
        calls = {"advance": [], "event": 0}

        def advance(self, arrivals, real=ValueDropper._t_advance):
            calls["advance"].append(len(arrivals))
            return real(self, arrivals)

        def event(self, arrival=0, real=ValueDropper._t_event):
            calls["event"] += 1
            return real(self, arrival)

        monkeypatch.setattr(ValueDropper, "_t_advance", advance)
        monkeypatch.setattr(ValueDropper, "_t_event", event)
        run_values(streams, "timed-batch")
        # every value token is one event: 3 pairs, 4 phantoms, 4 closers
        assert calls == {"advance": [11], "event": 0}


#: one clean chunk, a phantom N behind its pairs, so a defect can sit
#: behind a window
VALUE_PREFIX = ([5, 6, Stop(0)], [1.0, 0.0, EMPTY, Stop(0)])
VALUE_ERRORS = {
    "ran-out-at-stop": ("valdrop: value stream ran out mid-fiber (S0)",
                        [0, 1, Stop(0), DONE], [1.0, Stop(0), DONE]),
    "ran-out-at-done": ("valdrop: value stream ran out mid-fiber (D)",
                        [0, 1, Stop(0), DONE], [1.0, DONE]),
    "non-zero-phantom": ("valdrop: non-zero value 2.0 has no coordinate",
                         [0, Stop(0), DONE], [1.0, 2.0, Stop(0), DONE]),
    "non-zero-int-phantom": ("valdrop: non-zero value 3.0 has no coordinate",
                             [Stop(0), DONE], [0, 3, Stop(0), DONE]),
    "non-zero-phantom-at-done": ("valdrop: non-zero value 4.0 has no coordinate",
                                 [0, Stop(0), DONE], [1.0, Stop(0), 4.0, DONE]),
    "misaligned-stops": ("valdrop: misaligned stops S0/S1",
                         [0, Stop(0), DONE], [1.0, Stop(1), DONE]),
    "stop-vs-done": ("valdrop: misaligned streams (S0 vs D)",
                     [0, Stop(0), DONE], [1.0, 0.0, DONE]),
    "done-vs-stop": ("valdrop: misaligned streams (D vs S1)",
                     [0, DONE], [1.0, EMPTY, Stop(1), DONE]),
}


class TestValueProtocolErrors:
    @pytest.mark.parametrize("wiring", ("plain", "relay-crd", "relay-val", "sliced"))
    @pytest.mark.parametrize("repeat", (0, 1, 3), ids="prefix{}".format)
    @pytest.mark.parametrize("defect", VALUE_ERRORS)
    def test_one_message_on_every_engine(self, defect, repeat, wiring):
        message, crd, val = VALUE_ERRORS[defect]
        streams = VALUE_PREFIX[0] * repeat + crd, VALUE_PREFIX[1] * repeat + val
        for backend in BACKENDS:
            with pytest.raises(BlockError) as caught:
                run_values(streams, backend, wiring)
            assert str(caught.value) == message, backend
