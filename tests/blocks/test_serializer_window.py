"""Window-at-a-time ``InterleaveSerializer.drain_timed`` against the oracle.

The timed drain gathers every fiber the lane rotation can reach in one
pass — one arrival vector, one schedule, one push.  Everything here is
differential: 1-4 lanes whose fiber counts differ by at most one, empty
fibers, ``N`` tokens, lane stops of any level, delivered whole, in
random slices, one token a cycle through a scalar ``Relay`` on any lane
or behind the output, or with part of a lane link already queued, must
give the ``cycle`` engine's cycles, block
activity, token counts and outputs under ``timed-batch`` and
``compiled`` and its outputs under ``functional``; every protocol error
— a lane that ends inside a fiber included, which used to hang — is one
message on every engine.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import BlockError, InterleaveSerializer, StreamFeeder
from repro.sim import BACKENDS, graph_token_counts, run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop

from test_merge_window import Slicer
from test_reduce_window import canon
from test_repeat import Relay, assert_windows_sliced, probes, window_log


def build(lanes, wiring=("plain", None), prefill=0):
    """``(blocks, recorded output)`` of one serializer over *lanes*.

    *wiring*: ``("relay", i)`` passes lane *i* through a scalar ``Relay``
    (one-token windows, one a cycle), ``("relay", -1)`` the joined
    stream (a scalar consumer sees a token the cycle it is stamped
    visible and no earlier); ``("prefilled", i)`` starts the run with
    lane *i*'s first *prefill* tokens already queued; ``("sliced",
    None)`` delivers every lane in slices of 1-5 tokens 1-4 cycles
    apart (seeded by *prefill*), so windows end anywhere.  A lane relay
    and the slices come with a scalar probe behind the output: the
    serializer is woken every cycle and its windows end where the
    pushes do.
    """
    how, which = wiring
    blocks, ins = [], []
    rng = random.Random(prefill)
    for i, tokens in enumerate(lanes):
        tokens = list(tokens)
        channel = Channel(f"lane{i}", kind="vals")
        if how == "sliced":
            plan = [(rng.randint(1, 5), rng.randint(0, 3)) for _ in tokens[::3]]
            blocks.append(Slicer(tokens, plan, channel, f"feed{i}"))
            ins.append(channel)
            continue
        if how == "prefilled" and which == i:
            for token in tokens[:prefill]:
                channel.push(token)
            tokens = tokens[prefill:]
        if how == "relay" and which == i:
            raw = Channel(f"raw{i}", kind="vals")
            blocks.append(StreamFeeder(tokens, raw, name=f"feed{i}"))
            blocks.append(Relay(raw, channel, f"relay{i}"))
        else:
            blocks.append(StreamFeeder(tokens, channel, name=f"feed{i}"))
        ins.append(channel)
    out = joined = Channel("out", kind="vals", record=True)
    if wiring == ("relay", -1):
        joined = Channel("joined", kind="vals")
        blocks.append(Relay(joined, out, "tail"))
    blocks.append(InterleaveSerializer(ins, joined, name="join"))
    if sliced_lanes(lanes, wiring):
        blocks += probes([out])
    return blocks, out


def sliced_lanes(lanes, wiring):
    """The lanes whose every push must be a window of its own."""
    how, which = wiring
    if how == "sliced":
        return range(len(lanes))
    return [which] if how == "relay" and which >= 0 else []


def run(lanes, backend, wiring=("plain", None), prefill=0):
    blocks, out = build(lanes, wiring, prefill)
    with window_log() as log:
        report = run_blocks(blocks, backend=backend)
    if backend in ("timed-batch", "compiled"):
        for i in sliced_lanes(lanes, wiring):
            assert_windows_sliced(log, f"lane{i}")
    return (
        report.cycles,
        report.block_activity(),
        graph_token_counts(blocks),
        [canon(t) for t in out.history],
    )


def assert_matches_cycle(lanes, wiring=("plain", None), prefill=0):
    want = run(lanes, "cycle", wiring, prefill)
    for backend in ("timed-batch", "compiled"):
        assert run(lanes, backend, wiring, prefill) == want, (backend, wiring)
    assert run(lanes, "functional", wiring, prefill)[3:] == want[3:], wiring
    return want


# -- drawn structures ----------------------------------------------------------
#: one fiber: its tokens and the level of the lane stop that closes it
fibers = st.tuples(
    st.lists(st.sampled_from([1.0, 2.5, 0.0, EMPTY]), max_size=4),
    st.sampled_from([0, 0, 1, 2]),
)
joins = st.fixed_dictionaries({
    "lanes": st.integers(1, 4),
    "fibers": st.lists(fibers, max_size=9),
})


def lane_streams(shape):
    """Fiber *f* goes to lane ``f mod L``: counts differ by at most one."""
    lanes = [[] for _ in range(shape["lanes"])]
    for f, (tokens, level) in enumerate(shape["fibers"]):
        lanes[f % len(lanes)] += tokens + [Stop(level)]
    return [lane + [DONE] for lane in lanes]


def wirings(lanes):
    yield "plain", None
    yield "sliced", None
    yield "relay", -1
    for i in range(lanes):
        yield "relay", i
        yield "prefilled", i


class TestWindowDifferential:
    @settings(max_examples=80, deadline=None)
    @given(shape=joins, prefill=st.integers(1, 8))
    def test_full_report_identity(self, shape, prefill):
        lanes = lane_streams(shape)
        for wiring in wirings(len(lanes)):
            want = assert_matches_cycle(lanes, wiring, prefill)
        # every lane stop is normalised; the last one closes the level above
        flat = [t for tokens, _ in shape["fibers"] for t in tokens + [Stop(0)]]
        if flat:
            flat[-1] = Stop(1)
        assert want[3] == [canon(t) for t in flat + [DONE]]

    def test_whole_stream_is_one_window(self, monkeypatch):
        lanes = [[1.0, 2.0, Stop(0), 5.0, Stop(1), DONE],
                 [Stop(0), EMPTY, Stop(2), DONE],
                 [3.0, Stop(0), DONE]]
        want = assert_matches_cycle(lanes)
        assert want[3] == [canon(t) for t in [
            1.0, 2.0, Stop(0), Stop(0), 3.0, Stop(0), 5.0, Stop(0), EMPTY,
            Stop(1), DONE,
        ]]
        advances = []

        def advance(self, arrivals, real=InterleaveSerializer._t_advance):
            advances.append(len(arrivals))
            return real(self, arrivals)

        monkeypatch.setattr(InterleaveSerializer, "_t_advance", advance)
        run(lanes, "timed-batch")
        # 10 lane tokens + the S0 held back in front of fibers 1..4
        assert advances == [14]

    def test_open_fiber_flows_through(self):
        # tokens of an unterminated fiber leave as they arrive: behind a
        # relay the joined stream is one token a cycle, not one burst
        lanes = [[1.0, 2.0, 3.0, Stop(0), DONE], [4.0, Stop(0), DONE]]
        for wiring in wirings(2):
            assert_matches_cycle(lanes, wiring, prefill=2)


# -- protocol errors -----------------------------------------------------------
class TestProtocolErrors:
    def messages(self, lanes, wiring=("plain", None)):
        found = {}
        for backend in BACKENDS:
            with pytest.raises(BlockError) as caught:
                run(lanes, backend, wiring)
            found[backend] = str(caught.value)
        return found

    @pytest.mark.parametrize("clean", (0, 1, 4), ids="after{}".format)
    @pytest.mark.parametrize("behind", (0, 2), ids="before{}".format)
    def test_lane_ending_mid_fiber_is_a_named_error(self, clean, behind):
        # the bad D at the start, in the middle and at the end of what
        # would be one window; it used to be copied out as a fiber token
        # and end in DeadlockError on every engine
        a = [1.0, 2.0, Stop(0)] * clean + [3.0, DONE] + [9.0, Stop(0)] * behind
        b = [5.0, Stop(0)] * clean + [DONE]
        for wiring in wirings(2):
            found = self.messages([a, b], wiring)
            assert set(found.values()) == {"join: lane 0 ended mid-fiber"}, found

    def test_the_issue_example(self):
        found = self.messages([[1, 2, Stop(0), 3, DONE], [5, Stop(0), DONE]])
        assert set(found.values()) == {"join: lane 0 ended mid-fiber"}, found

    def test_mid_fiber_on_a_later_lane(self):
        lanes = [[1.0, Stop(0), DONE], [EMPTY, DONE], [2.0, Stop(0), DONE]]
        found = self.messages(lanes)
        assert set(found.values()) == {"join: lane 1 ended mid-fiber"}, found

    @pytest.mark.parametrize("lanes, message", [
        ([[1.0, Stop(0), DONE], [2.0, Stop(0), 3.0, Stop(0), DONE]],
         "join: lane 1 desync at D (3.0)"),
        ([[DONE], [Stop(0), DONE]], "join: lane 1 desync at D (S0)"),
        ([[1.0, Stop(0), 2.0, Stop(0), DONE], [DONE], [4.0, Stop(1), DONE]],
         "join: lane 0 desync at D (2.0)"),
    ])
    def test_desync_at_done(self, lanes, message):
        for wiring in wirings(len(lanes)):
            found = self.messages(lanes, wiring)
            assert set(found.values()) == {message}, (wiring, found)
