"""Window-at-a-time ``VectorReducer.drain_timed`` against the cycle oracle.

The timed drain takes every chunk that is complete on both streams in
one pass: one stable sort by ``(region, crd)``, one arrival-order
accumulation, one schedule, one push per output.  Everything here is
differential: drawn ``(crd, val)`` structures — delivered whole, cut in
two at every position, or one token a cycle through a scalar ``Relay`` —
must give the ``cycle`` engine's cycles, block activity, per-channel
token counts and recorded outputs (bit for bit: ``-0.0`` is not ``0.0``)
under ``timed-batch`` and ``compiled``, and its outputs under both
functional engines; a planted protocol error must raise one message on
every engine.
"""

import math
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import BlockError, StreamFeeder, VectorReducer
from repro.blocks import reduce as reduce_module
from repro.sim import BACKENDS, graph_token_counts, run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop

from test_repeat import (
    TIMED, Relay, Slicer, assert_windows_sliced, probes, window_log,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
from numpy_counters import numpy_calls  # noqa: E402

UNTIMED = ("functional", "functional-seq")


def canon(token):
    """A token with its type and bit pattern (NaN equals NaN, -0.0 is
    not 0.0, the coordinate 1 is not the value 1.0)."""
    if isinstance(token, float):
        return "nan" if math.isnan(token) else token.hex()
    return repr(token)


def build(crd_tokens, val_tokens, flush_level, delivery=("whole", None)):
    """``(blocks, recorded outputs)`` of one reducer.

    *delivery*: ``("whole", None)`` plays both streams from
    ``StreamFeeder``s; ``("cut", (side, cut, gap))`` pushes *side*'s
    first *cut* tokens at once and the rest ``gap + 1`` cycles later;
    ``("relay", sides)`` passes the listed sides through a scalar
    ``Relay``, one token a cycle.  The last two put a scalar probe
    behind each output, so the reducer's windows end where the
    delivery's pushes do.
    """
    mode, how = delivery
    blocks, ins = [], []
    for side, (tokens, kind) in enumerate(
        [(crd_tokens, "crd"), (val_tokens, "vals")]
    ):
        channel = Channel(f"in{side}", kind=kind)
        name = f"feed{side}"
        if mode == "cut" and how[0] == side:
            blocks.append(Slicer(tokens, [(how[1], how[2])], channel, name))
        elif mode == "relay" and side in how:
            raw = Channel(f"raw{side}", kind=kind)
            blocks.append(StreamFeeder(list(tokens), raw, name=name))
            blocks.append(Relay(raw, channel, f"relay{side}"))
        else:
            blocks.append(StreamFeeder(list(tokens), channel, name=name))
        ins.append(channel)
    outs = [Channel("oc", record=True), Channel("ov", kind="vals", record=True)]
    blocks.append(VectorReducer(*ins, *outs, flush_level=flush_level, name="red"))
    if mode != "whole":
        blocks += probes(outs)
    return blocks, outs


def run(streams, flush_level, backend, delivery=("whole", None)):
    """Everything a backend may not change, for one run."""
    blocks, outs = build(*streams, flush_level, delivery)
    with window_log() as log:
        report = run_blocks(blocks, backend=backend)
    if backend in TIMED and delivery[0] == "cut":
        side, cut, _ = delivery[1]
        live = streams[side].index(DONE) + 1  # the reducer ends at the first D
        assert_windows_sliced(log, f"in{side}", pushes=(0 < cut) + (cut < live))
    if backend in TIMED and delivery[0] == "relay":
        for side in delivery[1]:
            assert_windows_sliced(
                log, f"in{side}", pushes=streams[side].index(DONE) + 1
            )
    return (
        report.cycles,
        report.block_activity(),
        graph_token_counts(blocks),
        [[canon(t) for t in ch.history] for ch in outs],
    )


def assert_matches_cycle(streams, flush_level, delivery=("whole", None)):
    """Full report identity on the timed engines, token-count and output
    identity on the functional ones."""
    want = run(streams, flush_level, "cycle", delivery)
    for backend in TIMED:
        assert run(streams, flush_level, backend, delivery) == want, (
            backend, delivery,
        )
    for backend in UNTIMED:
        got = run(streams, flush_level, backend, delivery)
        assert got[2:] == want[2:], (backend, delivery)
    return want


# -- drawn structures ----------------------------------------------------------
SPECIAL = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e308, -1e308,
           5e-324, -5e-324, 0.1, 0.2, 0.3, 1e16, -1e16, 1.0, 3]
values = st.one_of(
    st.sampled_from(SPECIAL), st.just(EMPTY), st.floats(width=64, allow_nan=False)
)
#: few distinct coordinates, so a region repeats them
coordinates = st.sampled_from([0, 1, 1, 2, 5, -1, -7, 11])
#: sums of three or more of these depend on the order they are added in
ORDERED = [1e16, -1e16, 0.1, 0.2, 0.3, 1e308, -1e308, 1.0]
pair_lists = st.one_of(
    st.lists(st.tuples(coordinates, values), max_size=5),
    st.lists(st.tuples(st.sampled_from([1, 2]), st.sampled_from(ORDERED)),
             min_size=3, max_size=8),
)
chunks = st.fixed_dictionaries({
    "pairs": pair_lists,
    #: trailing values without coordinates (what a zero-policy reducer
    #: upstream emits for an empty region)
    "phantoms": st.lists(st.sampled_from([0.0, -0.0, EMPTY, 0]), max_size=2),
    "level": st.sampled_from([0, 0, 1, 2]),
})
structures = st.fixed_dictionaries({
    "chunks": st.lists(chunks, max_size=7),
    #: pairs between the last stop and D: a region only D closes
    "bare": st.lists(st.tuples(coordinates, values), max_size=3),
    "base": st.sampled_from([0, 0, 0, 2**62 - 40, -(2**62)]),
    "flush_level": st.integers(1, 2),
    "tail": st.booleans(),
})


def streams(shape):
    """The coordinate and value token streams of one drawn structure."""
    crd, val = [], []
    for chunk in shape["chunks"] + [{"pairs": shape["bare"]}]:
        crd += [shape["base"] + c for c, _ in chunk["pairs"]]
        val += [v for _, v in chunk["pairs"]]
        if "level" in chunk:
            val += chunk["phantoms"]
            crd.append(Stop(chunk["level"]))
            val.append(Stop(chunk["level"]))
    for stream in (crd, val):
        stream.append(DONE)
        if shape["tail"]:
            stream += [3, Stop(1), DONE]
    return crd, val


class TestWindowDifferential:
    """Whatever windows the delivery makes, the reports are ``cycle``'s."""

    @settings(max_examples=150, deadline=None)
    @given(shape=structures)
    def test_whole_streams(self, shape):
        assert_matches_cycle(streams(shape), shape["flush_level"])

    @settings(max_examples=30, deadline=None)
    @given(shape=structures, gap=st.integers(0, 3))
    def test_cut_in_two_at_every_position(self, shape, gap):
        both = streams(shape)
        for side in (0, 1):
            for cut in range(len(both[side]) + 1):
                assert_matches_cycle(
                    both, shape["flush_level"], ("cut", (side, cut, gap))
                )

    @pytest.mark.parametrize("sides", [(0,), (1,), (0, 1)], ids=str)
    @settings(max_examples=40, deadline=None)
    @given(shape=structures)
    def test_behind_a_scalar_relay(self, sides, shape):
        assert_matches_cycle(
            streams(shape), shape["flush_level"], ("relay", sides)
        )


class TestOneOfEverythingPerWindow:
    def _counted(self, monkeypatch):
        calls = {"window": 0, "sort": 0, "advance": 0}
        real_window = VectorReducer._reduce_window
        real_sort = reduce_module._dedup_regions
        real_advance = VectorReducer._t_advance

        def count(key, real):
            def wrapper(*args):
                calls[key] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(VectorReducer, "_reduce_window",
                            count("window", real_window))
        monkeypatch.setattr(reduce_module, "_dedup_regions",
                            count("sort", real_sort))
        monkeypatch.setattr(VectorReducer, "_t_advance",
                            count("advance", real_advance))
        return calls

    def test_whole_stream_is_one_window(self, monkeypatch):
        crd = [3, 1, Stop(0), 1, Stop(1), Stop(1), 2, 2, Stop(0), Stop(2), 7, DONE]
        val = [1.0, 2.0, Stop(0), 4.0, Stop(1), Stop(1), 1.0, 1.0, Stop(0),
               0.0, Stop(2), 0.5, DONE]
        want = assert_matches_cycle((crd, val), 1)
        assert want[3][0] == [
            "1", "3", "S0", "S0", "2", "S1", "7", "S0", "D",
        ]
        calls = self._counted(monkeypatch)
        run((crd, val), 1, "timed-batch")
        assert calls == {"window": 1, "sort": 1, "advance": 1}

    def test_region_spanning_three_windows_flushes_once(self, monkeypatch):
        # one region in three S0-closed pieces, each its own window
        pieces = [[4, 1, Stop(0)], [1, 9, 4, Stop(0)], [1, Stop(1), DONE]]
        vals = [[0.1, 0.2, Stop(0)], [0.3, 1e16, 0.2, Stop(0)], [-1e16, Stop(1), DONE]]
        crd = sum(pieces, [])
        val = sum(vals, [])
        plan = [(len(pieces[0]), 2), (len(pieces[1]), 3)]

        def go(backend):
            ins = [Channel("c"), Channel("v", kind="vals")]
            outs = [Channel("oc", record=True),
                    Channel("ov", kind="vals", record=True)]
            blocks = [
                Slicer(crd, plan, ins[0], "fc"), Slicer(val, plan, ins[1], "fv"),
                VectorReducer(*ins, *outs, name="red"), *probes(outs),
            ]
            report = run_blocks(blocks, backend=backend)
            return (report.cycles, report.block_activity(),
                    [list(ch.history) for ch in outs])

        want = go("cycle")
        assert want[2][0] == [1, 4, 9, Stop(0), DONE]
        # arrival order per coordinate: (0.2 + 0.3) + -1e16 for 1
        assert want[2][1] == [0.2 + 0.3 + -1e16, 0.1 + 0.2, 1e16, Stop(0), DONE]
        calls = self._counted(monkeypatch)
        assert go("timed-batch") == want
        assert calls == {"window": 3, "sort": 1, "advance": 3}

    @pytest.mark.parametrize("regions, pieces", [
        # negative coordinates: one piece, keys offset by the smallest
        ([[-5, -9, -5, -1], [-(2**40), -3, -(2**40)], [-7], []], 1),
        # near I64_MAX with a span of 6: one piece, only thanks to the offset
        ([[2**63 - 10, 2**63 - 15, 2**63 - 10]] * 10, 1),
        # span 2**61 + 1 fits three regions a key: ten regions, four pieces
        ([[2**61, 0, 2**61, 5, 0]] * 10, 4),
        # span past I64_MAX: every region sorts alone
        ([[-(2**62), 2**62, -(2**62)], [2**62, 1, 2**62], [-(2**62)]], 3),
    ], ids=["negative", "offset", "split", "alone"])
    def test_key_capacity_splits_by_region(self, regions, pieces):
        crd, val = [], []
        for r, crds in enumerate(regions):
            crd += crds + [Stop(1)]
            val += [(0.1, 1e16, 0.2, -1e16, 0.3)[i] * (r + 1) for i in range(len(crds))]
            val.append(Stop(1))
        want = assert_matches_cycle((crd + [DONE], val + [DONE]), 1)
        assert [int(t) for t in want[3][0] if t.lstrip("-").isdigit()] == [
            c for crds in regions for c in sorted(set(crds))
        ]
        with numpy_calls("argsort") as sorted_by:
            run((crd + [DONE], val + [DONE]), 1, "timed-batch")
        assert sorted_by.count("repro.blocks.reduce") == pieces

    def test_huge_coordinates_sort_without_a_composite_key(self):
        top = 2**63 - 1
        crd = [top, -top, 0, top, Stop(1), -top, top, Stop(1), DONE]
        val = [1.0, 2.0, 3.0, 4.0, Stop(1), 5.0, 6.0, Stop(1), DONE]
        want = assert_matches_cycle((crd, val), 1)
        assert want[3][0] == [
            str(-top), "0", str(top), "S0", str(-top), str(top), "S0", "D",
        ]


# -- protocol errors -----------------------------------------------------------
DEFECTS = ("non-zero-phantom", "misaligned-stops", "short-values",
           "empty-coordinate", "fractional-coordinate", "stop-against-done")


def plant(shape, defect, at):
    """Streams of *shape* with one protocol error in chunk *at*."""
    crd, val = [], []
    at %= len(shape["chunks"])
    for f, chunk in enumerate(shape["chunks"]):
        pairs, phantoms = list(chunk["pairs"]), list(chunk["phantoms"])
        close_crd = close_val = Stop(chunk["level"])
        if f == at:
            pairs = pairs or [(4, 1.0)]
            if defect == "non-zero-phantom":
                phantoms.append(0.5)
            elif defect == "misaligned-stops":
                close_val = Stop(chunk["level"] + 1)
            elif defect == "stop-against-done":
                close_val = DONE
            elif defect == "empty-coordinate":
                pairs[0] = (EMPTY, pairs[0][1])
            elif defect == "fractional-coordinate":
                pairs[-1] = (2.5, pairs[-1][1])
        run_vals = [v for _, v in pairs] + phantoms
        if f == at and defect == "short-values":
            run_vals = run_vals[:len(pairs) - 1]
        crd += [c for c, _ in pairs] + [close_crd]
        val += run_vals + [close_val]
    return crd + [DONE], val + [DONE]


class TestProtocolErrors:
    """The first offending token pair decides the error, on every engine."""

    @pytest.mark.parametrize("defect", DEFECTS)
    @settings(max_examples=40, deadline=None)
    @given(shape=structures.filter(lambda s: s["chunks"] and s["base"] == 0),
           at=st.integers(0, 6))
    def test_one_message_on_every_engine(self, defect, shape, at):
        crd, val = plant(shape, defect, at)
        messages = set()
        for backend in BACKENDS:
            with pytest.raises(BlockError) as caught:
                run((crd, val), shape["flush_level"], backend)
            messages.add(str(caught.value))
        assert len(messages) == 1, messages
