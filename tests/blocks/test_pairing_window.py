"""Window-at-a-time ``ALU``, ``Locator`` and ``ScatterValsWriter`` against
the cycle oracle.

Each reads its inputs the way every same-level window hook does: views
of the held windows through their first ``D`` (``front_stream``), cut
to what every input has arrived of (``common_front``), one
``pair_chunks`` call, one ``_t_advance``, ``consume``.  Everything here
is differential: drawn protocol-obeying streams — ALU: phantom zeros on
either operand in front of ``S0``/``S1``/``S2`` and ``D``, ``N`` read
as 0.0; locator: ``N`` coordinates and references, a fixed target or a
target stream with ``N`` targets, stop-only runs in front of a target
and trailing target controls at ``D``; scatter writer: ``N`` on either
side, stops of different levels paired — delivered whole, with one input
cut in two at every position, or one token a cycle through a scalar
``Relay`` on an input or behind every output, must give the ``cycle``
engine's cycles, block activity, token counts, outputs and counters
under the timed engines and its outputs under the functional ones; every
protocol error is one message on every engine.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blocks import ALU, BlockError, Locator, ScatterValsWriter, StreamFeeder
from repro.formats import CompressedLevel
from repro.sim import BACKENDS, graph_token_counts, run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop

import test_array_writer
from test_reduce_window import UNTIMED, canon
from test_repeat import (
    TIMED, Relay, Slicer, assert_windows_sliced, probes, window_log, woken,
)


class Kind:
    """One block under test: its inputs and outputs by name, how to make
    it, and the counters a run of it must reproduce."""

    def __init__(self, ins, outs, make, counters):
        self.ins, self.outs, self.make, self.counters = ins, outs, make, counters


def alu(op):
    return Kind(("a", "b"), ("out",),
                lambda ins, outs, wake: ALU(op, *ins, *outs, name="alu"),
                lambda block: None)


def locator(fibers, targeted):
    level = CompressedLevel.from_fibers(fibers)

    def make(ins, outs, wake):
        target = ins[2] if targeted else None
        return Locator(level, ins[0], ins[1], *outs, in_target_ref=target,
                       name="locate")

    ins = ("crd", "ref", "target") if targeted else ("crd", "ref")
    return Kind(ins, ("o_crd", "o_found", "o_ref"), make,
                lambda block: (block.probes, block.hits))


def scatter(size):
    def make(ins, outs, wake):
        return (woken(ScatterValsWriter) if wake else ScatterValsWriter)(
            size, *ins, name="wr_scatter")

    return Kind(("ref", "val"), (), make,
                lambda block: [canon(v) for v in block.vals.tolist()])


def build(kind, streams, delivery):
    """``(blocks, recorded outputs, block)`` of one block under test.

    *delivery*: ``("whole", None)`` plays every input from a
    ``StreamFeeder``; ``("cut", (side, cut, gap))`` pushes *side*'s first
    *cut* tokens at once and the rest ``gap + 1`` cycles later;
    ``("relay", sides)`` passes the listed inputs — and every output,
    when ``"out"`` is among them — through a scalar ``Relay``, one token
    a cycle.  The last two put a scalar probe behind each output (or keep
    a writer woken), so the block's windows end where the pushes do.
    """
    mode, how = delivery
    blocks, ins = [], []
    for side in kind.ins:
        tokens, channel = list(streams[side]), Channel(side)
        if mode == "cut" and how[0] == side:
            blocks.append(Slicer(tokens, [how[1:]], channel, f"feed_{side}"))
        elif mode == "relay" and side in how:
            raw = Channel(f"raw_{side}")
            blocks += [StreamFeeder(tokens, raw, name=f"feed_{side}"),
                       Relay(raw, channel, f"relay_{side}")]
        else:
            blocks.append(StreamFeeder(tokens, channel, name=f"feed_{side}"))
        ins.append(channel)
    outs = [Channel(name, record=True) for name in kind.outs]
    pushed = outs
    if mode == "relay" and "out" in how:
        pushed = [Channel(f"mid_{name}") for name in kind.outs]
        blocks += [Relay(mid, out, f"tail_{out.name}")
                   for mid, out in zip(pushed, outs)]
    block = kind.make(ins, pushed, mode != "whole")
    blocks.append(block)
    if mode != "whole":
        blocks += probes(outs)
    return blocks, outs, block


def run(kind, streams, backend, delivery=("whole", None)):
    """Everything a backend may not change, for one run."""
    blocks, outs, block = build(kind, streams, delivery)
    with window_log() as log:
        report = run_blocks(blocks, backend=backend)
    mode, how = delivery
    # the target stream is drained at D as far as it has arrived: only
    # the paired inputs must have been read in the slices they came in
    if backend in TIMED and mode != "whole":
        for side in ((how[0],) if mode == "cut" else how):
            if side in ("out", "target"):
                continue
            live = streams[side].index(DONE) + 1
            pushes = (0 < how[1]) + (how[1] < live) if mode == "cut" else live
            assert_windows_sliced(log, side, pushes=pushes)
    return (
        report.cycles,
        report.block_activity(),
        graph_token_counts(blocks),
        [[canon(t) for t in ch.history] for ch in outs],
        kind.counters(block),
    )


def assert_matches_cycle(kind, streams, delivery=("whole", None)):
    """Full report identity on the timed engines, token counts, outputs
    and counters on the functional ones."""
    want = run(kind, streams, "cycle", delivery)
    for backend in TIMED:
        assert run(kind, streams, backend, delivery) == want, (backend, delivery)
    for backend in UNTIMED:
        got = run(kind, streams, backend, delivery)
        assert got[2:] == want[2:], (backend, delivery)
    return want


def deliveries(kind, streams):
    """Whole, every input cut in two at every position, and a relay on
    each input and behind the outputs."""
    yield ("whole", None)
    for side in kind.ins:
        for cut in range(len(streams[side]) + 1):
            yield ("cut", (side, cut, 2))
    for side in kind.ins + (("out",) if kind.outs else ()):
        yield ("relay", (side,))


# -- ALU -----------------------------------------------------------------------
operands = st.sampled_from([1.0, 2.5, -3.0, 0.0, -0.0, EMPTY])
phantoms = st.lists(st.sampled_from([0.0, -0.0, EMPTY]), max_size=2)
#: chunks of (operand pairs, the side its phantoms are on, phantoms, stop)
alu_chunks = st.lists(
    st.tuples(st.lists(st.tuples(operands, operands), max_size=3),
              st.sampled_from("ab"), phantoms, st.sampled_from([0, 0, 1, 2])),
    max_size=5,
)


def alu_streams(chunks, final=("a", [])):
    """Two operand streams at one level: per chunk its pairs, then the
    phantom zeros a zero-policy reducer emitted on one side, then one
    stop on both; *final* phantoms in front of ``D``."""
    streams = {"a": [], "b": []}
    for pairs, side, extra, level in chunks + [([], *final, None)]:
        streams["a"] += [x for x, _ in pairs]
        streams["b"] += [y for _, y in pairs]
        streams[side] += extra
        for tokens in streams.values():
            tokens.append(DONE if level is None else Stop(level))
    return streams


class TestALUWindow:
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @settings(max_examples=40, deadline=None)
    @given(chunks=alu_chunks, final=st.tuples(st.sampled_from("ab"), phantoms))
    @example(chunks=[([(1.0, 2.0)], "a", [0.0], 0), ([], "b", [EMPTY, -0.0], 1)],
             final=("a", [0.0]))
    def test_whole_streams(self, op, chunks, final):
        assert_matches_cycle(alu(op), alu_streams(chunks, final))

    @settings(max_examples=10, deadline=None)
    @given(chunks=alu_chunks, final=st.tuples(st.sampled_from("ab"), phantoms))
    def test_every_delivery(self, chunks, final):
        streams = alu_streams(chunks, final)
        for delivery in deliveries(alu("add"), streams):
            assert_matches_cycle(alu("add"), streams, delivery)

    def test_phantoms_on_either_side_are_one_window(self, monkeypatch):
        streams = alu_streams(
            [([(1.0, 2.0)], "a", [0.0], 0), ([(3.0, EMPTY)], "b", [EMPTY, -0.0], 1)],
            final=("b", [0.0]),
        )
        want = assert_matches_cycle(alu("mul"), streams)
        assert want[3] == [["0x1.0000000000000p+1", "S0", "0x0.0p+0", "S1", "D"]]
        advances = []

        def advance(block, arrivals, real=ALU._t_advance):
            advances.append(len(arrivals))
            return real(block, arrivals)

        monkeypatch.setattr(ALU, "_t_advance", advance)
        run(alu("mul"), streams, "timed-batch")
        assert advances == [5]  # two pairs, three terminators


# -- locator -------------------------------------------------------------------
UNIVERSE = 8
#: the probed level's fibers (the target stream picks among them)
levels = st.lists(
    st.lists(st.integers(0, UNIVERSE - 1), unique=True, max_size=5).map(sorted),
    min_size=1, max_size=3,
)
#: (coordinate or N, reference or N) pairs of one fiber
locate_pairs = st.lists(
    st.tuples(st.one_of(st.integers(0, UNIVERSE - 1), st.just(EMPTY)),
              st.one_of(st.integers(0, 20), st.just(EMPTY))),
    max_size=4,
)


@st.composite
def locate_cases(draw, targeted=True):
    """``(level fibers, streams)``: a crd/ref pair of one shape — fibers
    closed by a stop, then the pairs ``D`` closes — and, when *targeted*,
    the target stream: per fiber with pairs a target or ``N`` behind a
    run of stops, then trailing stops, unused targets and ``D``."""
    fibers = draw(levels)
    shape = draw(st.lists(st.tuples(locate_pairs, st.sampled_from([0, 0, 1, 2])),
                          max_size=5))
    shape.append((draw(locate_pairs), None))
    streams = {"crd": [], "ref": [], "target": []}
    target = st.one_of(st.integers(0, len(fibers) - 1), st.just(EMPTY))
    for pairs, level in shape:
        streams["crd"] += [c for c, _ in pairs]
        streams["ref"] += [r for _, r in pairs]
        if pairs:
            streams["target"] += [Stop(0)] * draw(st.integers(0, 2)) + [draw(target)]
        for side in ("crd", "ref"):
            streams[side].append(DONE if level is None else Stop(level))
    trailing = st.lists(st.one_of(st.sampled_from([Stop(0), Stop(1)]), target),
                        max_size=3)
    streams["target"] += draw(trailing) + [DONE]
    if not targeted:
        del streams["target"]
    return fibers if targeted else fibers[:1], streams


class TestLocatorWindow:
    @pytest.mark.parametrize("targeted", [False, True], ids=["fixed", "targeted"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_whole_streams(self, targeted, data):
        fibers, streams = data.draw(locate_cases(targeted))
        assert_matches_cycle(locator(fibers, targeted), streams)

    @pytest.mark.parametrize("targeted", [False, True], ids=["fixed", "targeted"])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_every_delivery(self, targeted, data):
        fibers, streams = data.draw(locate_cases(targeted))
        kind = locator(fibers, targeted)
        for delivery in deliveries(kind, streams):
            assert_matches_cycle(kind, streams, delivery)

    def test_n_targets_stop_runs_and_trailing_controls(self, monkeypatch):
        # fiber 0 probes level fiber 1, fiber 1 has no pairs and pops no
        # target, fiber 2 an N target; S0 S0 in front of it, S1 S0 D and
        # an unused target behind the last one
        streams = {
            "crd": [1, 4, EMPTY, Stop(0), Stop(0), 2, 4, Stop(1), DONE],
            "ref": [10, EMPTY, 12, Stop(0), Stop(0), 13, 14, Stop(1), DONE],
            "target": [1, Stop(0), Stop(0), EMPTY, Stop(1), 0, Stop(0), DONE],
        }
        kind = locator([[2, 4], [1, 3, 4]], True)
        want = assert_matches_cycle(kind, streams)
        assert want[3] == [
            ["1", "4", "N", "S0", "S0", "N", "N", "S1", "D"],
            ["2", "4", "N", "S0", "S0", "N", "N", "S1", "D"],
            ["10", "N", "N", "S0", "S0", "N", "N", "S1", "D"],
        ]
        assert want[4] == (2, 2)
        advances = []

        def advance(block, arrivals, real=Locator._t_advance):
            advances.append(len(arrivals))
            return real(block, arrivals)

        monkeypatch.setattr(Locator, "_t_advance", advance)
        run(kind, streams, "timed-batch")
        assert advances == [9]  # the whole stream, D included


# -- scatter writer ------------------------------------------------------------
SIZE = 5
#: chunks of (reference or N, value or N) pairs, closed by a stop on
#: each side — of levels that need not agree
scatter_chunks = st.lists(
    st.tuples(
        st.lists(st.tuples(st.one_of(st.integers(0, SIZE - 1), st.just(EMPTY)),
                           st.sampled_from([1.0, 0.5, -0.0, 1e16, -1e16, EMPTY])),
                 max_size=4),
        st.sampled_from([0, 1]), st.sampled_from([0, 1]),
    ),
    max_size=5,
)


def scatter_streams(chunks):
    streams = {"ref": [], "val": []}
    for pairs, ref_level, val_level in chunks:
        streams["ref"] += [r for r, _ in pairs] + [Stop(ref_level)]
        streams["val"] += [v for _, v in pairs] + [Stop(val_level)]
    return {side: tokens + [DONE] for side, tokens in streams.items()}


class TestScatterWindow:
    @settings(max_examples=40, deadline=None)
    @given(chunks=scatter_chunks)
    def test_whole_streams(self, chunks):
        assert_matches_cycle(scatter(SIZE), scatter_streams(chunks))

    @settings(max_examples=10, deadline=None)
    @given(chunks=scatter_chunks)
    def test_every_delivery(self, chunks):
        streams = scatter_streams(chunks)
        for delivery in deliveries(scatter(SIZE), streams):
            assert_matches_cycle(scatter(SIZE), streams, delivery)


# -- protocol errors -----------------------------------------------------------
#: name -> (kind, clean chunks a defect can sit behind, {defect: (message,
#: streams)}); every stream of a defect ends with D
ERRORS = {
    "alu": (
        alu("add"),
        {"a": [1.0, 0.0, Stop(0), 2.0, Stop(1)],
         "b": [1.0, Stop(0), 2.0, EMPTY, Stop(1)]},
        {
            "non-zero-phantom-a": ("alu: misaligned value streams (2.0 vs S0)",
                                   {"a": [1.0, 2.0, Stop(0), DONE],
                                    "b": [1.0, Stop(0), DONE]}),
            "non-zero-phantom-b": ("alu: misaligned value streams (S0 vs 3.0)",
                                   {"a": [Stop(0), DONE],
                                    "b": [0.0, 3.0, Stop(0), DONE]}),
            "misaligned-stops": ("alu: misaligned stops S0 vs S1",
                                 {"a": [1.0, Stop(0), DONE],
                                  "b": [1.0, Stop(1), DONE]}),
            "stop-vs-done": ("alu: misaligned value streams (S0 vs D)",
                             {"a": [1.0, Stop(0), DONE], "b": [1.0, DONE]}),
            "done-vs-stop": ("alu: misaligned value streams (D vs S1)",
                             {"a": [1.0, DONE], "b": [1.0, 0.0, Stop(1), DONE]}),
            "non-zero-phantom-at-done": ("alu: misaligned value streams (D vs 4.0)",
                                         {"a": [DONE], "b": [EMPTY, 4.0, DONE]}),
        },
    ),
    "locate": (
        locator([[1, 2], [0, 3]], True),
        {"crd": [1, EMPTY, Stop(0), 3, Stop(1)], "ref": [0, 1, Stop(0), EMPTY, Stop(1)],
         "target": [0, Stop(0), 1]},
        {
            "coordinate-vs-stop": ("locate: misaligned inputs (3 vs S0)",
                                   {"crd": [1, 3, Stop(0), DONE],
                                    "ref": [0, Stop(0), DONE], "target": [0, DONE]}),
            "stop-vs-reference": ("locate: misaligned inputs (S0 vs 2)",
                                  {"crd": [1, Stop(0), DONE],
                                   "ref": [0, 2, Stop(0), DONE], "target": [0, DONE]}),
            "stop-levels": ("locate: misaligned inputs (S0 vs S1)",
                            {"crd": [1, Stop(0), DONE], "ref": [0, Stop(1), DONE],
                             "target": [0, DONE]}),
            "done-vs-stop": ("locate: misaligned inputs (D vs S0)",
                             {"crd": [1, DONE], "ref": [0, Stop(0), DONE],
                              "target": [0, DONE]}),
            "n-vs-done": ("locate: misaligned inputs (N vs D)",
                          {"crd": [EMPTY, Stop(0), DONE], "ref": [DONE],
                           "target": [0, DONE]}),
            "target-ended": ("locate: target stream ended before the coordinates",
                             {"crd": [1, Stop(0), 2, Stop(0), DONE],
                              "ref": [0, Stop(0), 1, Stop(0), DONE],
                              "target": [0, Stop(0), DONE]}),
        },
    ),
    "scatter": (
        scatter(3),
        {"ref": [0, EMPTY, Stop(0), 2, Stop(1)],
         "val": [1.0, 2.0, Stop(1), EMPTY, Stop(0)]},
        {
            message: (message, {"ref": ref, "val": val})
            for message, (ref, val)
            in test_array_writer.TestOtherWriters.SCATTER_ERRORS.items()
        },
    ),
}
CASES = [(block, defect) for block, (_, _, table) in ERRORS.items() for defect in table]


class TestProtocolErrors:
    @pytest.mark.parametrize("wiring", ["whole", "relay-first", "relay-second", "cut"])
    @pytest.mark.parametrize("repeat", (0, 1, 3), ids="prefix{}".format)
    @pytest.mark.parametrize("block, defect", CASES, ids=[f"{b}-{d}" for b, d in CASES])
    def test_one_message_on_every_engine(self, block, defect, repeat, wiring):
        kind, prefix, table = ERRORS[block]
        message, defect_streams = table[defect]
        streams = {side: prefix[side] * repeat + defect_streams[side]
                   for side in kind.ins}
        first, second = kind.ins[:2]
        delivery = {
            "whole": ("whole", None),
            "relay-first": ("relay", (first,)),
            "relay-second": ("relay", (second,)),
            "cut": ("cut", (first, len(streams[first]) // 2, 1)),
        }[wiring]
        for backend in BACKENDS:
            with pytest.raises(BlockError) as caught:
                run_blocks(build(kind, streams, delivery)[0], backend=backend)
            assert str(caught.value) == message, backend
