"""Repeater tests, including the paper's Figure 6 example."""

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import (
    Block,
    BlockError,
    RepeatSigGen,
    Repeater,
    StreamFeeder,
)
from repro.blocks.repeat import REPEAT
from repro.sim import BACKENDS, DeadlockError, graph_token_counts, run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop
from repro.streams.token import is_data, is_done


class Relay(Block):
    """Scalar-only pass-through.  It has no timed hook, so the timed
    engines step its generator and its consumer is fed one-token
    windows, one per cycle."""

    def __init__(self, in_, out, name):
        super().__init__(name)
        self.in_ = self._in("in_", in_)
        self.out = self._out("out", out)

    def _run(self):
        while True:
            token = yield from self._get(self.in_)
            self.out.push(token)
            yield True
            if is_done(token):
                return


class Probe(Block):
    """Scalar-only consumer, one token a cycle.

    The timed engines wake a timed block when a generator needs what it
    produced; a block whose outputs nobody steps for is drained in one
    window however its input was sliced.  A probe behind the block
    under test is that generator: the block is brought current before
    every cycle's step, so its windows end where the slices do."""

    def __init__(self, in_, name):
        super().__init__(name)
        self.in_ = self._in("in_", in_)

    def _run(self):
        while True:
            token = yield from self._get(self.in_)
            yield True
            if is_done(token):
                return


def probes(outs):
    """One :class:`Probe` behind each of *outs*."""
    return [Probe(ch, f"probe_{ch.name}") for ch in outs]


def woken(cls):
    """*cls* as a block the timed engines keep current every cycle.

    For a block under test with no output to put a :class:`Probe`
    behind (writers, sinks): the engines bring a block that declares it
    may leave the timed plane, and everything timed upstream of it,
    current every cycle — the test-only subclass declares just that."""
    return type(cls.__name__, (cls,), {"timed_may_bail": True})


@contextmanager
def window_log():
    """``(noted, taken)`` counters by channel name while a timed engine
    runs: the cycles in which a generator's pushes were noted for a
    timed reader, and the non-empty stamped windows handed to one."""
    noted, taken = Counter(), Counter()
    real_note, real_take = Channel.note_pushes, Channel.timed_take

    def note(channel, stamp, kind):
        noted[channel.name] += 1
        return real_note(channel, stamp, kind)

    def take(channel):
        window = real_take(channel)
        taken[channel.name] += bool(window)
        return window

    Channel.note_pushes, Channel.timed_take = note, take
    try:
        yield noted, taken
    finally:
        Channel.note_pushes, Channel.timed_take = real_note, real_take


def assert_windows_sliced(log, source, reader=None, pushes=None):
    """Each cycle's pushes on the channel named *source* made a window
    of their own on *reader* (default: the same channel; another one
    when a timed block sits in between): the delivery still cuts the
    windows of the block under test, wall-clock-free.  *pushes* is how
    many of them the reader lives to see, when a ``D`` ends it early."""
    noted, taken = log
    if pushes is None:
        pushes = noted[source]
    assert noted[source] >= pushes > 0, (source, noted)
    assert taken[reader or source] >= pushes, (source, pushes, taken)


#: how the RepeatSigGen -> Repeater pair is wired: straight, with a
#: recorded or a prefilled signal link, or fed one token per cycle
#: through a scalar relay on either input (a scalar probe behind the
#: output then keeps the repeater's windows one token long).
WIRINGS = ("plain", "recorded-signal", "prefilled-signal",
           "relay-driver", "relay-refs")


def pipeline(crd_tokens, ref_tokens, wiring="plain", prefill=0):
    """``(blocks, recorded output channel)`` of one repeater pipeline.

    *prefill* (``prefilled-signal`` only) is how many leading repeat
    signals already sit on the signal link when the run starts; the
    driver feeder plays the rest.
    """
    crd = Channel("crd")
    ref = Channel("ref", kind="ref")
    sig = Channel("sig", kind="repsig", record=wiring == "recorded-signal")
    out = Channel("out", kind="ref", record=True)
    crd_tokens, ref_tokens = list(crd_tokens), list(ref_tokens)
    blocks = []
    if wiring == "prefilled-signal":
        prefill = min(prefill, len(crd_tokens) - 1)
        for token in crd_tokens[:prefill]:
            sig.push(REPEAT if is_data(token) else token)
        crd_tokens = crd_tokens[prefill:]
    crd_in, ref_in = crd, ref
    if wiring == "relay-driver":
        crd_in = Channel("crd_raw")
        blocks.append(Relay(crd_in, crd, name="relay"))
    elif wiring == "relay-refs":
        ref_in = Channel("ref_raw", kind="ref")
        blocks.append(Relay(ref_in, ref, name="relay"))
    blocks += [
        StreamFeeder(crd_tokens, crd_in, name="fc"),
        StreamFeeder(ref_tokens, ref_in, name="fr"),
        RepeatSigGen(crd, sig, name="repeat.sig"),
        Repeater(ref, sig, out, name="repeat"),
    ]
    if wiring.startswith("relay"):
        blocks += probes([out])
    return blocks, out


def repeat(crd_tokens, ref_tokens):
    blocks, out = pipeline(crd_tokens, ref_tokens)
    run_blocks(blocks)
    return list(out.history)


class TestFigure6:
    def test_scalar_repeat(self, harness):
        # Repeating c's root reference over b's coordinates:
        # "D, S0, 9, 8, 6, 2, 0" drives "D, 0" into "D, S0, 0, 0, 0, 0, 0".
        out = repeat(harness.paper("D, S0, 9, 8, 6, 2, 0"), harness.paper("D, 0"))
        assert out == harness.paper("D, S0, 0, 0, 0, 0, 0")


class TestHierarchicalRepeat:
    def test_one_ref_per_fiber(self, harness):
        # Two references, each repeated over its own driving fiber.
        out = repeat(
            harness.paper("D, S1, 12, 11, S0, 10"),
            harness.paper("D, S0, 7, 5"),
        )
        assert out == harness.paper("D, S1, 7, 7, S0, 5")

    def test_gustavson_shape(self, harness):
        # B's per-(i,k) value refs repeated over C's j fibers (Figure 4).
        out = repeat(
            harness.paper("D, S2, 9, 8, S0, 7, S1, 6, S0, 5"),
            harness.paper("D, S1, 22, 21, S0, 20, 10"),
        )
        assert out == harness.paper("D, S2, 22, 22, S0, 21, S1, 20, S0, 10")

    def test_empty_driving_fiber_discards_ref(self):
        # The middle reference's fiber is empty: it is skipped entirely.
        out = repeat(
            [0, Stop(0), Stop(0), 1, Stop(1), DONE],
            [10, 11, 12, Stop(0), DONE],
        )
        assert out == [10, Stop(0), Stop(0), 12, Stop(1), DONE]

    def test_empty_ref_fiber_elevated_driver_stop(self):
        # An empty reference fiber pairs with an elevated driver stop
        # (the empty-intersection case of the SpMM dataflow).
        out = repeat(
            [Stop(1), 5, Stop(2), DONE],
            [Stop(0), 7, Stop(1), DONE],
        )
        assert out == [Stop(1), 7, Stop(2), DONE]

    def test_empty_token_repeats_as_empty(self):
        out = repeat([3, 4, Stop(0), DONE], [EMPTY, DONE])
        assert out == [EMPTY, EMPTY, Stop(0), DONE]


class TestProtocolErrors:
    def test_driver_desync_detected(self):
        with pytest.raises((BlockError, DeadlockError)):
            repeat([5, Stop(0), DONE], [1, 2, Stop(0), DONE])

    def test_done_mismatch_detected(self):
        with pytest.raises((BlockError, DeadlockError)):
            repeat([DONE], [1, Stop(0), DONE])


#: supergroups -> groups -> references as (is N, driving-fiber length)
repeat_shapes = st.lists(
    st.lists(
        st.lists(st.tuples(st.booleans(), st.integers(0, 6)), max_size=3),
        min_size=1, max_size=3,
    ),
    min_size=1, max_size=3,
)


def protocol_streams(shape):
    """A (driver, reference) pair obeying the repeat protocol.

    One driving fiber per reference, closed by ``S0`` — or by an
    elevated stop when it also closes its group (``S1``) or its
    supergroup (``S2``), which the reference stream mirrors one level
    down.  Empty groups, empty driving fibers and ``N`` references all
    occur.
    """
    drv, refs = [], []
    for supergroup in shape:
        for gi, group in enumerate(supergroup):
            up = 1 if gi == len(supergroup) - 1 else 0
            for j, (empty, length) in enumerate(group):
                refs.append(EMPTY if empty else float(len(refs)))
                drv.extend(range(length))
                drv.append(Stop(up + 1) if j == len(group) - 1 else Stop(0))
            if not group:
                drv.append(Stop(up + 1))
            refs.append(Stop(up))
    return drv + [DONE], refs + [DONE]


class TestTimedDrainUnfused:
    """The vectorised ``Repeater.drain_timed`` is the block's only timed
    drain, under timed-batch and compiled alike (repeaters carry no fuse
    role).  Every wiring must reproduce the cycle engine's full
    report."""

    @pytest.mark.parametrize("wiring", WIRINGS)
    @settings(max_examples=40, deadline=None)
    @given(shape=repeat_shapes, prefill=st.integers(1, 12))
    def test_full_report_identity(self, wiring, shape, prefill):
        drv, refs = protocol_streams(shape)
        runs = {}
        for backend in ("cycle", "timed-batch", "compiled"):
            blocks, out = pipeline(drv, refs, wiring, prefill)
            with window_log() as log:
                report = run_blocks(blocks, backend=backend)
            runs[backend] = (
                report.cycles,
                report.block_activity(),
                graph_token_counts(blocks),
                list(out.history),
            )
            if backend != "cycle" and wiring == "relay-driver":
                assert_windows_sliced(log, "crd", "sig")
            if backend != "cycle" and wiring == "relay-refs":
                assert_windows_sliced(log, "ref")
        assert runs["timed-batch"] == runs["cycle"]
        assert runs["compiled"] == runs["cycle"]
        assert report.fusion["kinds"] == {}
        assert report.fusion["fallbacks"] == 0


#: three clean driving fibers, so a defect can sit behind a window
CLEAN = ([0, 1, Stop(0), 2, Stop(1), 3, Stop(1)], [10, 11, Stop(0), 12, Stop(0)])
ERRORS = {
    "repeat: driver stream ended mid-fiber (D)":
        ([5, DONE], [1, Stop(0), DONE]),
    "repeat: reference stop S0 expects driver stop S1, got 'R'":
        ([5, Stop(1), DONE], [Stop(0), DONE]),
    "repeat: reference stop S0 expects driver stop S1, got S0":
        ([Stop(0), DONE], [Stop(0), DONE]),
    "repeat: reference stop S1 expects driver stop S2, got D":
        ([DONE], [Stop(1), DONE]),
    "repeat: driver stop S1 expects reference stop S0, got 2":
        ([5, Stop(1), 6, Stop(1), DONE], [1, 2, Stop(0), DONE]),
    "repeat: driver stop S2 expects reference stop S1, got S0":
        ([5, Stop(2), DONE], [1, Stop(0), DONE]),
    "repeat: driver stop S1 expects reference stop S0, got D":
        ([Stop(1), DONE], [1, DONE]),
    "repeat: driver stream out of sync at D ('R')":
        ([5, Stop(0), DONE], [DONE]),
    "repeat: driver stream out of sync at D (S0)":
        ([Stop(0), DONE], [DONE]),
}


class TestProtocolErrorTable:
    """Both definitions raise through the same checks: one message per
    defect on every engine, wherever in a window it sits."""

    @pytest.mark.parametrize("wiring", ("plain", "relay-driver", "relay-refs"))
    @pytest.mark.parametrize("clean", (0, 1, 3), ids="after{}".format)
    @pytest.mark.parametrize("message", ERRORS)
    def test_one_message_on_every_engine(self, message, clean, wiring):
        drv, refs = ERRORS[message]
        for backend in BACKENDS:
            blocks, _ = pipeline(
                CLEAN[0] * clean + drv, CLEAN[1] * clean + refs, wiring
            )
            with pytest.raises(BlockError) as caught:
                run_blocks(blocks, backend=backend)
            assert str(caught.value) == message, backend

    def test_s0_closed_fiber_in_front_of_a_bare_stop(self):
        # not a stream the paper draws, but one the generator accepts:
        # the driving fiber closes S0, so the reference stop behind its
        # owner is bare and pairs with the empty S1
        drv = [4, Stop(0), Stop(1), 5, Stop(1), DONE]
        refs = [7, Stop(0), 8, Stop(0), DONE]
        for wiring in WIRINGS:
            runs = set()
            for backend in ("cycle", "timed-batch", "compiled"):
                blocks, out = pipeline(drv, refs, wiring, prefill=2)
                report = run_blocks(blocks, backend=backend)
                assert list(out.history) == [7, Stop(0), Stop(1), 8, Stop(1), DONE]
                runs.add((report.cycles, repr(report.block_activity())))
            assert len(runs) == 1, wiring
