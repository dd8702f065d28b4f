"""Array (Definition 3.5) and level writer (Definition 3.8) tests."""

import random
from itertools import takewhile

import numpy as np
import pytest

from repro.blocks import (
    ArrayLoad,
    BlockError,
    CompressedLevelWriter,
    LinkedListLevelWriter,
    ScatterValsWriter,
    StreamFeeder,
    ValsWriter,
)
from repro.sim import run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop

from blockkit import ENGINES, TIMED, Relay, Slicer


class TestArrayLoad:
    def test_load_by_reference(self, engine):
        refs = Channel("r", kind="ref")
        out = Channel("o", kind="vals", record=True)
        block = ArrayLoad([1.0, 2.0, 3.0], refs, out)
        run_blocks([StreamFeeder([2, 0, Stop(0), DONE], refs), block], backend=engine)
        assert list(out.history) == [3.0, 1.0, Stop(0), DONE]
        assert block.loads == 2

    def test_empty_reference_loads_zero(self, engine):
        refs = Channel("r", kind="ref")
        out = Channel("o", kind="vals", record=True)
        run_blocks([
            StreamFeeder([EMPTY, 1, DONE], refs),
            ArrayLoad([5.0, 6.0], refs, out),
        ], backend=engine)
        assert list(out.history) == [0.0, 6.0, DONE]

    def test_control_tokens_pass_through(self, engine):
        refs = Channel("r", kind="ref")
        out = Channel("o", kind="vals", record=True)
        run_blocks([StreamFeeder([Stop(2), DONE], refs), ArrayLoad([], refs, out)],
                   backend=engine)
        assert list(out.history) == [Stop(2), DONE]


class TestArrayStore:
    """The array's store mode (Definition 3.5): a value stream written at
    the locations a reference stream names, which ``ScatterValsWriter``
    carries out for dense left-hand sides."""

    def test_store_side_effect(self, engine):
        refs, data = Channel("r", kind="ref"), Channel("d", kind="vals")
        block = ScatterValsWriter(4, refs, data)
        run_blocks([
            StreamFeeder([1, 3, Stop(0), 0, Stop(1), DONE], refs, name="fr"),
            StreamFeeder([7.0, 9.0, Stop(0), 2.0, Stop(1), DONE], data, name="fd"),
            block,
        ], backend=engine)
        # Stops on both streams are consumed in lockstep and store nothing.
        assert block.vals.tolist() == [2.0, 7.0, 0.0, 9.0]

    def test_ref_paired_with_stop_rejected(self, engine):
        refs, data = Channel("r", kind="ref"), Channel("d", kind="vals")
        with pytest.raises(BlockError, match="misaligned"):
            run_blocks([
                StreamFeeder([1, DONE], refs, name="fr"),
                StreamFeeder([Stop(0), DONE], data, name="fd"),
                ScatterValsWriter(2, refs, data),
            ], backend=engine)


class TestCompressedWriter:
    def test_builds_segments_per_stop(self, harness, engine):
        crd = Channel("c")
        writer = CompressedLevelWriter(crd)
        run_blocks([
            StreamFeeder(harness.paper("D, S1, 3, 1, S0, 2, 0, S0, 1"), crd),
            writer,
        ], backend=engine)
        assert writer.level.seg.tolist() == [0, 1, 3, 5]
        assert writer.level.crd.tolist() == [1, 0, 2, 1, 3]

    def test_empty_fibers_become_empty_segments(self, engine):
        crd = Channel("c")
        writer = CompressedLevelWriter(crd)
        run_blocks([StreamFeeder([0, Stop(0), Stop(0), 1, Stop(1), DONE], crd), writer],
                   backend=engine)
        assert writer.level.seg.tolist() == [0, 1, 1, 2]

    def test_level_unavailable_before_done(self):
        writer = CompressedLevelWriter(Channel("c"))
        with pytest.raises(BlockError):
            _ = writer.level


class TestOtherWriters:
    def test_vals_writer_arrival_order(self, engine):
        val = Channel("v", kind="vals")
        writer = ValsWriter(val)
        run_blocks([
            StreamFeeder([1.0, Stop(0), EMPTY, 2.0, Stop(1), DONE], val), writer
        ], backend=engine)
        assert writer.vals.tolist() == [1.0, 0.0, 2.0]

    def test_scatter_writer_accumulates(self, engine):
        refs, val = Channel("r", kind="ref"), Channel("v", kind="vals")
        writer = ScatterValsWriter(4, refs, val)
        run_blocks([
            StreamFeeder([1, 1, 3, Stop(0), DONE], refs, name="fr"),
            StreamFeeder([2.0, 3.0, 4.0, Stop(0), DONE], val, name="fv"),
            writer,
        ], backend=engine)
        assert writer.vals.tolist() == [0.0, 5.0, 0.0, 4.0]

    @pytest.mark.parametrize("backend", ENGINES)
    def test_scatter_writer_pairs_n_and_stops(self, backend):
        # an N on either side is a datum that scatters nothing; a stop
        # pairs with a stop of any level
        refs, val = Channel("r", kind="ref"), Channel("v", kind="vals")
        writer = ScatterValsWriter(3, refs, val)
        run_blocks([
            StreamFeeder([0, EMPTY, 2, Stop(0), 1, Stop(1), DONE], refs, name="fr"),
            StreamFeeder([1.0, 5.0, EMPTY, Stop(1), 2.0, Stop(0), DONE], val,
                         name="fv"),
            writer,
        ], backend=backend)
        assert writer.vals.tolist() == [1.0, 2.0, 0.0]

    def test_linked_list_writer_discordant(self, engine):
        parent, crd = Channel("p", kind="ref"), Channel("c")
        writer = LinkedListLevelWriter(parent, crd)
        run_blocks([
            StreamFeeder([2, 0, 2, Stop(0), DONE], parent, name="fp"),
            StreamFeeder([10, 11, 12, Stop(0), DONE], crd, name="fc"),
            writer,
        ], backend=engine)
        assert [c for c, _ in writer.level.fiber(2)] == [10, 12]
        assert [c for c, _ in writer.level.fiber(0)] == [11]
        assert writer.child_refs == [0, 1, 2]


class TestWriterStorage:
    """What a writer stores, read back as values: the same arrays on every
    engine, however the stream was windowed, and with a ``True`` in the
    value stream (the batched plane cannot hold it: the timed engines
    hand the run to ``cycle``)."""

    CRD = [0, 3, Stop(0), Stop(0), 1, Stop(0), 2, 4, 7, Stop(1), 5, DONE]
    VALS = [1.5, Stop(0), EMPTY, 2.0, Stop(0), -0.0, 3.25, Stop(1), 4.0, DONE]

    def _run(self, backend, delivery, bail):
        crd_tokens, val_tokens = list(self.CRD), list(self.VALS)
        if bail:
            val_tokens[3] = True
        blocks = []
        writers = []
        for tokens, cls, kind in ((crd_tokens, CompressedLevelWriter, "crd"),
                                  (val_tokens, ValsWriter, "vals")):
            channel = Channel(kind, kind=kind)
            if delivery == "whole":  # the feeder's generator plays the True
                blocks.append(StreamFeeder(tokens, channel, name=f"f{kind}"))
            elif delivery == "one-a-cycle":
                blocks.append(Slicer(tokens, [(1, 0)] * len(tokens), channel,
                                     f"f{kind}"))
            else:
                rng = random.Random(len(tokens))
                plan = [(rng.randint(1, 3), rng.randint(0, 2)) for _ in tokens]
                blocks.append(Slicer(tokens, plan, channel, f"f{kind}"))
            writers.append(cls(channel, name=f"w{kind}"))
        report = run_blocks(blocks + writers, backend=backend)
        if bail and backend in TIMED:  # the source plays the True on cycle
            assert report.handoff.startswith("block 'fvals'"), backend
        crd, vals = writers
        stored = (crd.crd, crd.seg, crd.level.crd, crd.level.seg, vals.vals)
        for array, dtype in zip(stored, (np.int64,) * 4 + (np.float64,)):
            assert isinstance(array, np.ndarray) and array.dtype == dtype
        assert crd.level.crd is crd.crd and crd.level.seg is crd.seg
        return [a.tolist() for a in stored], (report.cycles, report.block_activity())

    @pytest.mark.parametrize("bail", [False, True])
    @pytest.mark.parametrize("delivery", ["whole", "one-a-cycle", "sliced"])
    def test_every_engine_stores_the_same_arrays(self, delivery, bail):
        want, cycles = self._run("cycle", delivery, bail)
        assert want[0] == [0, 3, 1, 2, 4, 7, 5]
        assert want[1] == [0, 2, 2, 3, 6, 7]
        assert want[4] == [1.5, 0.0, 1.0 if bail else 2.0, -0.0, 3.25, 4.0]
        for backend in ENGINES:
            got, got_cycles = self._run(backend, delivery, bail)
            assert got == want, backend
            assert got_cycles == cycles, backend

    #: a coordinate no int64 holds, as the error prints it -> coordinate
    #: streams that hold it (the writer used to store int(1.5) == 1, or
    #: raise numpy's ValueError / OverflowError, to store an integral
    #: float as the integer it equals, and to store ``True`` as 1)
    COORDINATE_ERRORS = {
        "1.5": ([1.5, 2, Stop(0), DONE],),
        "nan": ([0, float("nan"), Stop(0), DONE],),
        "inf": ([float("inf"), Stop(0), DONE],),
        "2.0": ([1, 2.0, Stop(0), -3.0, DONE],),
        "True": ([1, True, Stop(0), DONE], [True, Stop(0), DONE]),
        "9.223372036854776e+18": ([1, Stop(0), 2.0 ** 63, Stop(0), DONE],),
        "9223372036854775808": ([2 ** 63, Stop(0), DONE], [1, 2 ** 63, Stop(0), DONE]),
        "(3, 4)": ([1, (3, 4), Stop(0), DONE],),
    }

    #: how the coordinates reach the writer: a feeder on the coordinate
    #: channel refuses them when it is built; queued on the channel before
    #: the run, or played onto a value channel wired to the writer, bare or
    #: through a relay, they reach the writer, whose run the plan hands to
    #: ``cycle``
    ROUTES = ("feeder", "queued", "vals-link", "vals-relay")

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("bad", COORDINATE_ERRORS)
    def test_a_coordinate_no_int64_holds_is_a_named_error(self, bad, route):
        for tokens in self.COORDINATE_ERRORS[bad]:
            outcomes = set()
            for backend in ENGINES:
                with pytest.raises(BlockError) as caught:
                    crd = Channel("c")
                    raw = Channel("raw", kind="vals")
                    writer = CompressedLevelWriter(crd)
                    if route == "queued":
                        blocks = []
                        for token in tokens:
                            crd.push(token)
                    elif route == "vals-relay":
                        blocks = [StreamFeeder(tokens, raw, name="f"), Relay(raw, crd, "r")]
                    else:
                        blocks = [StreamFeeder(tokens, crd if route == "feeder" else raw,
                                               name="f")]
                        writer.in_crd = writer.inputs["in_crd"] = blocks[0].out
                    run_blocks(blocks + [writer], backend=backend)
                # what the writer keeps when it raises: the coordinates
                # in front of the one it names
                outcomes.add((str(caught.value), tuple(writer._crd.array().tolist())))
            owner = "f" if route == "feeder" else "wr_comp"
            assert len(outcomes) == 1, (tokens, outcomes)
            (message, kept), = outcomes
            assert message == f"{owner}: non-integer coordinate {bad}", tokens
            if route != "feeder":
                data = [t for t in tokens if not isinstance(t, Stop) and t is not DONE]
                assert kept == tuple(takewhile(
                    lambda t: type(t) is int and -2 ** 63 <= t < 2 ** 63, data))
