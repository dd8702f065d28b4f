"""Tests for locators, bitvector blocks, and parallelize/serialize."""

import pytest

from repro.blocks import (
    BVExpander,
    BVIntersect,
    BitvectorLevelScanner,
    BlockError,
    InterleaveSerializer,
    Locator,
    Parallelizer,
    StreamFeeder,
    make_scanner,
)
from repro.formats import BitvectorLevel, CompressedLevel, DenseLevel
from repro.sim import run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop


class TestLocator:
    def _run(self, level, crd_tokens, ref_tokens, *, backend):
        crd, ref = Channel("c"), Channel("r", kind="ref")
        oc = Channel("oc", record=True)
        of = Channel("of", kind="ref", record=True)
        oi = Channel("oi", kind="ref", record=True)
        blocks = [
            StreamFeeder(crd_tokens, crd, name="fc"),
            StreamFeeder(ref_tokens, ref, name="fr"),
        ]
        blocks.append(Locator(level, crd, ref, oc, of, oi))
        run_blocks(blocks, backend=backend)
        return list(oc.history), list(of.history), list(oi.history)

    def test_hit_and_miss(self, engine):
        level = CompressedLevel.from_fibers([[1, 4, 7]])
        oc, of, oi = self._run(level, [1, 5, 7, Stop(0), DONE],
                               [0, 1, 2, Stop(0), DONE], backend=engine)
        assert oc == [1, EMPTY, 7, Stop(0), DONE]
        assert of == [0, EMPTY, 2, Stop(0), DONE]
        assert oi == [0, EMPTY, 2, Stop(0), DONE]

    def test_dense_level_always_hits(self, engine):
        oc, of, _ = self._run(DenseLevel(10), [3, 9, Stop(0), DONE],
                              [0, 1, Stop(0), DONE], backend=engine)
        assert oc == [3, 9, Stop(0), DONE]
        assert of == [3, 9, Stop(0), DONE]

    def test_statistics(self, engine):
        level = CompressedLevel.from_fibers([[1, 4]])
        crd, ref = Channel("c"), Channel("r", kind="ref")
        locator = Locator(level, crd, ref, Channel("a"), Channel("b"), Channel("d"))
        run_blocks([
            StreamFeeder([1, 2, Stop(0), DONE], crd, name="fc"),
            StreamFeeder([0, 1, Stop(0), DONE], ref, name="fr"),
            locator,
        ], backend=engine)
        assert locator.probes == 2
        assert locator.hits == 1


class TestBitvectorBlocks:
    def test_converter_packs_fibers(self, engine):
        # Each coordinate fiber packs into ceil(11 / 4) b-bit words, lowest
        # coordinate in the lowest bit, one fiber after another.
        level = BitvectorLevel.from_fibers([[0, 2, 6, 8, 9], [1, 5]], 11, 4)
        ref = Channel("r", kind="ref")
        out = Channel("o", kind="bv", record=True)
        run_blocks([
            StreamFeeder([0, 1, Stop(0), DONE], ref),
            BitvectorLevelScanner(level, ref, out, Channel("f", kind="ref")),
        ], backend=engine)
        assert list(out.history) == [
            0b0101, 0b0100, 0b0011, Stop(0), 0b0010, 0b0010, 0, Stop(1), DONE,
        ]

    def _merge(self, cls, words_a, base_a, words_b, base_b, *, backend):
        channels = {
            name: Channel(name, kind=kind)
            for name, kind in [
                ("ba", "bv"), ("ra", "ref"), ("bb", "bv"), ("rb", "ref"),
            ]
        }
        outs = [Channel(f"o{i}", record=True) for i in range(5)]
        run_blocks([
            StreamFeeder(words_a, channels["ba"], name="f1"),
            StreamFeeder(base_a, channels["ra"], name="f2"),
            StreamFeeder(words_b, channels["bb"], name="f3"),
            StreamFeeder(base_b, channels["rb"], name="f4"),
            cls(channels["ba"], channels["ra"], channels["bb"], channels["rb"],
                *outs),
        ], backend=backend)
        return [list(o.history) for o in outs]

    def test_word_wise_and(self, engine):
        merged, *_ = self._merge(
            BVIntersect,
            [0b1100, Stop(0), DONE], [0, Stop(0), DONE],
            [0b0101, Stop(0), DONE], [0, Stop(0), DONE],
            backend=engine,
        )
        assert merged == [0b0100, Stop(0), DONE]

    def test_expander_popcount_refs(self, engine):
        chans = {n: Channel(n) for n in ("bv", "wa", "ba", "wb", "bb")}
        oc = Channel("oc", record=True)
        ra = Channel("ra", kind="ref", record=True)
        rb = Channel("rb", kind="ref", record=True)
        run_blocks([
            StreamFeeder([0b0110, Stop(0), DONE], chans["bv"], name="f0"),
            StreamFeeder([0b0110, Stop(0), DONE], chans["wa"], name="f1"),
            StreamFeeder([10, Stop(0), DONE], chans["ba"], name="f2"),
            StreamFeeder([0b1110, Stop(0), DONE], chans["wb"], name="f3"),
            StreamFeeder([20, Stop(0), DONE], chans["bb"], name="f4"),
            BVExpander(4, chans["bv"], chans["wa"], chans["ba"], chans["wb"],
                       chans["bb"], oc, ra, rb),
        ], backend=engine)
        assert list(oc.history) == [1, 2, Stop(0), DONE]
        assert list(ra.history) == [10, 11, Stop(0), DONE]
        assert list(rb.history) == [20, 21, Stop(0), DONE]


class TestParallelSerialize:
    def test_round_trip(self, engine):
        # Forking a reference stream element-wise, scanning each lane's
        # references with its own scanner and rejoining the lanes gives
        # the stream one scanner makes from the unforked references.
        level = CompressedLevel.from_fibers([[0, 2], [1], [], [3, 4]])
        refs = [0, 1, 2, 3, Stop(0), DONE]

        src = Channel("s", kind="ref")
        seq = Channel("q", record=True)
        run_blocks([
            StreamFeeder(refs, src),
            make_scanner(level, src, seq, Channel("qf", kind="ref")),
        ], backend=engine)

        src = Channel("s", kind="ref")
        lanes = [Channel(f"l{i}", kind="ref") for i in range(2)]
        crds = [Channel(f"c{i}") for i in range(2)]
        out = Channel("o", record=True)
        run_blocks([
            StreamFeeder(refs, src),
            Parallelizer(src, lanes, granularity="element"),
            *(make_scanner(level, lane, crd, Channel(f"f{i}", kind="ref"),
                           name=f"scan{i}")
              for i, (lane, crd) in enumerate(zip(lanes, crds))),
            InterleaveSerializer(crds, out),
        ], backend=engine)
        assert list(seq.history) == [
            0, 2, Stop(0), 1, Stop(0), Stop(0), 3, 4, Stop(1), DONE,
        ]
        assert list(out.history) == list(seq.history)

    def test_lane_distribution(self, engine):
        src = Channel("s")
        lanes = [Channel(f"l{i}", record=True) for i in range(2)]
        run_blocks([
            StreamFeeder([0, Stop(0), 1, Stop(0), DONE], src),
            Parallelizer(src, lanes),
        ], backend=engine)
        assert list(lanes[0].history) == [0, Stop(0), Stop(0), DONE]
        assert list(lanes[1].history) == [Stop(0), 1, Stop(0), DONE]

    def test_zero_lanes_rejected(self):
        with pytest.raises(BlockError):
            Parallelizer(Channel("s"), [])
