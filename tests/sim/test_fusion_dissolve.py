"""Unbatchable tokens in a feeder: the whole graph goes to ``cycle``.

Tuple tokens (skip-hint style payloads the window plane cannot
represent) sit in a ``StreamFeeder``'s list behind a first fiber of
ordinary tokens, on the way to a merger, a repeater or a merger with a
writer tail.  ``StreamFeeder.timed_capable`` rejects such a list, so a
timed engine hands the whole graph to ``cycle`` before the run starts:
``report.handoff`` names the feeder, no block runs a window hook, and
the ``SimulationReport`` must be bit-identical on every engine.
``report.fusion`` sees no segment and no fallback.
"""

import pytest

from repro.blocks import (
    CompressedLevelWriter,
    Intersect,
    MergeSide,
    Sink,
    StreamFeeder,
    Union,
    make_repeater,
)
from repro.sim import BACKENDS as REGISTRY
from repro.sim import graph_token_counts, run_blocks
from repro.streams import Channel, DONE, Stop

from blockkit import ENGINES, TIMED


#: ordinary coordinates; the unbatchable tuples ride the reference
#: streams, which the merge forwards untouched
CRD = [2, 5, 9, Stop(0), 4, 7, Stop(0), 11, DONE]
TUPLE_REFS = [0, 1, 2, Stop(0), (3, 3), (4, 4), Stop(0), 5, DONE]


def _full_report(blocks, backend, tuple_feeder):
    """The report's fields every engine must agree on; on a timed
    engine, first check that the run went to ``cycle`` because of
    *tuple_feeder*."""
    report = run_blocks(blocks, backend=backend)
    if backend in TIMED:
        assert report.handoff == (f"block {tuple_feeder!r} (StreamFeeder): "
                                  "its window hook cannot run here"), backend
    return (
        report.cycles,
        report.block_activity(),
        graph_token_counts(blocks),
        [b.tokens for b in blocks if isinstance(b, Sink)],
    )


def _merge_writer_graph(merger_cls):
    """Feeder-fed merge with a compressed-writer tail; the tuples are in
    the feeders ``fra`` and ``frb``."""
    ca, ra = Channel("ca"), Channel("ra", kind="ref")
    cb, rb = Channel("cb"), Channel("rb", kind="ref")
    oc = Channel("oc")
    oa = Channel("oa", kind="ref")
    ob = Channel("ob", kind="ref")
    blocks = [
        StreamFeeder(list(CRD), ca, name="fca"),
        StreamFeeder(list(TUPLE_REFS), ra, name="fra"),
        StreamFeeder(list(CRD), cb, name="fcb"),
        StreamFeeder(list(TUPLE_REFS), rb, name="frb"),
        merger_cls([MergeSide(ca, [ra]), MergeSide(cb, [rb])],
                   oc, [[oa], [ob]], name="merge"),
        Sink(oa, name="sink_a"),
        Sink(ob, name="sink_b"),
        CompressedLevelWriter(oc, name="wr"),
    ]
    return blocks


def test_compiled_engine_has_no_run_loop_of_its_own():
    # The handoff is decided by the one timed run loop; a `run` on the
    # compiled engine would be a second copy of it.
    compiled, timed = REGISTRY["compiled"], REGISTRY["timed-batch"]
    assert "run" not in vars(compiled)
    assert compiled.run is timed.run


class TestMergeHandoff:
    @pytest.mark.parametrize("merger_cls", [Intersect, Union])
    def test_tuple_references_hand_merge_to_cycle(self, merger_cls):
        reports = {}
        writers = {}
        for be in ENGINES:
            blocks = _merge_writer_graph(merger_cls)
            reports[be] = _full_report(blocks, be, "fra")
            wr = blocks[-1]
            writers[be] = (list(wr.seg), list(wr.crd))
        for be in ENGINES[1:]:
            assert reports[be] == reports["cycle"], be
            assert writers[be] == writers["cycle"], be

    def test_handoff_is_not_a_fusion_fallback(self):
        stats = run_blocks(_merge_writer_graph(Intersect),
                           backend="compiled").fusion
        # The graph never reached the window plane: no segment formed,
        # and nothing fell back.
        assert stats["kinds"] == {}
        assert stats["fallbacks"] == 0

    def test_clean_run_has_no_fallbacks(self):
        refs = [5 if isinstance(t, tuple) else t for t in TUPLE_REFS]
        ca, ra = Channel("ca"), Channel("ra", kind="ref")
        cb, rb = Channel("cb"), Channel("rb", kind="ref")
        oc = Channel("oc")
        oa = Channel("oa", kind="ref")
        ob = Channel("ob", kind="ref")
        blocks = [
            StreamFeeder(list(CRD), ca, name="fca"),
            StreamFeeder(list(refs), ra, name="fra"),
            StreamFeeder(list(CRD), cb, name="fcb"),
            StreamFeeder(list(refs), rb, name="frb"),
            Intersect([MergeSide(ca, [ra]), MergeSide(cb, [rb])],
                      oc, [[oa], [ob]], name="merge"),
            Sink(oa, name="sink_a"),
            Sink(ob, name="sink_b"),
            CompressedLevelWriter(oc, name="wr"),
        ]
        stats = run_blocks(blocks, backend="compiled").fusion
        assert stats["fallbacks"] == 0
        assert stats["kinds"] == {}


class TestRepeaterHandoff:
    def test_tuple_references_hand_repeater_to_cycle(self):
        # The repeater repeats the tuple reference verbatim, on the
        # generator of every engine.
        refs = [(3, 3), 7, Stop(0), 8, Stop(0), DONE]
        driver = [0, 1, Stop(0), 2, 3, Stop(1), 4, 5, Stop(1), DONE]

        def build():
            crd_ch = Channel("drv")
            ref_ch = Channel("refs", kind="ref")
            out = Channel("out", kind="ref")
            blocks = [
                StreamFeeder(list(driver), crd_ch, name="fd"),
                StreamFeeder(list(refs), ref_ch, name="fr"),
            ]
            blocks.extend(make_repeater(crd_ch, ref_ch, out, name="rep"))
            blocks.append(Sink(out, name="sink"))
            return blocks

        reports = {be: _full_report(build(), be, "fr") for be in ENGINES}
        for be in ENGINES[1:]:
            assert reports[be] == reports["cycle"], be
        stats = run_blocks(build(), backend="compiled").fusion
        assert stats["kinds"] == {}
        assert stats["fallbacks"] == 0


class TestWriterTailHandoff:
    def test_tuple_references_hand_writer_tail_to_cycle(self):
        # A union head with a compressed-writer tail, the tuples behind
        # two full fibers: no engine may drop or duplicate a coordinate
        # of the written level.
        crd = [1, 3, Stop(0), 6, 8, Stop(0), 2, Stop(0), 9, DONE]
        refs = [0, 1, Stop(0), 2, 3, Stop(0), (4, 4), Stop(0), 5, DONE]
        writers = {}
        reports = {}
        for be in ENGINES:
            ca, ra = Channel("ca"), Channel("ra", kind="ref")
            cb, rb = Channel("cb"), Channel("rb", kind="ref")
            oc = Channel("oc")
            oa = Channel("oa", kind="ref")
            ob = Channel("ob", kind="ref")
            blocks = [
                StreamFeeder(list(crd), ca, name="fca"),
                StreamFeeder(list(refs), ra, name="fra"),
                StreamFeeder(list(crd), cb, name="fcb"),
                StreamFeeder(list(refs), rb, name="frb"),
                Union([MergeSide(ca, [ra]), MergeSide(cb, [rb])],
                      oc, [[oa], [ob]], name="merge"),
                Sink(oa, name="sink_a"),
                Sink(ob, name="sink_b"),
                CompressedLevelWriter(oc, name="wr"),
            ]
            reports[be] = _full_report(blocks, be, "fra")
            wr = blocks[-1]
            writers[be] = (list(wr.seg), list(wr.crd))
        for be in ENGINES[1:]:
            assert reports[be] == reports["cycle"], be
            assert writers[be] == writers["cycle"], be
        # The two fibers ahead of the tuples are written, and the tuple
        # reference reached its sink.
        assert writers["compiled"][1][:4] == [1, 3, 6, 8]
        sinks = reports["compiled"][3]
        assert any((4, 4) in toks for toks in sinks)
