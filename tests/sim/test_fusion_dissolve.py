"""Mid-run fallback to the scalar plane around mergers, repeaters, writers.

Unbatchable tuple tokens (skip-hint style payloads the numpy plane
cannot represent) are injected into streams after a first fiber of
ordinary tokens, so the affected blocks make real timed progress before
the fallback ladder fires: they bail onto the scalar plane, and the
``SimulationReport`` must still be bit-identical to every other
backend.  Mergers and repeaters carry no fuse role, so the bail is a
per-block one — ``report.fusion`` sees no segment and no fallback.
"""

import numpy as np
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

from blockkit import ENGINES


#: ordinary coordinates; the unbatchable tuples ride the reference
#: streams (which the merge forwards untouched, so the scalar plane
#: handles them verbatim after the dissolve)
CRD = [2, 5, 9, Stop(0), 4, 7, Stop(0), 11, DONE]
TUPLE_REFS = [0, 1, 2, Stop(0), (3, 3), (4, 4), Stop(0), 5, DONE]


def _full_report(blocks, backend):
    report = run_blocks(blocks, backend=backend)
    return (
        report.cycles,
        report.block_activity(),
        graph_token_counts(blocks),
        [b.tokens for b in blocks if isinstance(b, Sink)],
    )


def _merge_writer_graph(merger_cls):
    """Feeder-fed merge with a compressed-writer tail: the merger bails
    when the tuples arrive, the writer keeps draining its output."""
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
    # Dissolution is handled by the one timed run loop; a `run` on the
    # compiled engine would be a second copy of it.
    compiled, timed = REGISTRY["compiled"], REGISTRY["timed-batch"]
    assert "run" not in vars(compiled)
    assert compiled.run is timed.run


class TestMergeDissolve:
    @pytest.mark.parametrize("merger_cls", [Intersect, Union])
    def test_tuple_coordinates_dissolve_fused_merge(self, merger_cls):
        reports = {}
        writers = {}
        for be in ENGINES:
            blocks = _merge_writer_graph(merger_cls)
            reports[be] = _full_report(blocks, be)
            wr = blocks[-1]
            writers[be] = (list(wr.seg), list(wr.crd))
        for be in ENGINES[1:]:
            assert reports[be] == reports["cycle"], be
            assert writers[be] == writers["cycle"], be

    def test_merger_bail_is_not_a_fusion_fallback(self):
        stats = run_blocks(_merge_writer_graph(Intersect),
                           backend="compiled").fusion
        # No segment forms around a merger, so its per-block bail is
        # nothing the fusion statistics count.
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


class TestRepeaterDissolve:
    def test_tuple_references_dissolve_fused_repeater(self):
        # The tuple must reach the repeater while it holds no pending
        # reference (a mid-reference bail raises by design, in every
        # timed backend), so it leads the reference stream: the signal
        # generator runs timed, then the first sweep of the reference
        # channel bails the repeater and the scalar plane repeats the
        # tuple references verbatim.
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

        reports = {be: _full_report(build(), be) for be in ENGINES}
        for be in ENGINES[1:]:
            assert reports[be] == reports["cycle"], be
        stats = run_blocks(build(), backend="compiled").fusion
        assert stats["kinds"] == {}
        assert stats["fallbacks"] == 0


class TestWriterTailDissolve:
    def test_tuple_tokens_dissolve_fused_writer_tail(self):
        # A union head whose compressed-writer tail has already
        # committed crd/seg state when the tuples arrive: the merger's
        # bail must not drop or duplicate coordinates of the
        # partially-written level.
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
            reports[be] = _full_report(blocks, be)
            wr = blocks[-1]
            writers[be] = (list(wr.seg), list(wr.crd))
        for be in ENGINES[1:]:
            assert reports[be] == reports["cycle"], be
            assert writers[be] == writers["cycle"], be
        # Two full fibers committed before the tuples arrived, and the
        # tuple reference reached its sink through the scalar plane.
        assert writers["compiled"][1][:4] == [1, 3, 6, 8]
        sinks = reports["compiled"][3]
        assert any((4, 4) in toks for toks in sinks)
