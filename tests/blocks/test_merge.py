"""Intersecter and unioner tests, including the paper's Figure 5 example.

The mergers' window hooks against ``cycle`` are the ``intersect`` and
``union`` rows of ``test_window_blocks.py``.
"""

from repro.blocks import Intersect, MergeSide, StreamFeeder, Union
from repro.sim import run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop


def merge(cls, sides_tokens, skip_sides=(), *, backend):
    """Run a merger over per-side (crd tokens, ref-stream tokens) pairs.

    Each side entry is ``(crd_tokens, ref_tokens)`` or, for multi-ref
    sides, ``(crd_tokens, [ref_tokens, ...])``.
    """
    blocks = []
    sides = []
    out_ref_groups = []
    outs = []
    skips = {}
    for idx, (crd_tokens, ref_tokens) in enumerate(sides_tokens):
        crd = Channel(f"crd{idx}")
        blocks.append(StreamFeeder(crd_tokens, crd, name=f"fc{idx}"))
        ref_streams = (
            ref_tokens if isinstance(ref_tokens[0], list) else [ref_tokens]
        )
        refs = []
        group = []
        for j, tokens in enumerate(ref_streams):
            ref = Channel(f"ref{idx}_{j}", kind="ref")
            blocks.append(StreamFeeder(tokens, ref, name=f"fr{idx}_{j}"))
            refs.append(ref)
            out_ref = Channel(f"oref{idx}_{j}", kind="ref", record=True)
            group.append(out_ref)
            outs.append(out_ref)
        skip = Channel(f"skip{idx}") if idx in skip_sides else None
        if skip is not None:
            skips[idx] = skip
        sides.append(MergeSide(crd, refs, skip=skip))
        out_ref_groups.append(group)
    out_crd = Channel("ocrd", record=True)
    merger = cls(sides, out_crd, out_ref_groups, name="merge")
    blocks.append(merger)
    run_blocks(blocks, backend=backend)
    return list(out_crd.history), [list(ch.history) for ch in outs], skips


class TestUnionFigure5:
    def test_paper_example(self, harness, engine):
        # Inputs (Figure 5): crd/ref pairs for b and c; union emits
        # "D, S0, 9, 8, 7, 6, 4, 2, 0" with N-padded reference streams.
        crd_b = harness.paper("D, S0, 9, 8, 6, 2, 0")
        ref_b = harness.paper("D, S0, 4, 3, 2, 1, 0")
        crd_c = harness.paper("D, S0, 8, 7, 6, 4, 2")
        ref_c = harness.paper("D, S0, 4, 3, 2, 1, 0")
        out_crd, (out_b, out_c), _ = merge(
            Union, [(crd_b, ref_b), (crd_c, ref_c)], backend=engine
        )
        assert out_crd == harness.paper("D, S0, 9, 8, 7, 6, 4, 2, 0")
        assert out_b == harness.paper("D, S0, 4, 3, N, 2, N, 1, 0")
        assert out_c == harness.paper("D, S0, N, 4, 3, 2, 1, 0, N")


class TestUnionShapes:
    def test_empty_fiber_one_side(self, harness, engine):
        out_crd, (ob, oc), _ = merge(
            Union,
            [
                ([Stop(0), DONE], [Stop(0), DONE]),
                ([5, Stop(0), DONE], [0, Stop(0), DONE]),
            ],
            backend=engine,
        )
        assert out_crd == [5, Stop(0), DONE]
        assert ob == [EMPTY, Stop(0), DONE]
        assert oc == [0, Stop(0), DONE]

    def test_multi_fiber_alignment(self, harness, engine):
        crd_a = harness.paper("D, S1, 1, S0, 0")
        crd_b = harness.paper("D, S1, 2, S0, 0")
        out_crd, _, _ = merge(
            Union, [(crd_a, list(crd_a)), (crd_b, list(crd_b))], backend=engine
        )
        assert out_crd == harness.paper("D, S1, 2, 1, S0, 0")

    def test_three_way_union(self, engine):
        sides = [
            ([0, Stop(0), DONE], [0, Stop(0), DONE]),
            ([1, Stop(0), DONE], [0, Stop(0), DONE]),
            ([2, Stop(0), DONE], [0, Stop(0), DONE]),
        ]
        out_crd, refs, _ = merge(Union, sides, backend=engine)
        assert out_crd == [0, 1, 2, Stop(0), DONE]
        # Each side contributes exactly one real reference.
        for idx, ref in enumerate(refs):
            assert ref[idx] == 0
            assert all(t is EMPTY for pos, t in enumerate(ref[:3]) if pos != idx)


class TestIntersect:
    def test_basic_intersection(self, harness, engine):
        crd_a = harness.paper("D, S0, 9, 8, 6, 2, 0")
        ref_a = harness.paper("D, S0, 4, 3, 2, 1, 0")
        crd_b = harness.paper("D, S0, 8, 7, 6, 4, 2")
        ref_b = harness.paper("D, S0, 4, 3, 2, 1, 0")
        out_crd, (oa, ob), _ = merge(Intersect, [(crd_a, ref_a), (crd_b, ref_b)],
                                     backend=engine)
        assert out_crd == [2, 6, 8, Stop(0), DONE]
        assert oa == [1, 2, 3, Stop(0), DONE]
        assert ob == [0, 2, 4, Stop(0), DONE]

    def test_disjoint_gives_empty_fiber(self, engine):
        out_crd, _, _ = merge(
            Intersect,
            [
                ([0, 2, Stop(0), DONE], [0, 1, Stop(0), DONE]),
                ([1, 3, Stop(0), DONE], [0, 1, Stop(0), DONE]),
            ],
            backend=engine,
        )
        assert out_crd == [Stop(0), DONE]

    def test_one_side_drains_at_boundary(self, engine):
        out_crd, _, _ = merge(
            Intersect,
            [
                ([0, Stop(0), DONE], [0, Stop(0), DONE]),
                ([0, 5, 6, 7, Stop(0), DONE], [0, 1, 2, 3, Stop(0), DONE]),
            ],
            backend=engine,
        )
        assert out_crd == [0, Stop(0), DONE]

    def test_three_way_intersection(self, engine):
        sides = [
            ([0, 1, 2, Stop(0), DONE], [0, 1, 2, Stop(0), DONE]),
            ([1, 2, 3, Stop(0), DONE], [0, 1, 2, Stop(0), DONE]),
            ([0, 2, 4, Stop(0), DONE], [0, 1, 2, Stop(0), DONE]),
        ]
        out_crd, refs, _ = merge(Intersect, sides, backend=engine)
        assert out_crd == [2, Stop(0), DONE]
        assert [r[0] for r in refs] == [2, 1, 1]

    def test_skip_hints_emitted(self, engine):
        # A trails B: the intersecter should tell A's scanner to gallop.
        out_crd, _, skips = merge(
            Intersect,
            [
                ([0, 1, 2, 3, 90, Stop(0), DONE], [0, 1, 2, 3, 4, Stop(0), DONE]),
                ([90, Stop(0), DONE], [0, Stop(0), DONE]),
            ],
            skip_sides=(0,),
            backend=engine,
        )
        assert out_crd == [90, Stop(0), DONE]
        hints = list(skips[0].queue)
        # Hints are (fiber_index, coordinate) pairs for the first fiber.
        assert (0, 90) in hints

    def test_hierarchical_stops_pass_through(self, harness, engine):
        crd = harness.paper("D, S1, 1, S0, 0")
        out_crd, _, _ = merge(Intersect, [(crd, list(crd)), (crd, list(crd))],
                              backend=engine)
        assert out_crd == harness.paper("D, S1, 1, S0, 0")
