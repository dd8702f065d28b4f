"""Unit tests for the four level formats."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.formats import (
    BitvectorLevel,
    CompressedLevel,
    DenseLevel,
    FiberTensor,
    LinkedListLevel,
    coords_to_words,
    popcount,
)


class TestCompressedLevel:
    def test_figure_1c_dcsr_inner_level(self):
        # Figure 1c: segments [0,1,3,5], coordinates [1,0,2,1,3].
        level = CompressedLevel([0, 1, 3, 5], [1, 0, 2, 1, 3])
        assert level.num_fibers() == 3
        assert level.fiber(0) == [(1, 0)]
        assert level.fiber(1) == [(0, 1), (2, 2)]
        assert level.fiber(2) == [(1, 3), (3, 4)]

    def test_segment_refers_to_positions(self):
        # "the level j segment [3, 5) refers to the green level j
        # coordinates [1, 3] located at indices [3, 4]"
        level = CompressedLevel([0, 1, 3, 5], [1, 0, 2, 1, 3])
        assert [pos for _, pos in level.fiber(2)] == [3, 4]

    def test_from_fibers(self):
        level = CompressedLevel.from_fibers([[0, 1, 3], [2]])
        assert level.seg.tolist() == [0, 3, 4]
        assert level.crd.tolist() == [0, 1, 3, 2]

    def test_locate_binary_search(self):
        level = CompressedLevel.from_fibers([[0, 2, 5, 9]])
        assert level.locate(0, 5) == 2
        assert level.locate(0, 3) is None
        assert level.locate(0, 9) == 3

    def test_skip_to(self):
        level = CompressedLevel.from_fibers([[0, 2, 5, 9]])
        assert level.skip_to(0, 0, 5) == 2
        assert level.skip_to(0, 0, 6) == 3
        assert level.skip_to(0, 2, 1) == 2  # never goes backwards
        assert level.skip_to(0, 0, 100) == 4

    def test_invalid_segments_rejected(self):
        with pytest.raises(ValueError):
            CompressedLevel([1, 2], [0, 1])  # must start at 0
        with pytest.raises(ValueError):
            CompressedLevel([0, 3], [0])  # must end at len(crd)
        with pytest.raises(ValueError):
            CompressedLevel([0, 2, 1, 3], [0, 1, 2])  # non-decreasing


class TestDenseLevel:
    def test_fiber_enumerates_all(self):
        level = DenseLevel(3, num_fibers=2)
        assert level.fiber(0) == [(0, 0), (1, 1), (2, 2)]
        assert level.fiber(1) == [(0, 3), (1, 4), (2, 5)]

    def test_locate_is_affine(self):
        level = DenseLevel(4)
        assert level.locate(0, 2) == 2
        assert level.locate(2, 3) == 11
        assert level.locate(0, 4) is None

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DenseLevel(-1)


class TestBitvectorHelpers:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3

    def test_coords_to_words_section_4_3(self):
        # The paper's example: coords {0,2,6,8,9} at b=4 give words
        # 0101, 0100, 0011 (LSB-first within each word).
        assert coords_to_words([0, 2, 6, 8, 9], 11, 4) == [0b0101, 0b0100, 0b0011]

    def test_fiber_arrays_inverts_words(self):
        level = BitvectorLevel([[0b0101, 0, 0b0011]], 12, 4)
        crds, children, lens = level.fiber_arrays(np.array([0]))
        assert crds.tolist() == [0, 2, 8, 9]
        assert children.tolist() == [0, 1, 2, 3]
        assert lens.tolist() == [4]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            coords_to_words([12], 11, 4)


class TestBitvectorLevel:
    def test_popcount_reference_protocol(self):
        # Section 4.3: reference stream "D, S0, 3, 2, 0" for the example.
        level = BitvectorLevel.from_fibers([[0, 2, 6, 8, 9]], 11, 4)
        words = level.words(0)
        assert [base for _, _, base in words] == [0, 2, 3]
        assert [w for _, w, _ in words] == [0b0101, 0b0100, 0b0011]

    def test_fiber_expansion_matches_compressed_view(self):
        level = BitvectorLevel.from_fibers([[0, 2, 6, 8, 9]], 11, 4)
        assert level.fiber(0) == [(0, 0), (2, 1), (6, 2), (8, 3), (9, 4)]

    def test_global_popcount_across_fibers(self):
        level = BitvectorLevel.from_fibers([[0, 1], [3]], 8, 4)
        assert level.fiber(1) == [(3, 2)]

    def test_locate_via_default(self):
        level = BitvectorLevel.from_fibers([[0, 2, 6]], 8, 4)
        assert level.locate(0, 2) == 1
        assert level.locate(0, 3) is None

    def test_word_width_beyond_uint64_rejected(self):
        # Words are stored in a uint64 array; wider widths would silently
        # drop high bits instead of packing them.
        with pytest.raises(ValueError, match=r"bits_per_word"):
            BitvectorLevel.from_fibers([[70]], 128, 128)
        with pytest.raises(ValueError, match=r"bits_per_word"):
            BitvectorLevel.from_arrays(
                np.zeros(1, dtype=np.int64), np.array([70], dtype=np.int64),
                1, 128, 128,
            )


class TestLinkedListLevel:
    def test_append_in_arrival_order(self):
        level = LinkedListLevel()
        n0 = level.append(1, 5)
        n1 = level.append(0, 7)
        n2 = level.append(1, 2)
        assert level.fiber(1) == [(5, n0), (2, n2)]
        assert level.fiber(0) == [(7, n1)]

    def test_discordant_write_pattern(self):
        # k-major production order, i-major storage (OuterSPACE).
        level = LinkedListLevel()
        for k in range(3):
            for i in (0, 2):
                level.append(i, k)
        assert [crd for crd, _ in level.fiber(0)] == [0, 1, 2]
        assert [crd for crd, _ in level.fiber(2)] == [0, 1, 2]

    def test_ensure_fiber_grows(self):
        level = LinkedListLevel()
        level.ensure_fiber(4)
        assert level.num_fibers() == 5
        assert level.fiber(4) == []

    def test_fiber_arrays_is_fiber_and_lays_out_once_per_size(self):
        level = LinkedListLevel()
        for k, ref in enumerate([2, 0, 2, 3, 0, 2]):
            level.append(ref, 10 * k)

        def expect(refs):
            pairs = [level.fiber(r) for r in refs]
            return [[c for p in pairs for c, _ in p], [n for p in pairs for _, n in p],
                    [len(p) for p in pairs]]

        for refs in ([0, 1, 2, 3], [2, 2], [3, 0]):
            got = level.fiber_arrays(np.array(refs))
            assert [a.tolist() for a in got] == expect(refs)
        layout = level._layout
        level.fiber_arrays(np.array([1]))
        assert level._layout is layout  # a reader's windows share one layout
        level.append(1, 99)
        level.ensure_fiber(5)
        got = level.fiber_arrays(np.array([1, 5, 2]))
        assert [a.tolist() for a in got] == expect([1, 5, 2])


# -- every format against a plain-Python walk of its fibers ---------------

@st.composite
def fibers(draw):
    """``(size, bits_per_word, fibers)``: up to five fibers of ascending
    coordinates in ``0..size-1``."""
    size = draw(st.integers(1, 20))
    bits = draw(st.sampled_from([1, 3, 4, 8, 64]))
    coordinate_sets = st.sets(st.integers(0, size - 1), max_size=size)
    return size, bits, [sorted(s) for s in draw(st.lists(coordinate_sets, min_size=1,
                                                         max_size=5))]


def expected_pairs(fmt, size, fibers):
    """Per fiber its ``(coordinate, child)`` pairs, written out by hand."""
    if fmt == "dense":
        return [[(c, ref * size + c) for c in range(size)] for ref in range(len(fibers))]
    if fmt == "linkedlist":  # nodes are numbered in append order, round-robin
        nodes, rows = 0, [[] for _ in fibers]
        for k in range(max(map(len, fibers))):
            for ref, fiber in enumerate(fibers):
                if k < len(fiber):
                    rows[ref].append((fiber[k], nodes))
                    nodes += 1
        return rows
    rows, at = [], 0  # compressed positions and bitvector popcounts run on
    for fiber in fibers:
        rows.append([(c, at + i) for i, c in enumerate(fiber)])
        at += len(fiber)
    return rows


def build(fmt, size, bits, fibers):
    if fmt == "compressed":
        return CompressedLevel.from_fibers(fibers)
    if fmt == "bitvector":
        return BitvectorLevel.from_fibers(fibers, size, bits)
    if fmt == "dense":
        return DenseLevel(size, num_fibers=len(fibers))
    level = LinkedListLevel(len(fibers))
    for k in range(max(map(len, fibers))):
        for ref, fiber in enumerate(fibers):
            if k < len(fiber):
                level.append(ref, fiber[k])
    return level


FORMATS = ("compressed", "dense", "linkedlist", "bitvector")


@pytest.mark.parametrize("fmt", FORMATS)
@given(drawn=fibers(), order=st.randoms())
def test_fiber_arrays_are_the_fibers(fmt, drawn, order):
    size, bits, fibers_ = drawn
    level = build(fmt, size, bits, fibers_)
    rows = expected_pairs(fmt, size, fibers_)
    refs = list(range(len(fibers_))) * 2
    order.shuffle(refs)
    crds, children, lens = level.fiber_arrays(np.array(refs, dtype=np.int64))
    want = [pair for ref in refs for pair in rows[ref]]
    assert list(zip(crds.tolist(), children.tolist())) == want
    assert lens.tolist() == [len(rows[ref]) for ref in refs]
    assert level.fiber_lens(np.array(refs, dtype=np.int64)).tolist() == lens.tolist()


@pytest.mark.parametrize("fmt", FORMATS)
@given(drawn=fibers())
def test_scalar_methods_walk_the_pairs(fmt, drawn):
    size, bits, fibers_ = drawn
    level = build(fmt, size, bits, fibers_)
    for ref, pairs in enumerate(expected_pairs(fmt, size, fibers_)):
        assert level.fiber(ref) == pairs
        for coordinate in range(-1, size + 2):
            hit = [child for crd, child in pairs if crd == coordinate]
            assert level.locate(ref, coordinate) == (hit[0] if hit else None)
            for position in range(len(pairs) + 1):
                ahead = [p for p in range(position, len(pairs))
                         if pairs[p][0] >= coordinate]
                assert level.skip_to(ref, position, coordinate) == (
                    ahead[0] if ahead else len(pairs))


@st.composite
def mixed_tensors(draw):
    """A 3-D tensor's entries, its formats (dense, compressed and
    bitvector mixed) and a mode order."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=3, max_size=3)))
    keys = st.tuples(*(st.integers(0, n - 1) for n in shape))
    entries = draw(st.dictionaries(keys, st.integers(1, 9).map(float), max_size=12))
    formats = draw(st.lists(st.sampled_from(["compressed", "dense", "bitvector"]),
                            min_size=3, max_size=3))
    return shape, entries, formats, tuple(draw(st.permutations(range(3))))


@given(mixed_tensors(), st.sampled_from([1, 4, 64]))
def test_to_coo_of_mixed_formats_walks_the_entries(drawn, bits):
    shape, entries, formats, perm = drawn
    tensor = FiberTensor.from_coords_reference(
        shape, list(entries) or np.empty((0, 3), dtype=np.int64), list(entries.values()),
        formats, perm, bits_per_word=bits)
    stored = {tuple(key[axis] for axis in perm): val for key, val in entries.items()}

    def walk(prefix):  # every stored slot, in storage order
        d = len(prefix)
        if d == 3:
            yield prefix
            return
        crds = (range(shape[perm[d]]) if formats[d] == "dense" else
                sorted({key[d] for key in stored if key[:d] == prefix}))
        for crd in crds:
            yield from walk(prefix + (crd,))

    slots = list(walk(()))
    coords, values = tensor.to_coo()
    assert coords.tolist() == [[slot[perm.index(axis)] for axis in range(3)]
                               for slot in slots]
    assert values.tolist() == [stored.get(slot, 0.0) for slot in slots]


@given(drawn=fibers())
def test_to_coo_reads_a_linked_list_level(drawn):
    size, _, fibers_ = drawn
    inner = build("linkedlist", size, 64, fibers_)
    rows = expected_pairs("linkedlist", size, fibers_)
    vals = np.arange(inner.fiber_lens(np.arange(len(fibers_))).sum(), dtype=float)
    tensor = FiberTensor((len(fibers_), size), [DenseLevel(len(fibers_)), inner], vals)
    coords, values = tensor.to_coo()
    want = [(ref, crd, child) for ref, pairs in enumerate(rows) for crd, child in pairs]
    assert coords.tolist() == [[ref, crd] for ref, crd, _ in want]
    assert values.tolist() == [float(child) for _, _, child in want]
