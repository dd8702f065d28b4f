"""Unit tests for the four level formats."""

import numpy as np
import pytest

from repro.formats import (
    BitvectorLevel,
    CompressedLevel,
    DenseLevel,
    LinkedListLevel,
    coords_to_words,
    popcount,
    word_coords,
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

    def test_word_coords_inverse(self):
        assert word_coords(0b0101, 0, 4) == [0, 2]
        assert word_coords(0b0011, 2, 4) == [8, 9]

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
