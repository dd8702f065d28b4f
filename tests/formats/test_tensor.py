"""Unit and property tests for FiberTensor."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.formats import FiberTensor, scalar_tensor

#: the Figure 1a matrix
FIG1 = np.array(
    [
        [0, 1, 0, 0],
        [2, 0, 3, 0],
        [0, 0, 0, 0],
        [0, 4, 0, 5],
    ],
    dtype=float,
)


class TestFigure1:
    def test_dcsr_levels_match_figure_1c(self):
        tensor = FiberTensor.from_numpy(FIG1)
        assert tensor.levels[0].seg.tolist() == [0, 3]
        assert tensor.levels[0].crd.tolist() == [0, 1, 3]
        assert tensor.levels[1].seg.tolist() == [0, 1, 3, 5]
        assert tensor.levels[1].crd.tolist() == [1, 0, 2, 1, 3]
        assert tensor.vals.tolist() == [1, 2, 3, 4, 5]

    def test_row_without_nonzeros_not_stored(self):
        tensor = FiberTensor.from_numpy(FIG1)
        assert 2 not in tensor.levels[0].crd

    def test_round_trip(self):
        tensor = FiberTensor.from_numpy(FIG1)
        assert np.array_equal(tensor.to_numpy(), FIG1)

    def test_nnz_density(self):
        tensor = FiberTensor.from_numpy(FIG1)
        assert tensor.nnz == 5
        assert tensor.density == 5 / 16


class TestFormats:
    def test_csr_dense_outer(self):
        tensor = FiberTensor.from_numpy(FIG1, formats=("dense", "compressed"))
        assert tensor.levels[0].format_name == "dense"
        assert tensor.levels[1].num_fibers() == 4  # one fiber per row
        assert np.array_equal(tensor.to_numpy(), FIG1)

    def test_all_dense(self):
        tensor = FiberTensor.from_numpy(FIG1, formats=("dense", "dense"))
        assert len(tensor.vals) == 16
        assert np.array_equal(tensor.to_numpy(), FIG1)

    def test_bitvector_level(self):
        tensor = FiberTensor.from_numpy(
            FIG1, formats=("compressed", "bitvector"), bits_per_word=4
        )
        assert tensor.levels[1].format_name == "bitvector"
        assert np.array_equal(tensor.to_numpy(), FIG1)

    def test_transposed_mode_order(self):
        tensor = FiberTensor.from_numpy(FIG1, mode_order=(1, 0))
        # Storage iterates columns first but the logical matrix is intact.
        assert np.array_equal(tensor.to_numpy(), FIG1)
        assert tensor.levels[0].crd.tolist() == [0, 1, 2, 3]  # nonempty columns

    def test_format_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FiberTensor.from_numpy(FIG1, formats=("compressed",))

    def test_bad_mode_order_rejected(self):
        with pytest.raises(ValueError):
            FiberTensor.from_numpy(FIG1, mode_order=(0, 0))


class TestConstruction:
    def test_from_coords_duplicates_summed(self):
        tensor = FiberTensor.from_coords((3,), [(1,), (1,)], [2.0, 3.0])
        assert tensor.to_numpy()[1] == 5.0

    def test_from_scipy(self):
        from scipy import sparse

        matrix = sparse.csr_matrix(FIG1)
        tensor = FiberTensor.from_scipy(matrix)
        assert np.array_equal(tensor.to_numpy(), FIG1)

    def test_scalar_tensor(self):
        scalar = scalar_tensor(2.5)
        assert scalar.order == 0
        assert scalar.vals.tolist() == [2.5]
        assert scalar.to_numpy() == pytest.approx(2.5)

    def test_order3_csf(self):
        cube = np.zeros((2, 3, 4))
        cube[0, 1, 2] = 1.0
        cube[1, 0, 0] = 2.0
        cube[1, 2, 3] = 3.0
        tensor = FiberTensor.from_numpy(cube)
        assert tensor.order == 3
        assert np.array_equal(tensor.to_numpy(), cube)

    def test_memory_footprint_positive(self):
        assert FiberTensor.from_numpy(FIG1).memory_footprint() > 0

    def test_out_of_range_coordinate_rejected(self):
        with pytest.raises(ValueError, match=r"outside shape"):
            FiberTensor.from_coords((2, 2), [(0, 0), (5, 1)], [1.0, 2.0])

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError, match=r"outside shape"):
            FiberTensor.from_coords((2, 2), [(0, -1)], [1.0])

    def test_out_of_range_rejected_in_reference_path(self):
        with pytest.raises(ValueError, match=r"outside shape"):
            FiberTensor.from_coords_reference((2, 2), [(5, 0)], [1.0])

    def test_coord_value_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"coordinates but"):
            FiberTensor.from_coords((4,), [(0,), (1,)], [1.0])

    def test_cancelled_duplicates_dropped(self):
        tensor = FiberTensor.from_coords(
            (4, 4), [(1, 2), (1, 2), (0, 3)], [1.0, -1.0, 5.0]
        )
        # The +1/-1 pair cancels: no explicit zero is stored, so streams
        # see a single coordinate, not an inflated nnz.
        assert tensor.levels[1].crd.tolist() == [3]
        assert tensor.vals.tolist() == [5.0]
        assert tensor.nnz == 1

    def test_keep_zeros_escape_hatch(self):
        tensor = FiberTensor.from_coords(
            (4, 4), [(1, 2), (1, 2)], [1.0, -1.0], keep_zeros=True
        )
        assert tensor.levels[1].crd.tolist() == [2]
        assert tensor.vals.tolist() == [0.0]
        assert tensor.nnz == 0

    def test_explicit_zero_value_dropped_by_default(self):
        tensor = FiberTensor.from_coords((3,), [(1,), (2,)], [0.0, 2.0])
        assert tensor.levels[0].crd.tolist() == [2]

    def test_order0_from_coords(self):
        # Scalar tensors built from COO: one empty-tuple coordinate.
        scalar = FiberTensor.from_coords((), [()], [5.0])
        assert scalar.to_numpy() == pytest.approx(5.0)
        summed = FiberTensor.from_coords((), [(), ()], [2.0, 3.0])
        assert summed.vals.tolist() == [5.0]
        assert_same_structure(
            FiberTensor.from_coords((), [()], [5.0]),
            FiberTensor.from_coords_reference((), [()], [5.0]),
        )

    def test_to_coo_round_trip(self):
        tensor = FiberTensor.from_numpy(FIG1)
        coords, values = tensor.to_coo()
        rebuilt = FiberTensor.from_coords(FIG1.shape, coords, values)
        assert np.array_equal(rebuilt.to_numpy(), FIG1)


def assert_same_structure(a, b):
    """Structural (not just semantic) equality of two fibertrees."""
    assert a.shape == b.shape and a.mode_order == b.mode_order
    assert np.array_equal(a.vals, b.vals)
    for la, lb in zip(a.levels, b.levels):
        assert type(la) is type(lb)
        assert la.num_fibers() == lb.num_fibers()
        if la.format_name == "compressed":
            assert la.seg.tolist() == lb.seg.tolist()
            assert la.crd.tolist() == lb.crd.tolist()
        elif la.format_name == "bitvector":
            assert la.fibers_words == lb.fibers_words
        for ref in range(la.num_fibers()):
            assert la.fiber(ref) == lb.fiber(ref)


class TestVectorizedMatchesReference:
    """The vectorized constructor is bit-identical to the Python oracle."""

    @pytest.mark.parametrize("formats", [
        ("compressed", "compressed"),
        ("dense", "compressed"),
        ("compressed", "dense"),
        ("dense", "dense"),
        ("compressed", "bitvector"),
    ])
    @pytest.mark.parametrize("mode_order", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_matrices(self, formats, mode_order, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((5, 7)) < 0.4) * rng.random((5, 7))
        nz = np.argwhere(dense != 0)
        vals = dense[tuple(nz.T)]
        fast = FiberTensor.from_coords(
            dense.shape, nz, vals, formats=formats, mode_order=mode_order,
            bits_per_word=4,
        )
        slow = FiberTensor.from_coords_reference(
            dense.shape, nz.tolist(), vals.tolist(), formats=formats,
            mode_order=mode_order, bits_per_word=4,
        )
        assert_same_structure(fast, slow)

    def test_many_duplicates_sum_in_arrival_order(self):
        # >8 duplicates of one coordinate: reduceat would pairwise-sum
        # and diverge from the sequential reference in the last bits.
        rng = np.random.default_rng(0)
        coords = [(0, 0)] * 16 + [(1, 1)]
        vals = rng.uniform(-1, 1, 17)
        fast = FiberTensor.from_coords((2, 2), coords, vals)
        slow = FiberTensor.from_coords_reference((2, 2), coords,
                                                 vals.tolist())
        assert_same_structure(fast, slow)

    @pytest.mark.parametrize("keep_zeros", [False, True])
    def test_duplicates_and_cancellation(self, keep_zeros):
        coords = [(1, 2), (0, 1), (1, 2), (3, 3), (3, 3), (0, 1)]
        vals = [1.5, 1.0, -1.5, 2.0, 3.0, 0.25]
        fast = FiberTensor.from_coords((4, 4), coords, vals,
                                       keep_zeros=keep_zeros)
        slow = FiberTensor.from_coords_reference((4, 4), coords, vals,
                                                 keep_zeros=keep_zeros)
        assert_same_structure(fast, slow)

    def test_empty_and_order3(self):
        assert_same_structure(
            FiberTensor.from_coords((3, 4), [], []),
            FiberTensor.from_coords_reference((3, 4), [], []),
        )
        cube = np.zeros((3, 4, 5))
        cube[0, 1, 2] = 1.0
        cube[2, 3, 4] = 2.0
        cube[0, 0, 0] = 3.0
        nz = np.argwhere(cube != 0)
        vals = cube[tuple(nz.T)]
        for formats in (None, ("dense", "compressed", "compressed")):
            assert_same_structure(
                FiberTensor.from_coords(cube.shape, nz, vals, formats=formats),
                FiberTensor.from_coords_reference(
                    cube.shape, nz.tolist(), vals.tolist(), formats=formats
                ),
            )


# -- property-based: every format mix round-trips --------------------------

matrices = st.integers(0, 6).flatmap(
    lambda seed: st.just(
        (np.random.default_rng(seed).random((4, 5)) < 0.4)
        * np.random.default_rng(seed + 10).random((4, 5))
    )
)
format_choices = st.sampled_from(
    [
        ("compressed", "compressed"),
        ("dense", "compressed"),
        ("compressed", "dense"),
        ("dense", "dense"),
        ("compressed", "bitvector"),
    ]
)
orders = st.sampled_from([(0, 1), (1, 0)])


@given(matrices, format_choices, orders)
def test_property_round_trip(dense, formats, mode_order):
    tensor = FiberTensor.from_numpy(dense, formats=formats, mode_order=mode_order)
    assert np.allclose(tensor.to_numpy(), dense)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.floats(0.1, 2.0)),
        max_size=12,
    )
)
def test_property_coo_round_trip(entries):
    dense = np.zeros((4, 4))
    for r, c, v in entries:
        dense[r, c] += v
    coords = [(r, c) for r, c, _ in entries]
    vals = [v for _, _, v in entries]
    tensor = FiberTensor.from_coords((4, 4), coords, vals)
    assert np.allclose(tensor.to_numpy(), dense)
