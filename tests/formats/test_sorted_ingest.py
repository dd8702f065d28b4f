"""``from_coords`` observes row order instead of sorting unconditionally.

Rows that arrive in lexicographic storage order (scipy's canonical COO,
``np.nonzero``, every file ``write_mtx`` produces) skip ``np.lexsort``
and the two gathers behind it.  A stable sort of ordered rows is the
identity, so the fibertree must not change by a bit: the property tests
build the same COO data sorted, shuffled (duplicates kept in relative
order, so their sums round the same way) and through the pure-Python
reference, and compare every stored array as bytes.  The guards count
``np.lexsort`` calls and grouping passes, not seconds.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from repro.data import read_mtx, write_mtx
from repro.formats import FiberTensor
from repro.formats.tensor import FORMAT_NAMES, _rows_ascend
from repro.lang import compile_expression
from repro.studies.table1 import ENTRIES, _random_inputs

from numpy_counters import builtin_calls, lexsort_callers

INGEST = "repro.formats.tensor"


def tree_bytes(tensor):
    """Everything a fibertree stores, arrays as bytes (``-0.0 != 0.0``)."""
    stored = [tensor.shape, tensor.mode_order, tensor.vals.tobytes()]
    for level in tensor.levels:
        if level.format_name == "compressed":
            stored.append(("compressed", level.seg.tobytes(), level.crd.tobytes()))
        elif level.format_name == "bitvector":
            pairs = level.fiber_arrays(np.arange(level.num_fibers()))
            stored.append(("bitvector", level.size, level.bits_per_word,
                           *(a.tobytes() for a in pairs)))
        else:
            stored.append(("dense", level.size, level.num_fibers()))
    return stored


def keeping_duplicate_order(key, rng):
    """A random row permutation under which equal rows keep their order."""
    perm = rng.permutation(len(key))
    groups = {}
    for slot, row in enumerate(perm):
        groups.setdefault(tuple(key[row]), []).append(slot)
    for slots in groups.values():
        perm[slots] = np.sort(perm[slots])
    return perm


# Sums that depend on the order of addition (0.1 + 0.2 + 0.3, 1e16 + 1 -
# 1e16), pairs that cancel exactly, and explicit zeros.  -0.0 is left out:
# an un-duplicated -0.0 keeps its sign in from_coords and loses it in the
# reference's ``0.0 + v``, at the parent commit as here.
VALUES = st.sampled_from(
    [0.0, 1.0, -1.0, 0.1, 0.2, 0.3, -0.3, 1e16, -1e16, 2.5, -2.5, 5e-324]
)

MODE_ORDERS = [
    perm for order in (1, 2, 3) for perm in itertools.permutations(range(order))
]


@st.composite
def coo_cases(draw, order):
    shape = tuple(draw(st.integers(1, 4)) for _ in range(order))
    entry = st.tuples(*(st.integers(0, size - 1) for size in shape))
    coords = draw(st.lists(entry, max_size=14))
    values = [draw(VALUES) for _ in coords]
    formats = tuple(draw(st.sampled_from(FORMAT_NAMES)) for _ in range(order))
    return shape, coords, values, formats, draw(st.booleans()), draw(
        st.integers(0, 2**16)
    )


@pytest.mark.parametrize("mode_order", MODE_ORDERS, ids=str)
@given(data=st.data())
def test_sorted_shuffled_and_reference_agree_bit_for_bit(mode_order, data):
    shape, coords, values, formats, keep_zeros, seed = data.draw(
        coo_cases(len(mode_order))
    )
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, len(shape))
    values = np.asarray(values, dtype=np.float64)
    key = coords[:, list(mode_order)]
    in_order = np.lexsort(key.T[::-1])  # stable
    shuffled = keeping_duplicate_order(key, np.random.default_rng(seed))
    build = dict(formats=formats, mode_order=mode_order, keep_zeros=keep_zeros,
                 bits_per_word=4)

    with lexsort_callers() as callers:
        from_sorted = FiberTensor.from_coords(
            shape, coords[in_order], values[in_order], **build
        )
    assert callers == []

    rows = [tuple(row) for row in key[shuffled].tolist()]
    with lexsort_callers() as callers:
        from_shuffled = FiberTensor.from_coords(
            shape, coords[shuffled], values[shuffled], **build
        )
    assert callers == ([] if rows == sorted(rows) else [INGEST])

    reference = FiberTensor.from_coords_reference(
        shape, coords.tolist(), values.tolist(), **build
    )
    assert tree_bytes(from_sorted) == tree_bytes(reference)
    assert tree_bytes(from_shuffled) == tree_bytes(reference)


@given(
    st.integers(1, 3).flatmap(
        lambda width: st.lists(
            st.tuples(*[st.sampled_from([-(2**63), -1, 0, 1, 2, 2**63 - 1])] * width),
            min_size=1, max_size=8,
        )
    )
)
def test_rows_ascend_is_the_python_sort_order(rows):
    key = np.asarray(rows, dtype=np.int64).reshape(len(rows), -1)
    ascends = _rows_ascend(key)
    if rows != sorted(rows):
        assert ascends is None
    else:
        assert ascends.tolist() == [a < b for a, b in zip(rows, rows[1:])]


class TestEdges:
    @pytest.mark.parametrize("shape, coords, values", [
        ((3, 4), [], []),
        ((3, 4), [(2, 1)], [1.5]),
        ((), [(), (), ()], [1.0, 2.0, 0.25]),
        ((2, 2), [(1, 0)] * 20, list(np.linspace(-1, 1, 20) ** 3)),
        ((4,), [(3,), (3,), (0,)], [0.1, 0.2, 0.3]),
    ], ids=["empty", "single", "order0", "all-duplicate", "descending"])
    @pytest.mark.parametrize("keep_zeros", [False, True])
    def test_matches_reference(self, shape, coords, values, keep_zeros):
        fast = FiberTensor.from_coords(shape, coords, values, keep_zeros=keep_zeros)
        slow = FiberTensor.from_coords_reference(
            shape, coords, values, keep_zeros=keep_zeros
        )
        assert tree_bytes(fast) == tree_bytes(slow)

    @pytest.mark.parametrize("rows", [
        [(0, 1), (0, 2), (1, 0), (2, 2)],   # ordered, distinct: no gather at all
        [(0, 1), (0, 1), (1, 0), (2, 2)],   # ordered with a duplicate
        [(2, 2), (0, 1), (1, 0), (0, 2)],   # unordered
    ], ids=["ordered", "duplicate", "unordered"])
    @pytest.mark.parametrize("formats", [
        ("compressed", "compressed"), ("dense", "dense"), ("dense", "compressed"),
    ], ids="/".join)
    def test_caller_arrays_neither_mutated_nor_aliased(self, rows, formats):
        coords = np.array(rows, dtype=np.int64)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        coords_before, values_before = coords.copy(), values.copy()
        tensor = FiberTensor.from_coords((3, 3), coords, values, formats=formats)
        assert np.array_equal(coords, coords_before)
        assert np.array_equal(values, values_before)
        stored = [tensor.vals] + [
            array for level in tensor.levels if level.format_name == "compressed"
            for array in (level.seg, level.crd)
        ]
        for array in stored:
            assert not np.shares_memory(array, coords)
            assert not np.shares_memory(array, values)


class TestNoSortOnOrderedInput:
    """Wall-clock-free: which inputs pay for a sort is a count."""

    def test_mtx_file_to_fibertree(self, tmp_path):
        matrix = sparse.random(60, 50, density=0.1, random_state=4, format="csr")
        with lexsort_callers() as callers:
            path = write_mtx(str(tmp_path / "m.mtx"), matrix)
            coo = read_mtx(path)
            tensor = FiberTensor.from_coords(coo.shape, coo.coords, coo.values)
        assert callers == []
        assert np.array_equal(tensor.to_numpy(), matrix.toarray())

    def test_canonical_scipy_and_dense_numpy(self):
        matrix = sparse.random(40, 30, density=0.2, random_state=5, format="csr")
        with lexsort_callers() as callers:
            FiberTensor.from_scipy(matrix)
            FiberTensor.from_numpy(matrix.toarray())
            FiberTensor.from_numpy(np.arange(24.0).reshape(2, 3, 4))
        assert callers == []

    def test_unordered_input_sorts_exactly_once(self):
        matrix = sparse.random(40, 30, density=0.2, random_state=6, format="coo")
        coords = np.column_stack([matrix.row, matrix.col])
        perm = np.random.default_rng(6).permutation(matrix.nnz)
        with lexsort_callers() as callers:
            FiberTensor.from_coords(matrix.shape, coords[perm], matrix.data[perm])
        assert callers == [INGEST]
        # Row-major rows are not in column-major storage order.
        with lexsort_callers() as callers:
            FiberTensor.from_numpy(matrix.toarray(), mode_order=(1, 0))
        assert callers == [INGEST]

    def test_table1_pass_sorts_no_operand(self):
        with lexsort_callers() as callers:
            for entry in ENTRIES:
                program = compile_expression(
                    entry.expression, formats=entry.formats, schedule=entry.schedule
                )
                program.run(_random_inputs(program, 0), backend="compiled").to_numpy()
        assert INGEST not in callers


#: every format mix of order 1 to 3, and a shape for each order
FORMAT_MIXES = [
    mix for order in (1, 2, 3) for mix in itertools.product(FORMAT_NAMES, repeat=order)
]
SHAPES = {1: (100_000,), 2: (400, 400), 3: (60, 60, 60)}


class TestLastLevelTakesNoGroupingPass:
    """Counting contract: after ``_dedupe_sorted`` no two rows are equal,
    so a compressed or bitvector *last* level holds one entry a group and
    is built without a grouping pass (head mask, ``nonzero``,
    ``cumsum``, gathers, value scatter).  Each compressed or bitvector
    level above it takes exactly one.  Counted on the ndarray methods
    ``from_coords`` calls on entry-length arrays, at n and 4n entries."""

    @pytest.mark.parametrize("formats", FORMAT_MIXES, ids="/".join)
    def test_one_grouping_pass_per_level_above_the_last(self, formats):
        shape = SHAPES[len(formats)]
        grouped = sum(fmt != "dense" for fmt in formats[:-1])
        seen = []
        for n in (500, 2000):
            rng = np.random.default_rng(n)
            flat = np.sort(rng.choice(int(np.prod(shape)), n, replace=False))
            coords = np.column_stack(np.unravel_index(flat, shape))
            values = rng.uniform(0.5, 1.0, n)
            with builtin_calls(INGEST) as calls:
                tensor = FiberTensor.from_coords(shape, coords, values,
                                                 formats=formats)
            entry_sized = [name for name, size in calls if size == n]
            assert entry_sized.count("nonzero") == grouped
            assert entry_sized.count("cumsum") == grouped
            seen.append(entry_sized)
            assert np.array_equal(tensor.to_numpy()[tuple(coords.T)], values)
        assert seen[0] == seen[1]
