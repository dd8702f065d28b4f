"""The all-pairs-at-once ExTensor model against a per-pair reference.

``extensor_spmm_cycles`` costs every (B tile, C tile) pair with array
operations over the two tile maps.  The reference here is the model its
docstrings describe, written out the slow way from *dense numpy tiles*:
cut each tile, visit each pair, walk the LLB.  An operand is reduced to
its canonical content first — ``values`` (duplicates summed) and
``stored`` (which coordinates hold an entry, explicit zeros included) —
so every input format of the same matrix must give the same result.
All comparisons are ``==`` on every ``ExTensorResult`` field.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse

from repro.data.synthetic import extensor_matrix
from repro.memory import (
    DramModel,
    ExTensorConfig,
    NBufferedPipeline,
    TiledMatrix,
    extensor_spmm_cycles,
)


# -- the reference -----------------------------------------------------------
def _tile_order(stored, tile):
    """Nonempty tile IDs by first appearance in the row-major scan."""
    order = []
    for r, c in zip(*np.nonzero(stored)):  # np.nonzero scans row-major
        key = (int(r) // tile, int(c) // tile)
        if key not in order:
            order.append(key)
    return order


def _cut(array, key, tile):
    return array[key[0] * tile:(key[0] + 1) * tile, key[1] * tile:(key[1] + 1) * tile]


def _reference(b_values, b_stored, c_values, c_stored, config):
    """(fields, evictions): the per-pair model over dense tiles."""
    tile = config.pe_tile

    def nbytes(stored, key):
        cut = _cut(stored, key, tile)
        return (int(cut.sum()) * (config.value_bytes + config.index_bytes)
                + int(cut.any(axis=1).sum()) * 2 * config.index_bytes)

    b_keys = _tile_order(b_stored, tile)
    c_keys = _tile_order(c_stored, tile)
    b_nonzero = b_stored & (b_values != 0)
    c_nonzero = c_stored & (c_values != 0)
    loads, computes = [], []
    pairs = evictions = 0
    resident, resident_bytes = set(), 0
    for i in sorted({key[0] for key in b_keys}):
        row = [key for key in b_keys if key[0] == i]
        load_bytes = sum(nbytes(b_stored, key) for key in row)
        compute = 0.0
        for b_key in row:
            k = b_key[1]
            under_k = [key for key in c_keys if key[0] == k]
            if not under_k:
                continue
            if k not in resident:
                c_bytes = sum(nbytes(c_stored, key) for key in under_k)
                if resident_bytes + c_bytes > config.llb_bytes:
                    resident, resident_bytes = set(), 0
                    evictions += 1
                resident.add(k)
                resident_bytes += c_bytes
                load_bytes += c_bytes
            for c_key in under_k:
                pairs += 1
                multiplies = int(_cut(b_nonzero, b_key, tile).sum(axis=0)
                                 @ _cut(c_nonzero, c_key, tile).sum(axis=1))
                intersection = min(int(_cut(b_stored, b_key, tile).sum()),
                                   int(_cut(c_stored, c_key, tile).sum()))
                compute += config.pair_overhead_cycles + intersection + multiplies
        loads.append(load_bytes / config.dram.bytes_per_cycle)
        computes.append(compute / config.num_pes)
    sequencing = config.sequencing_cycles_per_tile * (
        len(b_keys) + len(c_keys) + pairs
    )
    overlapped = NBufferedPipeline(config.n_buffering).total_cycles(loads, computes)
    fields = dict(
        dimension=b_values.shape[0],
        cycles=overlapped + sequencing,
        compute_cycles=sum(computes),
        dram_cycles=sum(loads),
        sequencing_cycles=sequencing,
        nonempty_pairs=pairs,
    )
    return fields, evictions


def _canonical(shape, entries):
    values = np.zeros(shape)
    stored = np.zeros(shape, dtype=bool)
    for r, c, v in entries:
        values[r, c] += v
        stored[r, c] = True
    return values, stored


def _raw_csr(shape, entries):
    """CSR in the entries' own order: unsorted indices, duplicates kept."""
    by_row = sorted(entries, key=lambda e: e[0])  # stable: columns stay shuffled
    counts = np.bincount([r for r, _, _ in by_row], minlength=shape[0])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sparse.csr_matrix(
        (np.array([v for _, _, v in by_row], dtype=float),
         np.array([c for _, c, _ in by_row], dtype=np.int32), indptr),
        shape=shape,
    )


def _build(shape, entries, fmt):
    """(operand, the ``nnz`` its ``csr_matrix`` form reports)."""
    unique = len({(r, c) for r, c, _ in entries})
    if fmt == "raw-csr":
        return _raw_csr(shape, entries), len(entries)
    rows, cols, vals = (np.array(x) for x in zip(*entries)) if entries else ([], [], [])
    coo = sparse.coo_matrix((np.asarray(vals, dtype=float), (rows, cols)), shape=shape)
    if fmt == "coo":
        return coo, unique
    return coo.tocsr(), unique


def _check(b_shape, b_entries, c_shape, c_entries, config, fmt="csr"):
    B, b_nnz = _build(b_shape, b_entries, fmt)
    C, _ = _build(c_shape, c_entries, fmt)
    expected, evictions = _reference(
        *_canonical(b_shape, b_entries), *_canonical(c_shape, c_entries), config
    )
    expected["nnz"] = b_nnz
    assert asdict(extensor_spmm_cycles(B, C, config)) == expected
    return evictions


# -- hypothesis: operands nobody hand-picked ---------------------------------
#: exact in binary and cancelling, so duplicate sums are order-free and
#: planted pairs like (1.0, -1.0) leave an explicit stored zero
_VALUES = st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0, -0.5])


@st.composite
def _entries(draw, shape):
    # rows drawn from a subset so whole tile-rows stay empty
    rows = draw(st.lists(st.integers(0, shape[0] - 1), min_size=1, max_size=6))
    return draw(st.lists(
        st.tuples(st.sampled_from(rows), st.integers(0, shape[1] - 1), _VALUES),
        max_size=40,
    ))


@st.composite
def _cases(draw):
    m, k, n = (draw(st.integers(1, 30)) for _ in range(3))
    if draw(st.booleans()):
        n = k = m  # square, like the study
    config = ExTensorConfig(
        pe_tile=draw(st.integers(1, 9)),
        llb_bytes=draw(st.sampled_from([24, 40, 60, 150, 17 * 2**20])),
        dram=DramModel(draw(st.sampled_from([68.256, 1.0, 7.5]))),
        num_pes=draw(st.sampled_from([1, 3, 128])),
        n_buffering=draw(st.sampled_from([1, 2])),
        pair_overhead_cycles=draw(st.sampled_from([64.0, 0.0, 2.5])),
        value_bytes=draw(st.sampled_from([8, 4])),
        index_bytes=draw(st.sampled_from([4, 2])),
    )
    fmt = draw(st.sampled_from(["csr", "coo", "raw-csr"]))
    return ((m, k), draw(_entries((m, k))), (k, n), draw(_entries((k, n))),
            config, fmt)


class TestAgainstPerPairReference:
    @given(_cases())
    def test_every_field_equal(self, case):
        _check(*case)

    def test_eviction_mid_row(self):
        # B tile-row 0 touches k = 0, 1, 2 and tile-row 1 k = 0 again; each
        # C tile-row is 20 bytes and the LLB holds two: loading k=2 flushes
        # mid-row, so tile-row 1 reloads k=0.
        b_entries = [(0, 0, 1.0), (0, 2, 1.0), (0, 4, 1.0), (2, 0, 1.0)]
        c_entries = [(0, 0, 1.0), (2, 1, 1.0), (4, 5, 1.0)]
        config = ExTensorConfig(pe_tile=2, llb_bytes=50, num_pes=1)
        assert _check((4, 6), b_entries, (6, 6), c_entries, config) == 1
        B, _ = _build((4, 6), b_entries, "csr")
        C, _ = _build((6, 6), c_entries, "csr")
        roomy = ExTensorConfig(pe_tile=2, llb_bytes=60, num_pes=1)
        assert (extensor_spmm_cycles(B, C, config).dram_cycles
                > extensor_spmm_cycles(B, C, roomy).dram_cycles)

    def test_tile_order_is_first_appearance_not_sorted(self):
        # Row 0 opens tile (0, 1), row 1 opens tile (0, 0): the walk loads
        # k=1 first, so with room for one C tile-row it is k=1 that is
        # flushed — the sorted order would flush k=0 and reload nothing.
        b_entries = [(0, 2, 1.0), (1, 0, 1.0), (2, 2, 1.0)]
        c_entries = [(0, 0, 1.0), (2, 0, 1.0)]
        config = ExTensorConfig(pe_tile=2, llb_bytes=30, num_pes=1)
        assert _check((4, 4), b_entries, (4, 4), c_entries, config) == 2
        assert list(TiledMatrix(_build((4, 4), b_entries, "csr")[0], 2).tiles) == [
            (0, 1), (0, 0), (1, 1)
        ]

    def test_explicit_zeros_count_as_coordinates_not_multiplies(self):
        entries = [(0, 0, 0.0), (0, 1, 1.0), (1, 1, 1.0), (1, 1, -1.0)]
        config = ExTensorConfig(pe_tile=2, num_pes=1, pair_overhead_cycles=0.0)
        for fmt in ("csr", "coo", "raw-csr"):
            _check((2, 2), entries, (2, 2), entries, config, fmt)
        B, _ = _build((2, 2), entries, "coo")
        # 3 stored coordinates a side -> intersection 3; one real nonzero
        # B(0,1) meets C's row 1, which holds only a cancelled zero.
        assert extensor_spmm_cycles(B, B, config).compute_cycles == 3.0

    def test_input_formats_agree_and_input_is_untouched(self):
        entries = [(0, 5, 1.0), (0, 1, 2.0), (0, 5, 0.5), (3, 2, 1.0), (3, 0, -1.0)]
        raw = _raw_csr((4, 6), entries)
        indices, data = raw.indices.copy(), raw.data.copy()
        config = ExTensorConfig(pe_tile=2, llb_bytes=60)
        got = asdict(extensor_spmm_cycles(raw, raw.T, config))
        assert (raw.indices == indices).all() and (raw.data == data).all()
        tidy = asdict(extensor_spmm_cycles(raw.toarray(), raw.T.toarray(), config))
        assert got.pop("nnz") == 5 and tidy.pop("nnz") == 4
        assert got == tidy

    def test_empty_operands(self):
        config = ExTensorConfig(pe_tile=4)
        assert _check((5, 7), [], (7, 3), [], config) == 0
        assert _check((5, 7), [(1, 1, 1.0)], (7, 3), [], config) == 0
        assert _check((5, 7), [], (7, 3), [(1, 1, 1.0)], config) == 0


class TestRejectedInputs:
    def test_contracted_extents_must_match(self):
        B = sparse.random(300, 517, density=0.01, random_state=0, format="csr")
        C = sparse.random(400, 211, density=0.01, random_state=1, format="csr")
        with pytest.raises(ValueError, match=r"\(300, 517\).*\(400, 211\)"):
            extensor_spmm_cycles(B, C)

    @pytest.mark.parametrize("field, value", [
        ("pe_tile", 0), ("pe_tile", -4), ("num_pes", 0), ("n_buffering", 0),
        ("llb_bytes", 0), ("llb_bytes", float("nan")),
        ("value_bytes", 0), ("index_bytes", -1),
    ])
    def test_config_names_the_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExTensorConfig(**{field: value})

    def test_dram_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError, match="bytes_per_cycle"):
            DramModel(bytes_per_cycle=0.0)

    def test_tile_size_must_be_positive(self):
        with pytest.raises(ValueError, match="tile_size"):
            TiledMatrix(sparse.csr_matrix((4, 4)), 0)


class TestNoPerTileWork:
    def test_sparse_constructions_do_not_grow_with_the_tile_count(self, monkeypatch):
        """O(1) scipy matrices per call: no per-tile ``csr_matrix``."""
        built = []
        for cls in (sparse.csr_matrix, sparse.csc_matrix, sparse.coo_matrix):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)

        def constructions(dimension):
            B = extensor_matrix(dimension, 5000, seed=0)
            C = extensor_matrix(dimension, 5000, seed=1)
            del built[:]
            result = extensor_spmm_cycles(B, C)
            return len(built), result.nonempty_pairs

        small, small_pairs = constructions(1024)
        large, large_pairs = constructions(3696)
        assert large_pairs > 10 * small_pairs
        assert 0 < small == large <= 12
