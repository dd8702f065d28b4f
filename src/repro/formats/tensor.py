"""FiberTensor: a multidimensional tensor as a fibertree (paper section 3.1).

A :class:`FiberTensor` is a list of levels (one per dimension, in storage
order) plus a flat value array.  Composing the per-level formats yields
the classic sparse formats:

* all-compressed matrix               -> DCSR (Figure 1c)
* dense outer + compressed inner      -> CSR
* all-dense                           -> a plain dense array
* all-compressed higher-order tensor  -> CSF
* compressed + bitvector              -> the section 4.3 bitmask format

``mode_order`` maps storage levels to logical dimensions, so a transposed
matrix is just the same data with ``mode_order=(1, 0)`` — the format
language of section 5 (``C=({comp., comp.}, {mode1, mode0})``).

Construction is fully vectorized: COO input is validated, permuted,
lexsorted (only if its rows do not already arrive in order) and
deduplicated with numpy, and every level's segment/coordinate (or word)
arrays fall out of segment-boundary masks — no per-entry Python loops,
so million-nnz operands build in ~100ms.  The pre-vectorization
pure-Python pipeline is kept as :meth:`FiberTensor.from_coords_reference`,
serving as a differential-testing oracle and as the baseline for
``benchmarks/bench_formats.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bitvector import BitvectorLevel
from .compressed import CompressedLevel
from .dense import DenseLevel
from .level import Level

FORMAT_NAMES = ("compressed", "dense", "bitvector")


def dense_nonzeros(array) -> Tuple[np.ndarray, np.ndarray]:
    """``(coords, values)`` of a dense array's nonzero entries.

    ``coords`` is ``(n, ndim)`` int64 in C order — the one shared
    dense-to-COO extraction used by :meth:`FiberTensor.from_numpy` and
    the ``.mtx`` readers (note ``nz.size``, not ``len(nz)``: an empty
    result still carries the dimension count).
    """
    array = np.asarray(array, dtype=float)
    if array.ndim == 0:  # nonzero() refuses a 0-d array
        return np.argwhere(array != 0).astype(np.int64, copy=False), np.empty(0)
    where = (array != 0).nonzero()
    return np.array(where, dtype=np.int64).T, array[where]


def segment_offsets(counts: np.ndarray) -> np.ndarray:
    """Within-segment offsets ``[0..c0), [0..c1), ...`` for ragged expansion.

    For ``counts = [2, 3]`` returns ``[0, 1, 0, 1, 2]`` — the vectorized
    building block for expanding per-fiber counts into flat positions
    (used by :meth:`FiberTensor.to_coo` and the ``.mtx`` array reader).
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(np.add.reduce(counts))
    return np.arange(total, dtype=np.int64) - (counts.cumsum() - counts).repeat(counts)


def _coerce_coo(
    shape: Tuple[int, ...],
    coords: Sequence[Sequence[int]],
    values: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """(n, order) int64 coordinates + (n,) float64 values, validated."""
    order = len(shape)
    coords_arr = np.asarray(coords, dtype=np.int64)
    values_arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if coords_arr.ndim != 2 and coords_arr.size == 0:
        # An empty coords list arrives as shape (0,); note an order-0
        # tensor's entries already parse as (n, 0) and keep their count.
        coords_arr = coords_arr.reshape(0, order)
    if coords_arr.ndim != 2 or coords_arr.shape[1] != order:
        raise ValueError(
            f"coords must be (n, {order}) for a shape-{shape} tensor, "
            f"got array of shape {coords_arr.shape}"
        )
    if coords_arr.shape[0] != values_arr.size:
        raise ValueError(
            f"{coords_arr.shape[0]} coordinates but {values_arr.size} values"
        )
    # One minimum over every coordinate and one maximum per column, no
    # entry-sized temporary (a reduction over axis 0 of an (n, 2) array
    # steps two columns a row and is slower still); the mask that names
    # the offending entry is built only when there is one.
    if coords_arr.size and (
        np.minimum.reduce(coords_arr.reshape(-1)) < 0
        or [d for d in range(order) if np.maximum.reduce(coords_arr[:, d]) >= shape[d]]
    ):
        bad = (coords_arr < 0) | (coords_arr >= np.asarray(shape, dtype=np.int64))
        entry, axis = map(int, np.argwhere(bad)[0])
        raise ValueError(
            f"coordinate {tuple(coords_arr[entry].tolist())} at entry "
            f"{entry} is outside shape {shape}: axis {axis} value "
            f"{int(coords_arr[entry, axis])} not in [0, {shape[axis]})"
        )
    return coords_arr, values_arr


def _rows_ascend(key: np.ndarray) -> Optional[np.ndarray]:
    """Where consecutive *key* rows strictly ascend, or ``None`` if any
    pair descends (the rows are not in lexicographic order).

    One pass per column over adjacent rows: a column decides a pair the
    first time its two entries differ.  In ordered rows a pair that does
    not ascend is a pair of equal rows, so the mask is also the
    duplicate-head mask :func:`_dedupe_sorted` needs.
    """
    ascends = np.zeros(key.shape[0] - 1, dtype=bool)
    for d in range(key.shape[1]):
        above, below = key[:-1, d], key[1:, d]
        descends = above > below
        if d:
            descends &= ~ascends
        if np.count_nonzero(descends):
            return None
        ascends |= above < below
    return ascends


def _dedupe_sorted(
    key: np.ndarray, values: np.ndarray, keep_zeros: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Order *key* rows, sum duplicate values, optionally drop zeros.

    Rows that already arrive in lexicographic order (scipy's canonical
    COO, ``np.nonzero``, every file :func:`~repro.data.io.write_mtx`
    produces) are not sorted again: a stable sort of ordered rows is the
    identity, so skipping it changes no bit of the result.  Otherwise the
    sort is stable, so either way duplicates are summed in arrival order;
    entries whose merged value is exactly zero (e.g. ``+1.0`` cancelled by
    ``-1.0``) are dropped unless ``keep_zeros`` asks for explicit zeros.
    """
    if key.shape[0] == 0:
        return key, values
    ascends = _rows_ascend(key)
    if ascends is None:
        sort_idx = np.lexsort(key.T[::-1])
        key = key[sort_idx]
        values = values[sort_idx]
        ascends = (key[1:] != key[:-1]).any(axis=1)
    if np.count_nonzero(ascends) == len(ascends):
        merged = values.copy()
    else:
        head = np.concatenate(([True], ascends))
        # np.add.at applies the additions element-by-element in array
        # order (unbuffered), so duplicates really are summed in arrival
        # order — np.add.reduceat would pairwise-sum groups larger than
        # numpy's unrolling block, silently diverging from the
        # from_coords_reference oracle in the last bits.
        slot = head.cumsum() - 1
        merged = np.zeros(int(slot[-1]) + 1, dtype=np.float64)
        np.add.at(merged, slot, values)
        key = key[head]
    if not keep_zeros:
        nonzero = merged != 0
        if np.count_nonzero(nonzero) < len(nonzero):
            key = key[nonzero]
            merged = merged[nonzero]
    return key, merged


class FiberTensor:
    """A tensor stored as a fibertree with per-level formats."""

    def __init__(
        self,
        shape: Sequence[int],
        levels: Sequence[Level],
        vals: Sequence[float],
        mode_order: Optional[Sequence[int]] = None,
        name: str = "T",
    ):
        self.shape: Tuple[int, ...] = tuple(shape)
        self.levels: List[Level] = list(levels)
        # like the levels' arrays, a float64 value array is kept, not copied
        self.vals: np.ndarray = np.asarray(vals, dtype=np.float64).reshape(-1)
        self.mode_order: Tuple[int, ...] = tuple(
            mode_order if mode_order is not None else range(len(self.shape))
        )
        self.name = name
        if len(self.levels) != len(self.shape):
            raise ValueError(
                f"tensor of order {len(self.shape)} needs {len(self.shape)} levels, "
                f"got {len(self.levels)}"
            )
        if sorted(self.mode_order) != list(range(len(self.shape))):
            raise ValueError(f"mode_order {self.mode_order} is not a permutation")

    # -- construction ----------------------------------------------------
    @classmethod
    def from_coords(
        cls,
        shape: Sequence[int],
        coords: Sequence[Sequence[int]],
        values: Sequence[float],
        formats: Optional[Sequence[str]] = None,
        mode_order: Optional[Sequence[int]] = None,
        name: str = "T",
        bits_per_word: int = 64,
        keep_zeros: bool = False,
    ) -> "FiberTensor":
        """Build a fibertree from COO-style (coords, values) data.

        Coordinates are validated against *shape* (out-of-range or
        negative entries raise ``ValueError``).  Duplicate coordinates are
        summed in arrival order; entries whose merged value is exactly
        zero are dropped unless ``keep_zeros=True``.  ``formats`` gives
        one format name per *storage level*; the default is
        all-compressed.
        """
        shape = tuple(int(s) for s in shape)
        order = len(shape)
        perm = tuple(
            int(m) for m in (mode_order if mode_order is not None else range(order))
        )
        if sorted(perm) != list(range(order)):
            raise ValueError(f"mode_order {perm} is not a permutation")
        formats = tuple(formats if formats is not None else ["compressed"] * order)
        if len(formats) != order:
            raise ValueError(f"need {order} level formats, got {len(formats)}")

        coords_arr, values_arr = _coerce_coo(shape, coords, values)
        # Permute to storage order, put the rows in lexicographic order
        # (a sort only if they are not already), merge duplicates.
        key = coords_arr[:, list(perm)] if order else coords_arr
        key, merged = _dedupe_sorted(key, values_arr, keep_zeros)

        # Walk the levels top-down.  ``parent`` maps every surviving entry
        # to its fiber at the current level; compressed/bitvector levels
        # derive their fibers from segment-boundary masks, dense levels
        # expand the fiber space affinely.  No two rows are equal any
        # more, so on a compressed/bitvector last level every entry is a
        # group of its own: no mask, and ``merged`` is the value array
        # (``parent`` None: entry i is value slot i).
        m = key.shape[0]
        parent = np.zeros(m, dtype=np.int64)
        num_fibers = 1
        levels: List[Level] = []
        for d in range(order):
            size = shape[perm[d]]
            fmt = formats[d]
            col = key[:, d]
            if fmt in ("compressed", "bitvector"):
                if d < order - 1:
                    head = np.empty(m, dtype=bool)
                    if m:
                        head[0] = True
                        head[1:] = (parent[1:] != parent[:-1]) | (col[1:] != col[:-1])
                    starts = head.nonzero()[0]
                    fiber_of_group, crd_of_group = parent[starts], col[starts]
                    parent = head.cumsum() - 1
                else:
                    fiber_of_group, crd_of_group, parent = parent, col, None
                counts = np.bincount(fiber_of_group, minlength=num_fibers)
                seg = np.concatenate(([0], counts.cumsum()))
                if fmt == "compressed":
                    levels.append(CompressedLevel(seg, crd_of_group))
                else:
                    levels.append(
                        BitvectorLevel.from_arrays(
                            fiber_of_group, crd_of_group, num_fibers, size,
                            bits_per_word,
                        )
                    )
                num_fibers = crd_of_group.size
            elif fmt == "dense":
                levels.append(DenseLevel(size, num_fibers=num_fibers))
                parent = parent * size + col
                num_fibers *= size
            else:
                raise ValueError(f"unknown level format {fmt!r}")

        if parent is None:
            vals = merged
        else:
            vals = np.zeros(num_fibers if order else 1, dtype=np.float64)
            vals[parent if order else np.zeros(m, dtype=np.int64)] = merged
        return cls(shape, levels, vals, mode_order=perm, name=name)

    @classmethod
    def from_coords_reference(
        cls,
        shape: Sequence[int],
        coords: Sequence[Sequence[int]],
        values: Sequence[float],
        formats: Optional[Sequence[str]] = None,
        mode_order: Optional[Sequence[int]] = None,
        name: str = "T",
        bits_per_word: int = 64,
        keep_zeros: bool = False,
    ) -> "FiberTensor":
        """Pure-Python construction oracle (the pre-vectorization pipeline).

        Semantically identical to :meth:`from_coords` — the differential
        tests assert structural equality — but built with per-entry dict
        and nested-list passes.  Kept for verification and as the baseline
        measured by ``benchmarks/bench_formats.py``.
        """
        shape = tuple(shape)
        order = len(shape)
        perm = tuple(mode_order if mode_order is not None else range(order))
        formats = tuple(formats if formats is not None else ["compressed"] * order)
        if len(formats) != order:
            raise ValueError(f"need {order} level formats, got {len(formats)}")
        coords_arr, values_arr = _coerce_coo(shape, coords, values)

        # Deduplicate and sort nonzeros by permuted coordinate.
        merged: Dict[Tuple[int, ...], float] = {}
        for crd, val in zip(coords_arr.tolist(), values_arr.tolist()):
            key = tuple(crd[perm[d]] for d in range(order))
            merged[key] = merged.get(key, 0.0) + float(val)
        if not keep_zeros:
            merged = {key: val for key, val in merged.items() if val != 0}
        entries = sorted(merged.items())

        levels: List[Level] = []
        # Each fiber is a list of (permuted_coord_tuple, value) entries.
        fibers: List[List[Tuple[Tuple[int, ...], float]]] = [list(entries)]
        for d in range(order):
            size = shape[perm[d]]
            fmt = formats[d]
            if fmt in ("compressed", "bitvector"):
                coord_lists: List[List[int]] = []
                new_fibers: List[List[Tuple[Tuple[int, ...], float]]] = []
                for fiber in fibers:
                    grouped: List[Tuple[int, List]] = []
                    for entry in fiber:
                        crd = entry[0][d]
                        if grouped and grouped[-1][0] == crd:
                            grouped[-1][1].append(entry)
                        else:
                            grouped.append((crd, [entry]))
                    coord_lists.append([g[0] for g in grouped])
                    new_fibers.extend(g[1] for g in grouped)
                if fmt == "compressed":
                    levels.append(CompressedLevel.from_fibers(coord_lists))
                else:
                    levels.append(
                        BitvectorLevel.from_fibers(coord_lists, size, bits_per_word)
                    )
            elif fmt == "dense":
                levels.append(DenseLevel(size, num_fibers=len(fibers)))
                new_fibers = [[] for _ in range(len(fibers) * size)]
                for fi, fiber in enumerate(fibers):
                    for entry in fiber:
                        new_fibers[fi * size + entry[0][d]].append(entry)
            else:
                raise ValueError(f"unknown level format {fmt!r}")
            fibers = new_fibers

        vals = []
        for fiber in fibers:
            if len(fiber) > 1:  # pragma: no cover - grouping guarantees <= 1
                raise AssertionError("value slot holds more than one entry")
            vals.append(fiber[0][1] if fiber else 0.0)
        return cls(shape, levels, vals, mode_order=perm, name=name)

    @classmethod
    def from_numpy(
        cls,
        array: np.ndarray,
        formats: Optional[Sequence[str]] = None,
        mode_order: Optional[Sequence[int]] = None,
        name: str = "T",
        bits_per_word: int = 64,
    ) -> "FiberTensor":
        """Build a fibertree from a dense numpy array, omitting zeros."""
        array = np.asarray(array, dtype=float)
        coords, values = dense_nonzeros(array)
        return cls.from_coords(
            array.shape, coords, values, formats, mode_order, name,
            bits_per_word,
        )

    @classmethod
    def from_scipy(cls, matrix, formats=None, mode_order=None, name: str = "T",
                   keep_zeros: bool = False):
        """Build from any scipy.sparse matrix.

        ``keep_zeros=True`` preserves explicit-zero stored entries (as
        scipy does), so the fibertree's coordinate structure mirrors the
        source file's — what stream-measurement studies want for real
        matrices.
        """
        coo = matrix.tocoo()
        coords = np.column_stack([coo.row, coo.col]).astype(np.int64)
        return cls.from_coords(
            coo.shape, coords, coo.data, formats, mode_order, name,
            keep_zeros=keep_zeros,
        )

    # -- inspection ------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.vals))

    @property
    def density(self) -> float:
        total = int(np.prod(self.shape)) if self.shape else 1
        return self.nnz / total if total else 0.0

    def memory_footprint(self) -> int:
        """Stored words: level metadata plus the value array."""
        return sum(lv.memory_footprint() for lv in self.levels) + int(self.vals.size)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray]:
        """Expand to ``(coords, values)`` COO arrays in storage order.

        Coordinates are *logical* (``mode_order`` already applied), of
        shape ``(n, order)``; value slots holding explicit zeros are
        included.  Compressed and dense levels expand vectorized; other
        level formats fall back to the generic ``fiber()`` walk.
        """
        refs = np.zeros(1, dtype=np.int64)
        columns: List[np.ndarray] = []
        for level in self.levels:
            if isinstance(level, CompressedLevel):
                counts = level.seg[refs + 1] - level.seg[refs]
                rep = np.arange(refs.size).repeat(counts)
                positions = level.seg[refs][rep] + segment_offsets(counts)
                columns = [c[rep] for c in columns]
                columns.append(level.crd[positions])
                refs = positions
            elif isinstance(level, DenseLevel):
                size = level.size
                rep = np.arange(refs.size).repeat(size)
                crd = np.tile(np.arange(size, dtype=np.int64), refs.size)
                columns = [c[rep] for c in columns]
                columns.append(crd)
                refs = refs[rep] * size + crd
            else:
                rep_list: List[int] = []
                crd_list: List[int] = []
                ref_list: List[int] = []
                for i, ref in enumerate(refs.tolist()):
                    for crd, child in level.fiber(ref):
                        rep_list.append(i)
                        crd_list.append(crd)
                        ref_list.append(child)
                rep = np.asarray(rep_list, dtype=np.int64)
                columns = [c[rep] for c in columns]
                columns.append(np.asarray(crd_list, dtype=np.int64))
                refs = np.asarray(ref_list, dtype=np.int64)
        if not self.order:
            return np.empty((0, 0), dtype=np.int64), self.vals[:1].copy()
        values = self.vals[refs]
        logical = np.empty((len(values), self.order), dtype=np.int64)
        for depth, axis in enumerate(self.mode_order):
            logical[:, axis] = columns[depth]
        return logical, values

    def to_numpy(self) -> np.ndarray:
        """Expand back to a dense numpy array (for correctness checking)."""
        if not self.shape:
            return np.array(float(self.vals[0]) if self.vals.size else 0.0)
        out = np.zeros(self.shape, dtype=float)
        coords, values = self.to_coo()
        if coords.size:
            out[tuple(coords.T)] = values
        return out

    def __repr__(self) -> str:
        fmts = "/".join(lv.format_name for lv in self.levels)
        return (
            f"FiberTensor({self.name}, shape={self.shape}, formats={fmts}, "
            f"nnz={self.nnz})"
        )


def scalar_tensor(value: float, name: str = "a") -> FiberTensor:
    """An order-0 tensor holding a single value (used for alpha/beta scalars)."""
    return FiberTensor((), [], [float(value)], mode_order=(), name=name)
