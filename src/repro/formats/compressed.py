"""Compressed level format: segment + coordinate arrays (Figure 1c).

This is the per-level building block of CSR/DCSR/CSF.  A segment array
``seg`` of length ``num_fibers + 1`` delimits each fiber's slice of the
coordinate array ``crd``; the child reference of the coordinate stored at
position ``p`` is ``p`` itself (positions are contiguous), exactly as in
the paper's DCSR example where segment ``[3, 5)`` refers to coordinates
at positions 3 and 4.

Both arrays are stored as contiguous ``int64`` numpy arrays so that
million-nnz operands construct and validate in vectorized time; the
:class:`~repro.formats.level.Level` scan/locate interface still hands
plain Python ints to the scanners.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .level import Level


class CompressedLevel(Level):
    """Segment/coordinate-array level (the ``compressed`` format)."""

    format_name = "compressed"

    def __init__(self, seg: Sequence[int], crd: Sequence[int]):
        self.seg: np.ndarray = np.ascontiguousarray(seg, dtype=np.int64)
        self.crd: np.ndarray = np.ascontiguousarray(crd, dtype=np.int64)
        if self.seg.ndim != 1 or self.crd.ndim != 1:
            raise ValueError("seg and crd must be one-dimensional")
        if self.seg.size == 0 or self.seg[0] != 0:
            raise ValueError("segment array must start with 0")
        if self.seg[-1] != self.crd.size:
            raise ValueError(
                f"segment array must end at len(crd)={self.crd.size}, got {self.seg[-1]}"
            )
        if np.count_nonzero(self.seg[1:] < self.seg[:-1]):
            raise ValueError("segment array must be non-decreasing")
        #: lazily materialised list view of crd for the per-token
        #: locate/skip_to hot path (bisect over a list is ~7x faster per
        #: call than np.searchsorted on a fresh slice)
        self._crd_list: Optional[List[int]] = None
        #: ``sorted_keys()``' result, by the crd array it was built on
        self._keys: Optional[tuple] = None

    def _crd_as_list(self) -> List[int]:
        if self._crd_list is None:
            self._crd_list = self.crd.tolist()
        return self._crd_list

    @classmethod
    def from_fibers(cls, fibers: Sequence[Sequence[int]]) -> "CompressedLevel":
        """Build from an explicit list of per-fiber coordinate lists."""
        seg = [0]
        crd: List[int] = []
        for fiber in fibers:
            crd.extend(fiber)
            seg.append(len(crd))
        return cls(seg, crd)

    # -- Level interface -----------------------------------------------------
    def num_fibers(self) -> int:
        return self.seg.size - 1

    def fiber(self, ref: int) -> List[Tuple[int, int]]:
        start, stop = int(self.seg[ref]), int(self.seg[ref + 1])
        return list(zip(self.crd[start:stop].tolist(), range(start, stop)))

    def locate(self, ref: int, coordinate: int) -> Optional[int]:
        start, stop = int(self.seg[ref]), int(self.seg[ref + 1])
        crd = self._crd_as_list()
        pos = bisect_left(crd, coordinate, start, stop)
        if pos < stop and crd[pos] == coordinate:
            return pos
        return None

    def skip_to(self, ref: int, position: int, coordinate: int) -> int:
        start, stop = int(self.seg[ref]), int(self.seg[ref + 1])
        pos = bisect_left(self._crd_as_list(), coordinate, start + position, stop)
        return pos - start

    # -- batched data plane --------------------------------------------------
    def fiber_arrays(self, refs: np.ndarray):
        """Vectorized :meth:`fiber` over a run of references.

        Returns ``(crds, children, lens)``: the concatenated coordinates
        and child references of every requested fiber, plus per-fiber
        lengths (so callers can place the fiber-separating stop tokens).
        """
        refs = np.asarray(refs, dtype=np.int64)
        starts = self.seg[refs]
        lens = self.seg[refs + 1] - starts
        total = int(np.add.reduce(lens))
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, lens
        # Global position p of local index q within fiber i is
        # starts[i] + q; build it as arange(total) rebased per fiber.
        before = np.concatenate(([0], lens[:-1].cumsum()))
        children = np.arange(total, dtype=np.int64) + (starts - before).repeat(lens)
        return self.crd[children], children, lens

    def fiber_bounds(self, refs: np.ndarray):
        """``(starts, lens)`` of the fibers at *refs*: fiber *i* is the
        positions ``starts[i]..starts[i] + lens[i]``, each its own child
        reference — :meth:`fiber_arrays` without the per-position arrays."""
        refs = np.asarray(refs, dtype=np.int64)
        starts = self.seg[refs]
        return starts, self.seg[refs + 1] - starts

    def sorted_keys(self):
        """``(keys, stride)``: every position's ``fiber * stride + crd``,
        ascending when each fiber's coordinates are, so one search finds
        where a coordinate falls in any fiber; None when a fiber is not
        strictly increasing, a coordinate is negative or the keys would
        not fit int64.  Built once per level."""
        if self._keys is None or self._keys[0] is not self.crd:
            crd, keys = self.crd, None
            stride = int(np.maximum.reduce(crd, initial=0)) + 1
            fibers, seg = self.seg.size - 1, self.seg
            if int(np.minimum.reduce(crd, initial=0)) >= 0 and stride * fibers < 2**63:
                keys = np.arange(fibers, dtype=np.int64) * stride
                keys = keys.repeat(seg[1:] - seg[:-1])
                keys += crd
                if np.count_nonzero(keys[1:] <= keys[:-1]):
                    keys = None
            self._keys = (crd, None if keys is None else (keys, stride))
        return self._keys[1]

    def locate_arrays(self, ref: int, coordinates: np.ndarray):
        """Vectorized :meth:`locate` of many coordinates in one fiber.

        Returns ``(found, hits)``: candidate child references and a hit
        mask (``found`` entries are only meaningful where ``hits``).
        """
        start, stop = int(self.seg[ref]), int(self.seg[ref + 1])
        coordinates = np.asarray(coordinates, dtype=np.int64)
        width = stop - start
        if width == 0:
            return np.zeros(len(coordinates), dtype=np.int64), np.zeros(
                len(coordinates), dtype=bool
            )
        window = self.crd[start:stop]
        pos = window.searchsorted(coordinates)
        hits = pos < width
        hits &= window[np.minimum(pos, width - 1)] == coordinates
        return start + pos, hits

    def fiber_size(self, ref: int) -> int:
        return int(self.seg[ref + 1] - self.seg[ref])

    def total_coordinates(self) -> int:
        return int(self.crd.size)

    def memory_footprint(self) -> int:
        return int(self.seg.size + self.crd.size)

    def __repr__(self) -> str:
        return f"CompressedLevel(seg={self.seg.tolist()}, crd={self.crd.tolist()})"
