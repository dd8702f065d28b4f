"""Compressed level format: segment + coordinate arrays (Figure 1c).

This is the per-level building block of CSR/DCSR/CSF.  A segment array
``seg`` of length ``num_fibers + 1`` delimits each fiber's slice of the
coordinate array ``crd``; the child reference of the coordinate stored at
position ``p`` is ``p`` itself (positions are contiguous), exactly as in
the paper's DCSR example where segment ``[3, 5)`` refers to coordinates
at positions 3 and 4.

Both arrays are stored as contiguous ``int64`` numpy arrays so that
million-nnz operands construct and validate in vectorized time, and a
run of fibers is read with one gather (:meth:`CompressedLevel.fiber_arrays`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .level import Level, fiber_positions


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
        #: ``sorted_keys()``' result, by the crd array it was built on
        self._keys: Optional[tuple] = None

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

    def fiber_arrays(self, refs: np.ndarray):
        """Fiber *i* is the positions ``seg[refs[i]]..seg[refs[i] + 1]``,
        each its own child reference."""
        starts, lens = self.fiber_bounds(refs)
        children = fiber_positions(starts, lens)
        return self.crd[children], children, lens

    def fiber_lens(self, refs: np.ndarray) -> np.ndarray:
        """The pair counts of the fibers at *refs*."""
        refs = np.asarray(refs, dtype=np.int64)
        return self.seg[refs + 1] - self.seg[refs]

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

    def __repr__(self) -> str:
        return f"CompressedLevel(seg={self.seg.tolist()}, crd={self.crd.tolist()})"
