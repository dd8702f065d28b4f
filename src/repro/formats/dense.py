"""Uncompressed (dense) level format.

An uncompressed level "stores a single number encoding the fiber size"
(paper section 3.1): every fiber implicitly contains all coordinates
``0..size-1`` and child references are computed as ``ref * size + crd``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .level import Level


class DenseLevel(Level):
    """Uncompressed level: a dimension size, nothing else stored."""

    format_name = "dense"

    def __init__(self, size: int, num_fibers: int = 1):
        if size < 0:
            raise ValueError(f"dimension size must be non-negative, got {size}")
        self.size = size
        self._num_fibers = num_fibers

    # -- Level interface -----------------------------------------------------
    def num_fibers(self) -> int:
        return self._num_fibers

    def fiber(self, ref: int) -> List[Tuple[int, int]]:
        base = ref * self.size
        return [(crd, base + crd) for crd in range(self.size)]

    def locate(self, ref: int, coordinate: int) -> Optional[int]:
        if 0 <= coordinate < self.size:
            return ref * self.size + coordinate
        return None

    def skip_to(self, ref: int, position: int, coordinate: int) -> int:
        return max(position, min(coordinate, self.size))

    # -- batched data plane --------------------------------------------------
    def fiber_arrays(self, refs: np.ndarray):
        """Vectorized :meth:`fiber`: every fiber holds 0..size-1."""
        refs = np.asarray(refs, dtype=np.int64)
        size = self.size
        coords = np.arange(size, dtype=np.int64)
        crds = np.tile(coords, len(refs))
        children = (refs[:, None] * size + coords).ravel()
        lens = np.empty(len(refs), dtype=np.int64)
        lens.fill(size)
        return crds, children, lens

    def locate_arrays(self, ref: int, coordinates: np.ndarray):
        """Vectorized :meth:`locate`: in-range coordinates always hit."""
        coordinates = np.asarray(coordinates, dtype=np.int64)
        hits = (coordinates >= 0) & (coordinates < self.size)
        return ref * self.size + coordinates, hits

    def fiber_size(self, ref: int) -> int:
        return self.size

    def total_coordinates(self) -> int:
        return self._num_fibers * self.size

    def memory_footprint(self) -> int:
        return 1  # just the dimension size

    def __repr__(self) -> str:
        return f"DenseLevel(size={self.size}, num_fibers={self._num_fibers})"
