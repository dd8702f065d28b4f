"""Uncompressed (dense) level format.

An uncompressed level "stores a single number encoding the fiber size"
(paper section 3.1): every fiber implicitly contains all coordinates
``0..size-1`` and child references are computed as ``ref * size + crd``.
"""

from __future__ import annotations

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

    def fiber_arrays(self, refs: np.ndarray):
        """Every fiber holds the coordinates 0..size-1; fiber *ref*'s
        children are ``ref * size + crd``."""
        refs = np.asarray(refs, dtype=np.int64)
        size = self.size
        coords = np.arange(size, dtype=np.int64)
        crds = np.tile(coords, len(refs))
        children = (refs[:, None] * size + coords).ravel()
        return crds, children, self.fiber_lens(refs)

    def fiber_lens(self, refs: np.ndarray) -> np.ndarray:
        """The pair counts of the fibers at *refs*: each is ``size``."""
        lens = np.empty(len(refs), dtype=np.int64)
        lens.fill(self.size)
        return lens

    def locate_arrays(self, ref: int, coordinates: np.ndarray):
        """In-range coordinates always hit: no search."""
        coordinates = np.asarray(coordinates, dtype=np.int64)
        hits = (coordinates >= 0) & (coordinates < self.size)
        return ref * self.size + coordinates, hits

    def __repr__(self) -> str:
        return f"DenseLevel(size={self.size}, num_fibers={self._num_fibers})"
