"""Tensor tiling (paper section 4.1, Figure 9).

Tiling splits a fibertree level into multiple levels and reorders them to
produce fixed-size sub-tensors.  The outer levels hold *tile IDs* that a
SAM tile-sequencing graph coiterates (tile IDs are coordinates and the
values are references to tiles), while the inner levels are the tiles the
computation graph runs over.

:class:`TiledMatrix` captures exactly that split for matrices: a sparse
outer structure of nonempty (tile-row, tile-col) IDs held as parallel
arrays (one slot per nonempty tile), over a canonical CSR matrix from
which a tile that fits the accelerator's memory is cut on request.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


class TiledMatrix:
    """A sparse matrix split into fixed-size tiles with a sparse tile map.

    ``tile_rows``/``tile_cols``/``tile_nnzs``/``tile_nonempty_rows`` have
    one slot per nonempty tile, in order of first appearance in the
    row-major scan of the canonical entries (indices sorted, duplicates
    summed, explicit zeros kept) — hence grouped by ascending tile-row.
    ``entry_tile`` is each entry's slot; ``tiles`` maps tile ID -> slot.
    """

    def __init__(self, matrix, tile_size: int):
        from scipy import sparse

        if tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {tile_size}")
        matrix = sparse.csr_matrix(matrix)
        if not matrix.has_canonical_format:
            matrix = matrix.copy()  # the caller's arrays may be shared
            matrix.sum_duplicates()
        self.matrix = matrix
        self.shape = matrix.shape
        self.tile_size = tile_size
        self.grid = (
            -(-matrix.shape[0] // tile_size),
            -(-matrix.shape[1] // tile_size),
        )
        coo = matrix.tocoo()
        tile_row, tile_col = coo.row // tile_size, coo.col // tile_size
        flat = tile_row.astype(np.int64) * self.grid[1] + tile_col
        ids, first, inverse, counts = np.unique(
            flat, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.argsort(first)
        self.tile_rows = ids[order] // self.grid[1]
        self.tile_cols = ids[order] % self.grid[1]
        self.tile_nnzs = counts[order]
        self.entry_tile = np.argsort(order)[inverse]
        # Columns ascend inside a row, so each (row, tile) is one run of
        # entries; a tile's nonempty rows are the runs in it (at least one).
        starts = np.ones(len(flat), dtype=bool)
        starts[1:] = (coo.row[1:] != coo.row[:-1]) | (flat[1:] != flat[:-1])
        self.tile_nonempty_rows = np.bincount(self.entry_tile[starts])
        self.tiles: Dict[Tuple[int, int], int] = dict(
            zip(zip(self.tile_rows.tolist(), self.tile_cols.tolist()), range(len(ids)))
        )

    # -- queries -------------------------------------------------------------
    @property
    def num_nonempty_tiles(self) -> int:
        return len(self.tiles)

    def tile(self, row: int, col: int):
        """The CSR tile cut from the matrix, or ``None`` for an empty tile."""
        if (row, col) not in self.tiles:
            return None
        size = self.tile_size
        return self.matrix[row * size:(row + 1) * size, col * size:(col + 1) * size]

    def tile_nnz(self, row: int, col: int) -> int:
        slot = self.tiles.get((row, col))
        return 0 if slot is None else int(self.tile_nnzs[slot])

    def all_tile_bytes(self, value_bytes: int = 8, index_bytes: int = 4) -> np.ndarray:
        """Approximate DCSR storage footprint of every nonempty tile."""
        return (
            self.tile_nnzs * (value_bytes + index_bytes)
            + self.tile_nonempty_rows * 2 * index_bytes
        )

    def tile_bytes(self, row: int, col: int, value_bytes: int = 8, index_bytes: int = 4) -> int:
        """Approximate DCSR storage footprint of one tile."""
        slot = self.tiles.get((row, col))
        if slot is None:
            return 0
        return int(self.all_tile_bytes(value_bytes, index_bytes)[slot])

    def occupancy(self) -> float:
        """Fraction of grid tiles that are nonempty (tile-skipping leverage)."""
        total = self.grid[0] * self.grid[1]
        return self.num_nonempty_tiles / total if total else 0.0
