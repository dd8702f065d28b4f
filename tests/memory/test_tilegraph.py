"""Tests for the Figure 9 tile-sequencing graph and tiled SpM*SpM."""

import numpy as np
import pytest

from repro.data.synthetic import random_sparse_matrix
from repro.memory import DramModel, TiledMatrix, sequence_tile_pairs, tiled_spmm

class TestSequencing:
    def test_pairs_cover_exactly_the_nonempty_products(self, engine):
        B = random_sparse_matrix(16, 16, 0.2, seed=0)
        C = random_sparse_matrix(16, 16, 0.2, seed=1)
        tb, tc = TiledMatrix(B, 4), TiledMatrix(C, 4)
        pairs, cycles = sequence_tile_pairs(tb, tc, engine)
        expected = {
            ((i, k), (k2, j))
            for (i, k) in tb.tiles
            for (k2, j) in tc.tiles
            if k == k2
        }
        assert set(pairs) == expected
        assert len(pairs) == len(expected)  # no duplicates
        assert cycles > 0

    def test_sparse_tile_skipping(self, engine):
        # Disjoint tile structure: no pairs sequenced at all.
        B = np.zeros((8, 8))
        C = np.zeros((8, 8))
        B[0, 0] = 1.0   # B tile (0, 0)
        C[7, 7] = 1.0   # C tile (1, 1) - contracted tiles never match
        pairs, _ = sequence_tile_pairs(TiledMatrix(B, 4), TiledMatrix(C, 4), engine)
        assert pairs == []


class TestTiledSpMM:
    @pytest.mark.parametrize("tile_size", [4, 8, 16])
    def test_matches_reference(self, tile_size, engine):
        B = random_sparse_matrix(16, 16, 0.2, seed=2)
        C = random_sparse_matrix(16, 16, 0.2, seed=3)
        result = tiled_spmm(B, C, tile_size=tile_size, backend=engine)
        assert np.allclose(result.output, B @ C)

    def test_non_divisible_dimensions(self, engine):
        B = random_sparse_matrix(13, 11, 0.3, seed=4)
        C = random_sparse_matrix(11, 15, 0.3, seed=5)
        result = tiled_spmm(B, C, tile_size=4, backend=engine)
        assert np.allclose(result.output, B @ C)

    def test_cycle_accounting(self, engine):
        B = random_sparse_matrix(16, 16, 0.25, seed=6)
        C = random_sparse_matrix(16, 16, 0.25, seed=7)
        result = tiled_spmm(B, C, tile_size=8, backend=engine)
        assert result.total_cycles >= result.sequencing_cycles
        assert result.compute_cycles > 0
        assert result.dram_cycles > 0

    def test_memory_config_tradeoff(self, engine):
        # Slower DRAM makes loads dominate the overlapped pipeline.
        B = random_sparse_matrix(16, 16, 0.3, seed=8)
        C = random_sparse_matrix(16, 16, 0.3, seed=9)
        fast = tiled_spmm(B, C, tile_size=8, backend=engine)
        slow = tiled_spmm(B, C, tile_size=8, dram=DramModel(bytes_per_cycle=0.5),
                          backend=engine)
        assert slow.total_cycles > fast.total_cycles

    def test_smaller_tiles_more_sequencing(self, engine):
        B = random_sparse_matrix(24, 24, 0.2, seed=10)
        C = random_sparse_matrix(24, 24, 0.2, seed=11)
        coarse = tiled_spmm(B, C, tile_size=12, backend=engine)
        fine = tiled_spmm(B, C, tile_size=4, backend=engine)
        assert np.allclose(coarse.output, fine.output)
        assert len(fine.pairs) > len(coarse.pairs)
