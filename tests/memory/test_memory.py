"""Tests for tiling, the hierarchy models, and the ExTensor study."""

import numpy as np
import pytest
from scipy import sparse

from repro.data.synthetic import extensor_matrix
from repro.memory import (
    DramModel,
    ExTensorConfig,
    NBufferedPipeline,
    TiledMatrix,
    extensor_spmm_cycles,
)


class TestTiledMatrix:
    def test_tiles_partition_nonzeros(self):
        matrix = extensor_matrix(100, 50, seed=0)
        tiled = TiledMatrix(matrix, 32)
        assert sum(tiled.tile_nnz(*key) for key in tiled.tiles) == matrix.nnz
        assert sum(tiled.tile(*key).nnz for key in tiled.tiles) == matrix.nnz

    def test_tile_coordinates_local(self):
        dense = np.zeros((8, 8))
        dense[5, 6] = 1.0
        tiled = TiledMatrix(sparse.csr_matrix(dense), 4)
        tile = tiled.tile(1, 1)
        assert tile[1, 2] == 1.0

    def test_grid_and_occupancy(self):
        dense = np.zeros((8, 8))
        dense[0, 0] = 1.0
        tiled = TiledMatrix(sparse.csr_matrix(dense), 4)
        assert tiled.grid == (2, 2)
        assert tiled.num_nonempty_tiles == 1
        assert tiled.occupancy() == 0.25

    def test_edge_tiles_clipped(self):
        dense = np.ones((5, 5))
        tiled = TiledMatrix(sparse.csr_matrix(dense), 4)
        assert tiled.tile(1, 1).shape == (1, 1)

    def test_tile_bytes_zero_for_empty(self):
        tiled = TiledMatrix(sparse.csr_matrix((8, 8)), 4)
        assert tiled.tile_bytes(0, 0) == 0


class TestHierarchy:
    def test_dram_cycles(self):
        dram = DramModel(bytes_per_cycle=64.0)
        assert dram.load_cycles(640) == 10.0

    def test_single_buffer_serialises(self):
        pipe = NBufferedPipeline(stages=1)
        assert pipe.total_cycles([10, 10], [5, 5]) == 30

    def test_double_buffer_overlaps(self):
        pipe = NBufferedPipeline(stages=2)
        # fill(10) + max(10,5) + max(0,5) = 25
        assert pipe.total_cycles([10, 10], [5, 5]) == 25

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            NBufferedPipeline().total_cycles([1], [1, 2])

    def test_empty_schedule(self):
        assert NBufferedPipeline().total_cycles([], []) == 0.0


class TestExTensorModel:
    def test_result_fields(self):
        B = extensor_matrix(512, 400, seed=0)
        C = extensor_matrix(512, 400, seed=1)
        result = extensor_spmm_cycles(B, C)
        assert result.cycles > 0
        assert result.cycles >= result.sequencing_cycles
        assert result.nonempty_pairs > 0

    def test_empty_matrices(self):
        B = sparse.csr_matrix((256, 256))
        result = extensor_spmm_cycles(B, B)
        assert result.nonempty_pairs == 0
        assert result.cycles == 0

    def test_tile_skipping_reduces_pairs(self):
        # A block-diagonal B only pairs with matching C tile-rows.
        dense = np.kron(np.eye(4), np.ones((64, 64)))
        B = sparse.csr_matrix(dense)
        C = extensor_matrix(256, 500, seed=2)
        full = extensor_spmm_cycles(
            sparse.csr_matrix(np.ones((256, 256))), C
        )
        skipped = extensor_spmm_cycles(B, C)
        assert skipped.nonempty_pairs < full.nonempty_pairs

    def test_more_nnz_more_cycles(self):
        C = extensor_matrix(1024, 2000, seed=3)
        small = extensor_spmm_cycles(extensor_matrix(1024, 1000, seed=4), C)
        large = extensor_spmm_cycles(extensor_matrix(1024, 8000, seed=5), C)
        assert large.cycles > small.cycles

    def test_config_overrides(self):
        B = extensor_matrix(512, 500, seed=6)
        slow = extensor_spmm_cycles(
            B, B, ExTensorConfig(dram=DramModel(bytes_per_cycle=1.0), n_buffering=1)
        )
        fast = extensor_spmm_cycles(B, B)
        assert slow.cycles > fast.cycles
