"""Tests for the Gamma-style parallelized SpM*SpM kernel."""

import numpy as np
import pytest

from repro.data.synthetic import random_sparse_matrix
from repro.kernels.gamma import gamma_spmm


@pytest.fixture
def operands():
    B = random_sparse_matrix(20, 14, 0.25, seed=0)
    C = random_sparse_matrix(14, 18, 0.25, seed=1)
    return B, C


class TestGammaCorrectness:
    @pytest.mark.parametrize("lanes", [1, 2, 3, 4, 8])
    def test_any_lane_count(self, operands, lanes, engine):
        B, C = operands
        result = gamma_spmm(B, C, lanes=lanes, backend=engine)
        assert np.allclose(result.output, B @ C)
        assert result.lanes == lanes

    def test_more_lanes_than_rows(self, operands, engine):
        B, C = operands
        result = gamma_spmm(B, C, lanes=64, backend=engine)
        assert np.allclose(result.output, B @ C)

    def test_empty_operands(self, engine):
        result = gamma_spmm(np.zeros((6, 6)), np.zeros((6, 6)), lanes=2, backend=engine)
        assert np.allclose(result.output, np.zeros((6, 6)))


class TestGammaScaling:
    def test_critical_path_shrinks_with_lanes(self, engine):
        B = random_sparse_matrix(48, 32, 0.2, seed=2)
        C = random_sparse_matrix(32, 40, 0.2, seed=3)
        single = gamma_spmm(B, C, lanes=1, backend=engine)
        quad = gamma_spmm(B, C, lanes=4, backend=engine)
        assert np.allclose(single.output, quad.output)
        assert quad.critical_path < single.critical_path / 2

    def test_matches_serial_compiler_output(self, engine):
        from repro.kernels.spmm import run_spmm

        B = random_sparse_matrix(16, 12, 0.3, seed=4)
        C = random_sparse_matrix(12, 14, 0.3, seed=5)
        serial = run_spmm(B, C, "ikj", backend=engine)
        parallel = gamma_spmm(B, C, lanes=4, backend=engine)
        assert np.allclose(serial.to_numpy(), parallel.output)
