"""Integration tests for the curated kernels."""

import numpy as np
import pytest

from repro.data.synthetic import random_sparse_matrix, urandom_vector
from repro.kernels import (
    CONFIGS,
    ORDERS,
    outerspace_spmm,
    run_spmm,
    sddmm_fused_coiter,
    sddmm_fused_locate,
    sddmm_reference,
    sddmm_unfused,
    spmv_locate,
    spmv_program,
    vecmul,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestVecMul:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_all_configs_correct(self, config, engine):
        b = urandom_vector(128, 30, seed=0)
        c = urandom_vector(128, 30, seed=1)
        result = vecmul(config, b, c, split=8, bits_per_word=16, backend=engine)
        assert result.check_against(b, c)
        assert result.cycles > 0

    def test_disjoint_vectors(self, engine):
        b = np.zeros(64)
        c = np.zeros(64)
        b[::2] = 1.0
        c[1::2] = 1.0
        for config in CONFIGS:
            result = vecmul(config, b, c, split=8, bits_per_word=16, backend=engine)
            assert result.check_against(b, c), config

    def test_dense_config_cycles_track_dimension(self, engine):
        b = urandom_vector(128, 5, seed=0)
        c = urandom_vector(128, 5, seed=1)
        dense = vecmul("dense", b, c, backend=engine)
        crd = vecmul("crd", b, c, backend=engine)
        assert dense.cycles > 3 * crd.cycles

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            vecmul("bogus", np.zeros(4), np.zeros(4))

    def test_split_must_divide(self):
        with pytest.raises(ValueError):
            vecmul("crd_split", np.zeros(10), np.zeros(10), split=3)


class TestSpMM:
    @pytest.mark.parametrize("order", ORDERS)
    def test_orders(self, order, engine):
        B = random_sparse_matrix(12, 9, 0.3, seed=0)
        C = random_sparse_matrix(9, 11, 0.3, seed=1)
        assert np.allclose(run_spmm(B, C, order, backend=engine).to_numpy(), B @ C)

    def test_unknown_order_rejected(self):
        from repro.kernels.spmm import spmm_program

        with pytest.raises(ValueError):
            spmm_program("abc")


class TestSpMV:
    def test_locate_variant(self, rng, engine):
        B = random_sparse_matrix(10, 8, 0.3, seed=2)
        c = rng.random(8)
        coords, vals, cycles = spmv_locate(B, c, backend=engine)
        x = np.zeros(10)
        x[coords] = vals
        assert np.allclose(x, B @ c)
        assert cycles > 0

    def test_locate_accepts_prebuilt_fibertensor(self, rng, engine):
        from repro.formats import FiberTensor

        B = random_sparse_matrix(10, 8, 0.3, seed=2)
        c = rng.random(8)
        bt = FiberTensor.from_numpy(B, name="B")
        coords, vals, _ = spmv_locate(bt, c, backend=engine)
        x = np.zeros(10)
        x[coords] = vals
        assert np.allclose(x, B @ c)

    def test_locate_rejects_mismatched_operands(self, rng):
        import pytest

        from repro.formats import FiberTensor

        cube = FiberTensor.from_numpy(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="order"):
            spmv_locate(cube, rng.random(2))
        B = FiberTensor.from_numpy(np.ones((2, 3)))
        with pytest.raises(ValueError, match="column dimension"):
            spmv_locate(B, rng.random(2))
        # Transposed storage would silently compute B.T @ c.
        square = FiberTensor.from_numpy(np.ones((3, 3)), mode_order=(1, 0))
        with pytest.raises(ValueError, match="mode_order"):
            spmv_locate(square, rng.random(3))

    def test_locate_cheaper_than_coiterating_dense_vector(self, rng, engine):
        B = random_sparse_matrix(24, 64, 0.03, seed=3)
        c = rng.random(64)
        _, _, locate_cycles = spmv_locate(B, c, backend=engine)
        coiter = spmv_program().run({"B": B, "c": c}, backend=engine)
        assert locate_cycles < coiter.cycles


class TestSDDMM:
    def test_three_variants_agree(self, rng, engine):
        B = random_sparse_matrix(10, 12, 0.1, seed=4)
        C = rng.random((10, 5))
        D = rng.random((12, 5))
        reference = sddmm_reference(B, C, D)
        for fn in (sddmm_unfused, sddmm_fused_coiter, sddmm_fused_locate):
            assert np.allclose(fn(B, C, D, backend=engine).output, reference)

    @pytest.mark.parametrize(
        "fn", [sddmm_unfused, sddmm_fused_coiter, sddmm_fused_locate]
    )
    def test_transposed_d_rejected(self, fn, rng):
        # D is J x K; passed as K x J the first two variants used to
        # "work" and the third died mid-run with a BlockError.
        B = random_sparse_matrix(10, 12, 0.1, seed=4)
        C, D = rng.random((10, 5)), rng.random((5, 12))
        with pytest.raises(ValueError) as err:
            fn(B, C, D)
        message = str(err.value)
        assert all(part in message for part in ("'j'", "B", "D", "12", "5"))

    def test_fusion_saves_cycles(self, rng, engine):
        B = random_sparse_matrix(16, 16, 0.05, seed=5)
        C = rng.random((16, 4))
        D = rng.random((16, 4))
        unfused = sddmm_unfused(B, C, D, backend=engine).cycles
        assert sddmm_fused_coiter(B, C, D, backend=engine).cycles < unfused
        assert sddmm_fused_locate(B, C, D, backend=engine).cycles < unfused


class TestOuterSpace:
    def test_matches_reference(self, engine):
        B = random_sparse_matrix(9, 7, 0.25, seed=6)
        C = random_sparse_matrix(7, 8, 0.25, seed=7)
        result = outerspace_spmm(B, C, backend=engine)
        assert np.allclose(result.output, B @ C)
        assert result.multiply_cycles > 0 and result.merge_cycles > 0

    def test_empty_operands(self, engine):
        result = outerspace_spmm(np.zeros((4, 4)), np.zeros((4, 4)), backend=engine)
        assert np.allclose(result.output, np.zeros((4, 4)))

    def test_dense_operands(self, rng, engine):
        B = rng.random((5, 5))
        C = rng.random((5, 5))
        assert np.allclose(outerspace_spmm(B, C, backend=engine).output, B @ C)
