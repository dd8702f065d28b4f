"""Section 6.1's functional-correctness sweep.

"In addition, we automatically lowered all graphs to our simulator and
checked for functional correctness on the set of all real and integer
SuiteSparse matrices and FROSTT tensors that fit into memory."

Offline substitution: the small Table 3 SuiteSparse stand-ins and
FROSTT-like clustered synthetic tensors (DESIGN.md §3).  Every Table 1
expression class runs against numpy on real-structure inputs.
"""

import numpy as np
import pytest

from repro.data import SMALL, generate
from repro.formats import FiberTensor
from repro.lang import compile_expression


def frostt_like_tensor(shape, nnz, seed=0):
    """Seeded higher-order sparse tensor in COO form, ``(coords, values)``,
    with FROSTT's clustered mode usage: each mode's coordinates are drawn
    Zipf-biased, so a few slices are dense and most are near-empty."""
    rng = np.random.default_rng(seed)
    coords = np.empty((nnz, len(shape)), dtype=np.int64)
    for mode, dim in enumerate(shape):
        coords[:, mode] = np.minimum(rng.zipf(1.4, size=nnz) - 1, dim - 1)
        rng.shuffle(coords[:, mode])
    return coords, rng.uniform(0.1, 1.0, size=nnz)


@pytest.fixture(scope="module", params=[spec.name for spec in SMALL])
def suitesparse_matrix(request):
    spec = next(s for s in SMALL if s.name == request.param)
    return generate(spec, seed=0).toarray()


class TestSuiteSparseSweep:
    """Matrix expressions over every small Table 3 stand-in."""

    def test_identity(self, suitesparse_matrix, engine):
        B = suitesparse_matrix
        res = compile_expression("X(i,j) = B(i,j)").run({"B": B}, backend=engine)
        assert np.allclose(res.to_numpy(), B)

    def test_spmv(self, suitesparse_matrix, engine):
        B = suitesparse_matrix
        rng = np.random.default_rng(1)
        c = (rng.random(B.shape[1]) < 0.5) * rng.random(B.shape[1])
        res = compile_expression("x(i) = B(i,j) * c(j)").run({"B": B, "c": c},
                                                             backend=engine)
        assert np.allclose(res.to_numpy(), B @ c)

    def test_spmm_gustavson(self, suitesparse_matrix, engine):
        B = suitesparse_matrix
        rng = np.random.default_rng(2)
        k = B.shape[1]
        C = (rng.random((k, 8)) < 0.3) * rng.random((k, 8))
        from repro.kernels.spmm import run_spmm

        assert np.allclose(run_spmm(B, C, "ikj", backend=engine).to_numpy(), B @ C)

    def test_mmadd(self, suitesparse_matrix, engine):
        B = suitesparse_matrix
        rng = np.random.default_rng(3)
        C = (rng.random(B.shape) < 0.2) * rng.random(B.shape)
        res = compile_expression("X(i,j) = B(i,j) + C(i,j)").run({"B": B, "C": C},
                                                                 backend=engine)
        assert np.allclose(res.to_numpy(), B + C)

    def test_residual(self, suitesparse_matrix, engine):
        B = suitesparse_matrix
        rng = np.random.default_rng(4)
        b = rng.random(B.shape[0])
        d = (rng.random(B.shape[1]) < 0.5) * rng.random(B.shape[1])
        res = compile_expression("x(i) = b(i) - C(i,j) * d(j)").run(
            {"b": b, "C": B, "d": d}, backend=engine
        )
        assert np.allclose(res.to_numpy(), b - B @ d)


class TestFrosttSweep:
    """Higher-order expressions over FROSTT-like clustered tensors."""

    @pytest.fixture(scope="class")
    def tensor3(self):
        shape = (12, 10, 8)
        coords, values = frostt_like_tensor(shape, 60, seed=0)
        dense = np.zeros(shape)
        for (i, j, k), v in zip(coords, values):
            dense[i, j, k] += v
        return dense

    def test_generator_properties(self):
        coords, values = frostt_like_tensor((20, 20, 20), 100, seed=1)
        assert coords.shape == (100, 3)
        assert (coords >= 0).all()
        assert (coords.max(axis=0) < 20).all()
        # Clustered usage: the most popular slice holds many entries.
        top = np.bincount(coords[:, 0]).max()
        assert top > 100 / 20

    def test_ttv(self, tensor3, engine):
        rng = np.random.default_rng(5)
        c = (rng.random(8) < 0.6) * rng.random(8)
        res = compile_expression("X(i,j) = B(i,j,k) * c(k)").run(
            {"B": tensor3, "c": c}, backend=engine
        )
        assert np.allclose(res.to_numpy(), tensor3 @ c)

    def test_ttm(self, tensor3, engine):
        rng = np.random.default_rng(6)
        C = (rng.random((6, 8)) < 0.4) * rng.random((6, 8))
        res = compile_expression("X(i,j,k) = B(i,j,l) * C(k,l)").run(
            {"B": tensor3, "C": C}, backend=engine
        )
        assert np.allclose(res.to_numpy(), np.einsum("ijl,kl->ijk", tensor3, C))

    def test_tensor_inner_product(self, tensor3, engine):
        coords, values = frostt_like_tensor((12, 10, 8), 50, seed=7)
        other = np.zeros((12, 10, 8))
        for (i, j, k), v in zip(coords, values):
            other[i, j, k] += v
        res = compile_expression("chi = B(i,j,k) * C(i,j,k)").run(
            {"B": tensor3, "C": other}, backend=engine
        )
        assert res.output == pytest.approx((tensor3 * other).sum())

    def test_mttkrp(self, tensor3, engine):
        rng = np.random.default_rng(8)
        C = (rng.random((7, 10)) < 0.4) * rng.random((7, 10))
        D = (rng.random((7, 8)) < 0.4) * rng.random((7, 8))
        res = compile_expression("X(i,j) = B(i,k,l) * C(j,k) * D(j,l)").run(
            {"B": tensor3, "C": C, "D": D}, backend=engine
        )
        assert np.allclose(
            res.to_numpy(), np.einsum("ikl,jk,jl->ij", tensor3, C, D)
        )

    def test_plus2(self, tensor3, engine):
        coords, values = frostt_like_tensor((12, 10, 8), 40, seed=9)
        other = np.zeros((12, 10, 8))
        for (i, j, k), v in zip(coords, values):
            other[i, j, k] += v
        res = compile_expression("X(i,j,k) = B(i,j,k) + C(i,j,k)").run(
            {"B": tensor3, "C": other}, backend=engine
        )
        assert np.allclose(res.to_numpy(), tensor3 + other)

    def test_fibertensor_from_coo(self):
        coords, values = frostt_like_tensor((9, 9, 9), 30, seed=10)
        tensor = FiberTensor.from_coords((9, 9, 9), coords.tolist(), values.tolist())
        dense = np.zeros((9, 9, 9))
        for (i, j, k), v in zip(coords, values):
            dense[i, j, k] += v
        assert np.allclose(tensor.to_numpy(), dense)
