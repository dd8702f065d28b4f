"""Cross-module integration fuzzing: compiled SAM programs vs. numpy.

Covers format mixes, schedules, and extreme densities across a broad
expression set — the 'does the whole machine compose' test battery.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lang import compile_expression

from blockkit import ENGINES


def sp(rng, shape, density):
    return (rng.random(shape) < density) * rng.uniform(0.1, 1.0, size=shape)


FORMAT_MIXES_2D = [
    ["compressed", "compressed"],
    ["dense", "compressed"],
    ["dense", "dense"],
]


class TestFormatScheduleMatrix:
    """SpMV across every format mix for both operands."""

    @pytest.mark.parametrize(
        "b_fmt,c_fmt",
        list(itertools.product(FORMAT_MIXES_2D, [["compressed"], ["dense"]])),
    )
    def test_spmv_format_matrix(self, b_fmt, c_fmt, engine):
        rng = np.random.default_rng(hash((tuple(b_fmt), tuple(c_fmt))) % 1000)
        B, c = sp(rng, (7, 6), 0.35), sp(rng, 6, 0.5)
        prog = compile_expression(
            "x(i) = B(i,j) * c(j)", formats={"B": b_fmt, "c": c_fmt}
        )
        assert np.allclose(prog.run({"B": B, "c": c}, backend=engine).to_numpy(), B @ c)

    @pytest.mark.parametrize("fmt", FORMAT_MIXES_2D)
    def test_mmadd_format_matrix(self, fmt, engine):
        rng = np.random.default_rng(3)
        B, C = sp(rng, (6, 5), 0.4), sp(rng, (6, 5), 0.4)
        prog = compile_expression(
            "X(i,j) = B(i,j) + C(i,j)", formats={"B": fmt, "C": fmt}
        )
        assert np.allclose(prog.run({"B": B, "C": C}, backend=engine).to_numpy(), B + C)

    def test_mixed_formats_in_one_expression(self, engine):
        rng = np.random.default_rng(4)
        B = sp(rng, (6, 5), 0.4)
        C = sp(rng, (6, 5), 0.4)
        prog = compile_expression(
            "X(i,j) = B(i,j) * C(i,j)",
            formats={"B": ["dense", "dense"], "C": ["compressed", "compressed"]},
        )
        assert np.allclose(prog.run({"B": B, "C": C}, backend=engine).to_numpy(), B * C)


class TestDensityExtremes:
    @pytest.mark.parametrize("density", [0.0, 0.02, 1.0])
    @pytest.mark.parametrize(
        "expr,ref,shapes",
        [
            ("X(i,j) = B(i,j) * C(i,j)",
             lambda t: t["B"] * t["C"], {"B": (6, 4), "C": (6, 4)}),
            ("X(i,j) = B(i,j) * C(i,k) * D(j,k)",
             lambda t: t["B"] * (t["C"] @ t["D"].T),
             {"B": (5, 6), "C": (5, 3), "D": (6, 3)}),
            ("x(i) = b(i) - C(i,j) * d(j)",
             lambda t: t["b"] - t["C"] @ t["d"],
             {"b": (6,), "C": (6, 4), "d": (4,)}),
        ],
    )
    def test_density_sweep(self, density, expr, ref, shapes, engine):
        rng = np.random.default_rng(int(density * 100))
        tensors = {k: sp(rng, s, density) for k, s in shapes.items()}
        result = compile_expression(expr).run(tensors, backend=engine)
        assert np.allclose(result.to_numpy(), ref(tensors))


class TestSingleElementAndDegenerate:
    def test_one_by_one(self, engine):
        from repro.kernels.spmm import run_spmm

        out = run_spmm(np.array([[2.0]]), np.array([[3.0]]), "ikj", backend=engine)
        assert np.allclose(out.to_numpy(), [[6.0]])

    def test_single_row_column(self, engine):
        from repro.kernels.spmm import run_spmm

        rng = np.random.default_rng(0)
        B, C = rng.random((1, 5)), rng.random((5, 1))
        assert np.allclose(run_spmm(B, C, "ikj", backend=engine).to_numpy(), B @ C)

    def test_identity_matrices(self, engine):
        from repro.kernels.spmm import run_spmm

        eye = np.eye(6)
        assert np.allclose(run_spmm(eye, eye, "ikj", backend=engine).to_numpy(), eye)

    def test_alphabetical_spmm_needs_compatible_storage(self):
        # The default alphabetical i,j,k order needs C column-major; the
        # compiler rejects the incompatible default storage explicitly.
        from repro.lang import LoweringError

        with pytest.raises(LoweringError):
            compile_expression("X(i,j) = B(i,k) * C(k,j)")

    def test_expression_reuse_across_inputs(self, engine):
        # One compiled program, many bindings (the LLVM-for-dataflow use).
        prog = compile_expression("x(i) = B(i,j) * c(j)")
        rng = np.random.default_rng(1)
        for _ in range(4):
            B, c = sp(rng, (5, 4), 0.5), sp(rng, 4, 0.5)
            assert np.allclose(prog.run({"B": B, "c": c},
                                        backend=engine).to_numpy(), B @ c)


@pytest.mark.parametrize("engine", ENGINES)
@given(
    seed=st.integers(0, 10_000),
    order=st.sampled_from(["ijk", "ikj", "kij", "jki"]),
    density=st.sampled_from([0.05, 0.3, 0.9]),
)
def test_property_spmm_orders_fuzz(seed, order, density, engine):
    from repro.kernels.spmm import run_spmm

    rng = np.random.default_rng(seed)
    B = sp(rng, (6, 5), density)
    C = sp(rng, (5, 7), density)
    assert np.allclose(run_spmm(B, C, order, backend=engine).to_numpy(), B @ C)


@pytest.mark.parametrize("engine", ENGINES)
@given(seed=st.integers(0, 10_000), lanes=st.integers(1, 6))
def test_property_gamma_lanes_fuzz(seed, lanes, engine):
    from repro.kernels.gamma import gamma_spmm

    rng = np.random.default_rng(seed)
    B = sp(rng, (8, 6), 0.3)
    C = sp(rng, (6, 9), 0.3)
    assert np.allclose(gamma_spmm(B, C, lanes=lanes, backend=engine).output, B @ C)


@pytest.mark.parametrize("engine", ENGINES)
@given(seed=st.integers(0, 10_000), tile=st.sampled_from([3, 4, 8]))
def test_property_tiled_spmm_fuzz(seed, tile, engine):
    from repro.memory import tiled_spmm

    rng = np.random.default_rng(seed)
    B = sp(rng, (10, 9), 0.25)
    C = sp(rng, (9, 11), 0.25)
    assert np.allclose(tiled_spmm(B, C, tile_size=tile, backend=engine).output, B @ C)
