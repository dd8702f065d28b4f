"""End-to-end compiler correctness: every Table 1 expression, plus
property-based random-data fuzzing against numpy references."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lang import LoweringError, compile_expression

from blockkit import ENGINES


def sp(rng, shape, density=0.4):
    return (rng.random(shape) < density) * rng.uniform(0.1, 1.0, size=shape)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


#: numeric literals, the only route to a ScalarALU: each expression and
#: its numpy reference, spelled in the same order of operations
COEFFICIENTS = [
    ("x(i) = 2 * b(i) * 1.5", lambda b, c: 2 * b * 1.5),
    ("x(i) = -b(i) + c(i)", lambda b, c: -b + c),
    ("x(i) = b(i) - 0.5 * c(i)", lambda b, c: b - 0.5 * c),
]


@pytest.mark.parametrize("expression, reference", COEFFICIENTS,
                         ids=["scaled", "negated", "scaled-difference"])
def test_numeric_coefficients_run_end_to_end(expression, reference, rng, engine):
    b = sp(rng, 12) * rng.choice([-1.0, 1.0], size=12)
    c = sp(rng, 12) * rng.choice([-1.0, 1.0], size=12)
    program = compile_expression(expression)
    assert any(node.kind == "alu" and "const" in node.params
               for node in program.graph.nodes.values())
    operands = {"b": b, "c": c} if "c(i)" in expression else {"b": b}
    got = program.run(operands, backend=engine)
    assert np.array_equal(got.to_numpy(), reference(b, c))
    assert got.cycles == program.run(operands, backend="cycle").cycles


class TestTable1Numerics:
    def test_spmv(self, rng, engine):
        B, c = sp(rng, (8, 6)), sp(rng, 6)
        res = compile_expression("x(i) = B(i,j) * c(j)").run({"B": B, "c": c},
                                                             backend=engine)
        assert np.allclose(res.to_numpy(), B @ c)

    @pytest.mark.parametrize("order", ["ijk", "jik", "ikj", "jki", "kij", "kji"])
    def test_spmm_all_orders(self, rng, order, engine):
        from repro.kernels.spmm import run_spmm

        B, C = sp(rng, (7, 5)), sp(rng, (5, 6))
        assert np.allclose(run_spmm(B, C, order, backend=engine).to_numpy(), B @ C)

    def test_sddmm(self, rng, engine):
        B, C, D = sp(rng, (6, 7)), sp(rng, (6, 3)), sp(rng, (7, 3))
        res = compile_expression("X(i,j) = B(i,j) * C(i,k) * D(j,k)").run(
            {"B": B, "C": C, "D": D}, backend=engine
        )
        assert np.allclose(res.to_numpy(), B * (C @ D.T))

    def test_inner_product_scalar(self, rng, engine):
        B, C = sp(rng, (4, 3, 5)), sp(rng, (4, 3, 5))
        res = compile_expression("chi = B(i,j,k) * C(i,j,k)").run({"B": B, "C": C},
                                                                  backend=engine)
        assert res.output == pytest.approx((B * C).sum())

    def test_ttv(self, rng, engine):
        B, c = sp(rng, (4, 5, 3)), sp(rng, 3)
        res = compile_expression("X(i,j) = B(i,j,k) * c(k)").run({"B": B, "c": c},
                                                                 backend=engine)
        assert np.allclose(res.to_numpy(), B @ c)

    def test_ttm(self, rng, engine):
        B, C = sp(rng, (4, 5, 3)), sp(rng, (6, 3))
        res = compile_expression("X(i,j,k) = B(i,j,l) * C(k,l)").run({"B": B, "C": C},
                                                                     backend=engine)
        assert np.allclose(res.to_numpy(), np.einsum("ijl,kl->ijk", B, C))

    def test_mttkrp(self, rng, engine):
        B, C, D = sp(rng, (5, 4, 3)), sp(rng, (6, 4)), sp(rng, (6, 3))
        res = compile_expression("X(i,j) = B(i,k,l) * C(j,k) * D(j,l)").run(
            {"B": B, "C": C, "D": D}, backend=engine
        )
        assert np.allclose(res.to_numpy(), np.einsum("ikl,jk,jl->ij", B, C, D))

    def test_residual(self, rng, engine):
        b, C, d = sp(rng, 7), sp(rng, (7, 5)), sp(rng, 5)
        res = compile_expression("x(i) = b(i) - C(i,j) * d(j)").run(
            {"b": b, "C": C, "d": d}, backend=engine
        )
        assert np.allclose(res.to_numpy(), b - C @ d)

    def test_mat_trans_mul(self, rng, engine):
        B, c, d = sp(rng, (5, 7)), sp(rng, 5), sp(rng, 7)
        res = compile_expression(
            "x(i) = alpha * B(j,i) * c(j) + beta * d(i)", schedule=("j", "i")
        ).run({"B": B, "c": c, "d": d, "alpha": 2.0, "beta": 3.0}, backend=engine)
        assert np.allclose(res.to_numpy(), 2.0 * (B.T @ c) + 3.0 * d)

    def test_mmadd_and_plus3(self, rng, engine):
        B, C, D = sp(rng, (6, 5)), sp(rng, (6, 5)), sp(rng, (6, 5))
        res2 = compile_expression("X(i,j) = B(i,j) + C(i,j)").run({"B": B, "C": C},
                                                                  backend=engine)
        assert np.allclose(res2.to_numpy(), B + C)
        res3 = compile_expression("X(i,j) = B(i,j) + C(i,j) + D(i,j)").run(
            {"B": B, "C": C, "D": D}, backend=engine
        )
        assert np.allclose(res3.to_numpy(), B + C + D)

    def test_plus2_3d(self, rng, engine):
        B, C = sp(rng, (3, 4, 5)), sp(rng, (3, 4, 5))
        res = compile_expression("X(i,j,k) = B(i,j,k) + C(i,j,k)").run(
            {"B": B, "C": C}, backend=engine
        )
        assert np.allclose(res.to_numpy(), B + C)


class TestFormatsAndSchedules:
    def test_dense_operand(self, rng, engine):
        B, c = sp(rng, (6, 4)), rng.random(4)
        res = compile_expression(
            "x(i) = B(i,j) * c(j)", formats={"c": ["dense"]}
        ).run({"B": B, "c": c}, backend=engine)
        assert np.allclose(res.to_numpy(), B @ c)

    def test_csr_operand(self, rng, engine):
        B, C = sp(rng, (5, 5)), sp(rng, (5, 5))
        res = compile_expression(
            "X(i,j) = B(i,j) * C(i,j)",
            formats={"B": ["dense", "compressed"], "C": ["dense", "compressed"]},
        ).run({"B": B, "C": C}, backend=engine)
        assert np.allclose(res.to_numpy(), B * C)

    def test_incompatible_storage_order_rejected(self):
        with pytest.raises(LoweringError):
            compile_expression(
                "X(i,j) = B(i,k) * C(k,j)",
                formats={"B": (["compressed", "compressed"], (1, 0))},
                schedule=("i", "k", "j"),
            )

    def test_transposed_result(self, rng, engine):
        # Writing the result j-major still yields the logical matrix.
        B, C = sp(rng, (5, 4)), sp(rng, (4, 6))
        from repro.kernels.spmm import run_spmm

        assert np.allclose(run_spmm(B, C, "jki", backend=engine).to_numpy(), B @ C)

    def test_empty_inputs(self, engine):
        B = np.zeros((4, 3))
        c = np.zeros(3)
        res = compile_expression("x(i) = B(i,j) * c(j)").run({"B": B, "c": c},
                                                             backend=engine)
        assert np.allclose(res.to_numpy(), np.zeros(4))

    def test_unsupported_multi_vector_reduction_rejected(self):
        # Two reductions that would each need a vector workspace.
        with pytest.raises(LoweringError):
            compile_expression("x(i) = B(j,k,i)", schedule=("j", "k", "i"))

    def test_missing_input_rejected(self, rng):
        prog = compile_expression("x(i) = b(i)")
        from repro.lang import ExpressionError

        with pytest.raises(ExpressionError):
            prog.run({})

    def test_two_extents_for_one_index_rejected(self):
        # Used to return a length-30 vector, silently iterating 12 of
        # the 30 columns.
        from repro.lang import ExpressionError

        prog = compile_expression("x(i) = B(i,j) * c(j)")
        with pytest.raises(ExpressionError) as err:
            prog.run({"B": np.eye(30), "c": np.ones(12)})
        message = str(err.value)
        assert all(part in message for part in ("'j'", "'B'", "'c'", "30", "12"))

    def test_access_rank_mismatch_rejected(self):
        from repro.lang import ExpressionError

        prog = compile_expression("x(i) = B(i,j) * c(j)")
        with pytest.raises(ExpressionError, match=r"'c' has rank 2.*c\(j\)"):
            prog.run({"B": np.eye(4), "c": np.ones((4, 1))})


class TestRunResult:
    def test_cycles_positive_and_report(self, rng, engine):
        B, c = sp(rng, (4, 4)), sp(rng, 4)
        res = compile_expression("x(i) = B(i,j) * c(j)").run({"B": B, "c": c},
                                                             backend=engine)
        assert res.cycles > 0
        assert res.report.block_activity()

    def test_dot_export(self):
        prog = compile_expression("x(i) = b(i) * c(i)")
        assert "digraph" in prog.to_dot()


# -- property-based fuzzing against numpy ---------------------------------

EXPRESSIONS = [
    ("x(i) = B(i,j) * c(j)", lambda t: t["B"] @ t["c"],
     {"B": (6, 5), "c": (5,)}),
    ("X(i,j) = B(i,j) + C(i,j)", lambda t: t["B"] + t["C"],
     {"B": (5, 4), "C": (5, 4)}),
    ("X(i,j) = B(i,j) * C(i,j)", lambda t: t["B"] * t["C"],
     {"B": (5, 4), "C": (5, 4)}),
    ("x(i) = b(i) - C(i,j) * d(j)", lambda t: t["b"] - t["C"] @ t["d"],
     {"b": (6,), "C": (6, 4), "d": (4,)}),
    ("chi = b(i) * c(i)", lambda t: (t["b"] * t["c"]).sum(),
     {"b": (8,), "c": (8,)}),
]


@pytest.mark.parametrize("engine", ENGINES)
@given(
    case=st.sampled_from(EXPRESSIONS),
    seed=st.integers(0, 10_000),
    density=st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
)
def test_property_matches_numpy(case, seed, density, engine):
    expression, reference, shapes = case
    rng = np.random.default_rng(seed)
    tensors = {name: sp(rng, shape, density) for name, shape in shapes.items()}
    result = compile_expression(expression).run(tensors, backend=engine)
    assert np.allclose(result.to_numpy(), reference(tensors))
