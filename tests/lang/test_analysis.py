"""Unit tests for the Table 1/2 analysis machinery."""

import pytest

from repro.lang import (
    TABLE1_COLUMNS,
    TABLE2_SCENARIOS,
    compile_expression,
    expression_features,
    lost_without,
    primitive_row,
)


@pytest.fixture(scope="module")
def spmv():
    return compile_expression("x(i) = B(i,j) * c(j)")


@pytest.fixture(scope="module")
def mmadd():
    return compile_expression("X(i,j) = B(i,j) + C(i,j)")


@pytest.fixture(scope="module")
def identity():
    return compile_expression("X(i,j) = B(i,j)")


class TestFeatures:
    def test_spmv_features(self, spmv):
        feats = expression_features(spmv)
        assert feats.out_order == 1
        assert feats.input_orders == (1, 2)
        assert feats.num_inputs == 2
        assert feats.reduce_order == 0
        assert feats.broadcast is True
        assert feats.ops == ("*",)

    def test_mmadd_features(self, mmadd):
        feats = expression_features(mmadd)
        assert feats.reduce_order == -1  # no reduction
        assert feats.broadcast is False
        assert feats.ops == ("+",)

    def test_identity_features(self, identity):
        feats = expression_features(identity)
        assert feats.ops == ()
        assert feats.num_inputs == 1


class TestPrimitiveRow:
    def test_zero_filled_columns(self, identity):
        row = primitive_row(identity)
        assert set(row) == set(TABLE1_COLUMNS)
        assert row["intersect"] == 0
        assert row["level_scanner"] == 2


class TestLostWithout:
    def test_every_scenario_returns_bool(self, spmv):
        for scenario in TABLE2_SCENARIOS:
            assert isinstance(lost_without(spmv, scenario), bool)

    def test_unknown_scenario_rejected(self, spmv):
        with pytest.raises(ValueError):
            lost_without(spmv, "bogus")

    def test_spmv_needs_core_primitives(self, spmv):
        assert lost_without(spmv, "comp_level_scanner")
        assert lost_without(spmv, "multiplier")
        assert lost_without(spmv, "reducer")
        assert lost_without(spmv, "repeater")
        assert not lost_without(spmv, "unioner")
        assert not lost_without(spmv, "adder")

    def test_mmadd_needs_union_not_mul(self, mmadd):
        assert lost_without(mmadd, "unioner")
        assert lost_without(mmadd, "adder")
        assert not lost_without(mmadd, "multiplier")
        assert not lost_without(mmadd, "reducer")

    def test_identity_needs_almost_nothing(self, identity):
        assert not lost_without(identity, "repeater")
        assert not lost_without(identity, "intersecter_with_locator_removed")
        assert lost_without(identity, "comp_and_uncomp_level_scanners")

    def test_locator_substitution_depends_on_dense_side(self):
        sparse = compile_expression("x(i) = b(i) * c(i)")
        dense_side = compile_expression(
            "x(i) = b(i) * c(i)", formats={"c": ["dense"]}
        )
        # Compressed-compressed coiteration still needs the intersecter...
        assert lost_without(sparse, "intersecter_keep_locator")
        # ...but a dense probe side can be located into.
        assert not lost_without(dense_side, "intersecter_keep_locator")

    def test_dropper_needed_for_mixed_expressions(self):
        residual = compile_expression("x(i) = b(i) - C(i,j) * d(j)")
        assert lost_without(residual, "coordinate_dropper")
        spmm = compile_expression(
            "X(i,j) = B(i,k) * C(k,j)", schedule=("i", "k", "j")
        )
        # Pure contractions survive with zero-accumulating reducers.
        assert not lost_without(spmm, "coordinate_dropper")

    def test_output_format_argument_honoured(self, identity):
        assert lost_without(identity, "comp_level_writer")  # none declared
        dense, compressed = ("dense", "dense"), ("compressed", "compressed")
        assert not lost_without(identity, "comp_level_writer", dense)
        assert lost_without(identity, "comp_level_writer", compressed)
        assert not lost_without(identity, "comp_level_writer", ())
