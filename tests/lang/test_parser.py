"""Parser and AST tests."""

import pytest

from repro.lang import Access, ExpressionError, parse


class TestParser:
    def test_spmm(self):
        asg = parse("X(i,j) = B(i,k) * C(k,j)")
        assert asg.lhs == Access("X", ("i", "j"))
        assert len(asg.terms) == 1
        assert asg.terms[0].accesses == [Access("B", ("i", "k")), Access("C", ("k", "j"))]

    def test_scalar_output(self):
        asg = parse("chi = B(i,j) * C(i,j)")
        assert asg.lhs.is_scalar

    def test_signs(self):
        asg = parse("x(i) = b(i) - C(i,j) * d(j)")
        assert [t.sign for t in asg.terms] == [1, -1]

    def test_leading_minus(self):
        asg = parse("x(i) = -b(i) + c(i)")
        assert [t.sign for t in asg.terms] == [-1, 1]

    def test_named_scalars(self):
        asg = parse("x(i) = alpha * b(i)")
        assert Access("alpha", ()) in asg.terms[0].accesses

    def test_numeric_literal_folds_into_coefficient(self):
        asg = parse("x(i) = 2 * b(i) * 1.5")
        assert asg.terms[0].coefficient == 3.0
        assert len(asg.terms[0].accesses) == 1

    def test_three_operand_term(self):
        asg = parse("X(i,j) = B(i,j) * C(i,k) * D(j,k)")
        assert len(asg.terms[0].accesses) == 3

    def test_all_vars_order(self):
        asg = parse("X(i,j) = B(i,k) * C(k,j)")
        assert asg.all_vars == ("i", "j", "k")

    def test_input_tensors(self):
        asg = parse("x(i) = b(i) + b(i)")
        assert asg.input_tensors == ("b",)

    def test_str_round_trip_parses(self):
        asg = parse("x(i) = alpha * B(j,i) * c(j) + beta * d(i)")
        assert parse(str(asg)).all_vars == asg.all_vars


class TestParserErrors:
    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse("x(i) = b(i) )")

    def test_missing_equals(self):
        with pytest.raises(ExpressionError):
            parse("x(i) + b(i)")

    def test_unknown_character(self):
        with pytest.raises(ExpressionError):
            parse("x(i) = b(i) / c(i)")

    def test_lhs_var_missing_on_rhs(self):
        with pytest.raises(ExpressionError):
            parse("x(i) = b(j)")

    def test_repeated_access_var_rejected(self):
        with pytest.raises(ExpressionError):
            parse("x(i) = B(i,i)")

    def test_term_missing_lhs_var_rejected(self):
        # Dense broadcast of results is out of scope (documented).
        with pytest.raises(ExpressionError):
            parse("X(i,j) = B(i,j) + c(i)")

    def test_repeated_lhs_var_rejected(self):
        with pytest.raises(ExpressionError):
            parse("X(i,i) = B(i,j)")
