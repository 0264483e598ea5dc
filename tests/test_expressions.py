"""Tests for the expression grammar, evaluator, and pretty-printer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyfix.expressions import (
    BinOp,
    Call,
    Cmp,
    ExpressionError,
    Num,
    Var,
    evaluate,
    free_variables,
    parse_expression,
    pretty,
)


class TestParsing:
    def test_exponential_form(self):
        tree = parse_expression("exp(0 - x / t)")
        assert evaluate(tree, {"x": 2.0, "t": 4.0}) == pytest.approx(math.exp(-0.5))

    def test_piecewise_node(self):
        tree = parse_expression("piecewise(x <= 1, x^2, 1)")
        assert isinstance(tree, Call) and tree.name == "piecewise"
        assert isinstance(tree.args[0], Cmp)
        assert evaluate(tree, {"x": 0.5}) == 0.25
        assert evaluate(tree, {"x": 3.0}) == 1.0

    def test_double_caret_is_error_at_column_five(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("x ^ ^ 2")
        assert exc.value.line == 1
        assert exc.value.column == 5

    def test_precedence(self):
        tree = parse_expression("1 + 2 * 3 ^ 2")
        assert evaluate(tree, {}) == 19.0

    def test_power_right_associative(self):
        assert evaluate(parse_expression("2 ^ 3 ^ 2"), {}) == 512.0

    def test_division_left_associative(self):
        assert evaluate(parse_expression("8 / 4 / 2"), {}) == 1.0

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="unknown identifier 'y'"):
            parse_expression("y + 1")

    def test_arity_mismatch(self):
        with pytest.raises(ExpressionError, match="exp takes 1"):
            parse_expression("exp(1, 2)")
        with pytest.raises(ExpressionError, match="min takes at least 2"):
            parse_expression("min(1)")

    def test_comparison_outside_piecewise_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("x < 1")

    def test_piecewise_needs_comparison_head(self):
        with pytest.raises(ExpressionError, match="must be a comparison"):
            parse_expression("piecewise(x, 1, 2)")

    def test_builtin_without_arguments(self):
        with pytest.raises(ExpressionError, match="needs arguments"):
            parse_expression("exp + 1")

    def test_scientific_notation(self):
        assert evaluate(parse_expression("1e-3 + 2.5E2"), {}) == pytest.approx(250.001)

    def test_free_variables(self):
        tree = parse_expression("min(tau, s) + x * t")
        assert free_variables(tree) == {"tau", "s", "x", "t"}


class TestEvaluation:
    def test_min_max_variadic(self):
        assert evaluate(parse_expression("min(3, 1, 2)"), {}) == 1.0
        assert evaluate(parse_expression("max(3, 1, 2)"), {}) == 3.0

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError, match="division by zero"):
            evaluate(parse_expression("1 / x"), {"x": 0.0})

    def test_ln_domain(self):
        with pytest.raises(ExpressionError, match="ln of nonpositive"):
            evaluate(parse_expression("ln(x)"), {"x": -1.0})

    def test_exp_overflow(self):
        with pytest.raises(ExpressionError, match="exp of 1000.0 overflows"):
            evaluate(parse_expression("exp(x)"), {"x": 1000.0})

    def test_unselected_branch_not_evaluated(self):
        tree = parse_expression("piecewise(x > 0, ln(x), 0)")
        assert evaluate(tree, {"x": -5.0}) == 0.0

    def test_unbound_variable(self):
        with pytest.raises(ExpressionError, match="not bound"):
            evaluate(parse_expression("x + 1"), {})

    def test_abs(self):
        assert evaluate(parse_expression("abs(0 - 3)"), {}) == 3.0


class TestPretty:
    CASES = [
        "exp(0 - x / t)",
        "piecewise(x <= 1, x^2, 1)",
        "1 + 2 * 3 ^ 2 ^ x",
        "min(tau, s, 0.5) + max(1, 2)",
        "piecewise(x * 2 >= t + 1, abs(x), ln(t))",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_roundtrip_is_identity_on_trees(self, src):
        tree = parse_expression(src)
        assert parse_expression(pretty(tree)) == tree

    def test_spans_ignored_in_equality(self):
        a = parse_expression("x + 1")
        b = parse_expression("x    + 1")
        assert a == b


@given(st.floats(min_value=-100, max_value=100, allow_nan=False),
       st.floats(min_value=0.1, max_value=100, allow_nan=False))
@settings(max_examples=60, derandomize=True)
def test_arithmetic_matches_python(x, t):
    tree = parse_expression("x * t + x / t - t ^ 2")
    assert evaluate(tree, {"x": x, "t": t}) == pytest.approx(
        x * t + x / t - t ** 2, rel=1e-12, abs=1e-9)
