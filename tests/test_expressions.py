"""Tests for the expression grammar, evaluator, and pretty-printer."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from fuzzyfix import contractions, expressions
from fuzzyfix.algebra import DomainError
from fuzzyfix.contractions import self_map
from fuzzyfix.expressions import (
    MAX_DEPTH,
    BinOp,
    Call,
    Cmp,
    ExpressionError,
    Num,
    Span,
    Var,
    evaluate,
    parse_expression,
    pretty,
)


class TestParsing:
    def test_exponential_form(self):
        tree = parse_expression("exp(0 - x / 4)")
        assert evaluate(tree, 2.0) == pytest.approx(math.exp(-0.5))

    def test_piecewise_node(self):
        tree = parse_expression("piecewise(x <= 1, x^2, 1)")
        assert isinstance(tree, Call) and tree.name == "piecewise"
        assert isinstance(tree.args[0], Cmp)
        assert evaluate(tree, 0.5) == 0.25
        assert evaluate(tree, 3.0) == 1.0

    def test_double_caret_is_error_at_column_five(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("x ^ ^ 2")
        assert exc.value.line == 1
        assert exc.value.column == 5

    def test_precedence(self):
        tree = parse_expression("1 + 2 * 3 ^ 2")
        assert evaluate(tree, 0.0) == 19.0

    def test_power_right_associative(self):
        assert evaluate(parse_expression("2 ^ 3 ^ 2"), 0.0) == 512.0

    def test_division_left_associative(self):
        assert evaluate(parse_expression("8 / 4 / 2"), 0.0) == 1.0

    @pytest.mark.parametrize("name", ["y", "t", "tau", "s"])
    def test_unknown_identifier(self, name):
        with pytest.raises(ExpressionError,
                           match=f"unknown identifier '{name}' .line 1, "
                                 "column 5."):
            parse_expression(f"x + {name} + 1")

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

    def test_unclosed_parenthesis(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("(x")
        assert str(exc.value) == ("expected ')', found 'end of input' "
                                  "(line 1, column 3)")

    def test_scientific_notation(self):
        assert evaluate(parse_expression("1e-3 + 2.5E2"), 0.0) == \
            pytest.approx(250.001)


class TestEvaluation:
    def test_min_max_variadic(self):
        assert evaluate(parse_expression("min(3, 1, 2)"), 0.0) == 1.0
        assert evaluate(parse_expression("max(3, 1, 2)"), 0.0) == 3.0

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError, match="division by zero"):
            evaluate(parse_expression("1 / x"), 0.0)

    def test_ln_domain(self):
        with pytest.raises(ExpressionError, match="ln of nonpositive"):
            evaluate(parse_expression("ln(x)"), -1.0)

    def test_exp_overflow(self):
        with pytest.raises(ExpressionError, match="exp of 1000.0 overflows"):
            evaluate(parse_expression("exp(x)"), 1000.0)

    def test_unselected_branch_not_evaluated(self):
        tree = parse_expression("piecewise(x > 0, ln(x), 0)")
        assert evaluate(tree, -5.0) == 0.0

    def test_abs(self):
        assert evaluate(parse_expression("abs(0 - 3)"), 0.0) == 3.0

    def test_power_with_no_real_value_is_an_error_at_the_caret(self):
        with pytest.raises(ExpressionError, match="power failed") as exc:
            evaluate(parse_expression("1 + x ^ 0.5"), -1.0)
        assert (exc.value.line, exc.value.column) == (1, 7)


class TestPretty:
    CASES = [
        "exp(0 - x / 4)",
        "piecewise(x <= 1, x^2, 1)",
        "1 + 2 * 3 ^ 2 ^ x",
        "min(x, 2 * x, 0.5) + max(1, 2)",
        "piecewise(x * 2 >= x ^ 2 + 1, abs(x), ln(x))",
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
    tree = parse_expression(f"x * {t!r} + x / {t!r} - {t!r} ^ 2")
    assert evaluate(tree, x) == pytest.approx(
        x * t + x / t - t ** 2, rel=1e-12, abs=1e-9)


def tree_walk(tree, x: float) -> float:
    """The tree-walking evaluator the compiled closures replace, kept as
    the reference they must match."""
    if isinstance(tree, Num):
        return tree.value
    if isinstance(tree, Var):
        return x
    if isinstance(tree, BinOp):
        left = tree_walk(tree.left, x)
        right = tree_walk(tree.right, x)
        if tree.op == "+":
            return left + right
        if tree.op == "-":
            return left - right
        if tree.op == "*":
            return left * right
        if tree.op == "/":
            if right == 0.0:
                raise ExpressionError("division by zero", tree.span.line,
                                      tree.span.column)
            return left / right
        try:
            return float(left ** right)
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise ExpressionError(f"power failed: {exc}", tree.span.line,
                                  tree.span.column) from None
    if isinstance(tree, Cmp):
        left = tree_walk(tree.left, x)
        right = tree_walk(tree.right, x)
        return {"<": left < right, "<=": left <= right, ">": left > right,
                ">=": left >= right, "==": left == right}[tree.op]
    if isinstance(tree, Call):
        if tree.name == "piecewise":
            cond = tree_walk(tree.args[0], x)
            return tree_walk(tree.args[1] if cond else tree.args[2], x)
        args = [tree_walk(a, x) for a in tree.args]
        if tree.name == "min":
            return min(args)
        if tree.name == "max":
            return max(args)
        if tree.name == "exp":
            try:
                return math.exp(args[0])
            except OverflowError:
                raise ExpressionError(f"exp of {args[0]!r} overflows",
                                      tree.span.line, tree.span.column) from None
        if tree.name == "abs":
            return abs(args[0])
        if tree.name == "ln":
            if args[0] <= 0.0:
                raise ExpressionError(f"ln of nonpositive value {args[0]!r}",
                                      tree.span.line, tree.span.column)
            return math.log(args[0])
    raise TypeError(f"not an expression node: {tree!r}")


def outcome(fn, tree, x):
    try:
        return "value", float.hex(fn(tree, x))
    except ExpressionError as exc:
        return "error", str(exc), exc.line, exc.column


VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 3.0,
                                    709.0, 710.0, 1e308, -1e308, 5e-324]),
                   st.floats())
SPANS = st.builds(Span, st.integers(1, 3), st.integers(1, 40))
LEAVES = st.one_of(st.builds(Num, VALUES, SPANS),
                   st.builds(Var, SPANS))


def _nodes(children):
    pair = st.tuples(children, children)
    return st.one_of(
        st.builds(lambda op, ab, sp: BinOp(op, *ab, sp),
                  st.sampled_from("+-*/^^"), pair, SPANS),
        st.builds(Call, st.sampled_from(["min", "max"]),
                  st.lists(children, min_size=2, max_size=4).map(tuple), SPANS),
        st.builds(lambda name, a, sp: Call(name, (a,), sp),
                  st.sampled_from(["exp", "ln", "abs"]), children, SPANS),
        st.builds(lambda op, ab, sp, then, other, sp2: Call(
                      "piecewise", (Cmp(op, *ab, sp), then, other), sp2),
                  st.sampled_from(["<", "<=", ">", ">=", "=="]), pair, SPANS,
                  children, children, SPANS))


TREES = st.recursive(LEAVES, _nodes, max_leaves=12)


def assert_matches_tree_walk(tree, x):
    try:
        expected = outcome(tree_walk, tree, x)
    except TypeError:
        # the tree walk crashed on a power with a complex value; the
        # compiled form reports a power failure at the caret
        with pytest.raises(ExpressionError, match="power failed: .* has no "
                                                  "real value"):
            evaluate(tree, x)
        return
    assert outcome(evaluate, tree, x) == expected


@given(TREES, VALUES)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_compiled_evaluation_matches_the_tree_walk(tree, x):
    assert_matches_tree_walk(tree, x)


@given(VALUES, VALUES)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_compiled_power_matches_the_tree_walk(x, t):
    tree = BinOp("^", Var(), Num(t), Span(2, 5))
    assert_matches_tree_walk(tree, x)
    if -math.inf < x < 0.0 and math.isfinite(t) and t != math.floor(t):
        with pytest.raises(ExpressionError) as exc:
            evaluate(tree, x)
        assert (exc.value.line, exc.value.column) == (2, 5)


def test_compiled_evaluation_matches_the_tree_walk_on_each_failure():
    cases = {"1 / (x - x)": "division by zero",
             "ln(0 - abs(x))": "ln of nonpositive value",
             "exp(x * 1000)": "overflows",
             "x ^ 10000": "power failed",
             "0 ^ (0 - 1)": "power failed"}
    for src, message in cases.items():
        tree = parse_expression(src)
        expected = outcome(tree_walk, tree, 2.0)
        assert expected[0] == "error" and message in expected[1]
        assert outcome(evaluate, tree, 2.0) == expected


def test_expression_map_compiles_once(monkeypatch):
    parses, compiles, nodes = [], [], []
    parse, compile_ = expressions.parse_expression, expressions._compile

    def counted_parse(src):
        parses.append(src)
        return parse(src)

    def counted_compile(tree):
        compiles.append(tree)
        return compile_(tree)

    def counted_node(tree):
        nodes.append(tree)
        return compile_(tree)
    monkeypatch.setattr(contractions, "parse_expression", counted_parse)
    monkeypatch.setattr(contractions, "_compile", counted_compile)
    monkeypatch.setattr(expressions, "_compile", counted_node)
    T = self_map("expr:x/(1+2*x)")
    # one parse and one compile, which builds a closure for the root and
    # one for each of its 6 descendants
    assert (len(parses), len(compiles), len(nodes)) == (1, 1, 6)
    xs = np.linspace(0.0, 3.0, 7)
    images = T.apply(np.concatenate([xs, xs]))
    assert T(1.5) == 1.5 / (1 + 2 * 1.5)
    assert (len(parses), len(compiles), len(nodes)) == (1, 1, 6)
    assert [float.hex(v) for v in images[:7]] == \
        [float.hex(x / (1 + 2 * x)) for x in xs.tolist()]


# Texts that reach the depth cap, one per way of nesting: a left-deep sum
# and a right-deep power (trees n deep), and parentheses and calls (n open)
_SUM = lambda n: "+".join(["x"] * n)
_POWER = lambda n: "^".join(["x"] * n)
_PARENS = lambda n: "(" * n + "x" + ")" * n
_CALLS = lambda n: "max(x, " * n + "x" + ")" * n


@pytest.mark.parametrize("text, deeper, column", [
    # the column of the operator, parenthesis or call that passes the cap
    (_SUM(MAX_DEPTH), _SUM(MAX_DEPTH + 1), 2 * MAX_DEPTH),
    (_POWER(MAX_DEPTH), _POWER(MAX_DEPTH + 1), 2),
    (_PARENS(MAX_DEPTH), _PARENS(MAX_DEPTH + 1), MAX_DEPTH + 1),
    (_CALLS(MAX_DEPTH - 1), _CALLS(MAX_DEPTH), 1)],
    ids=["sum", "power", "parens", "calls"])
def test_depth_cap_is_reached_and_not_passed(text, deeper, column):
    assert evaluate(parse_expression(text), 1.0) >= 1.0
    with pytest.raises(ExpressionError) as exc:
        parse_expression(deeper)
    assert str(exc.value) == (f"expression nests deeper than {MAX_DEPTH} "
                              f"levels (line 1, column {column})")


def _left_deep(n):
    """A left-deep sum n nodes deep built from the node classes, not parsed;
    each node's span column is its depth."""
    tree = Var(Span(1, n))
    for depth in range(n - 1, 0, -1):
        tree = BinOp("+", tree, Num(1.0, Span(1, depth + 1)), Span(1, depth))
    return tree


@pytest.mark.parametrize("show", [lambda tree: evaluate(tree, 1.0), pretty],
                         ids=["evaluate", "pretty"])
def test_hand_built_tree_past_the_cap_is_refused(show):
    # refused before it is compiled or printed, at the first node past the
    # cap, rather than with a RecursionError
    with pytest.raises(ExpressionError) as exc:
        show(_left_deep(2000))
    assert str(exc.value) == (f"expression nests deeper than {MAX_DEPTH} "
                              f"levels (line 1, column {MAX_DEPTH + 1})")


def test_hand_built_tree_at_the_cap_evaluates_and_prints():
    tree = _left_deep(MAX_DEPTH)
    assert evaluate(tree, 1.0) == MAX_DEPTH
    assert parse_expression(pretty(tree)) == tree


_TOKENS = ("x", "y", "0", "1", "2.5", ".5", "1e308", "min", "max", "exp",
           "ln", "abs", "piecewise", "+", "-", "*", "/", "^", "<", "<=", ">",
           ">=", "==", "(", "(", ")", ")", ",", " ", "\n", "#")


@given(text=st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join)
       | TREES.map(pretty))
@example(text=_SUM(1000))
@example(text=_POWER(1000))
@example(text=_PARENS(250))
@example(text=_CALLS(300))
@example(text="piecewise(" * 60 + "x < 1, x, x)" + " < 1, x, x)" * 59)
@example(text=_SUM(MAX_DEPTH))
@example(text=_PARENS(MAX_DEPTH))
@example(text=_CALLS(MAX_DEPTH - 1))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_expression_texts_never_crash(text):
    # drawn from the language's own tokens, or printed from a tree: a text
    # builds a map or is refused, and a map takes a point to a float or
    # refuses it, with DomainError alone
    try:
        T = self_map("expr:" + text)
    except DomainError:
        return
    for x in (0.0, 0.5, -1.0, 1e308):
        try:
            assert isinstance(T(x), float)
        except DomainError:
            pass
