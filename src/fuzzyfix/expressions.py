"""A small arithmetic expression language for ``expr:`` self-maps.

Grammar (operator precedence low to high, ``^`` right-associative):

    expr      := term (('+' | '-') term)*
    term      := factor (('*' | '/') factor)*
    factor    := base ('^' factor)?
    base      := NUMBER | IDENT | IDENT '(' args ')' | '(' expr ')'
    condition := expr ('<' | '<=' | '>' | '>=' | '==') expr

Builtins: ``min``, ``max`` (two or more arguments), ``exp``, ``ln``,
``abs`` (one argument), ``piecewise(condition, a, b)``.  Comparisons are
only valid as the first argument of ``piecewise``.  The one variable is
``x``, the point an ``expr:`` self-map maps.  There is no recursion and no
looping; evaluation is total on the declared domain or raises a domain
error carrying the source span.  A text deeper than ``MAX_DEPTH`` is
refused at the token that passes it, before the parser recurses there; a
tree built deeper, at its first node past the cap, before any recursion.

A tree is compiled once into nested closures of one float, one per node,
and a call runs only the float operations of the nodes it reaches:
``self_map`` compiles an ``expr:`` map when it is built, and
:func:`evaluate` compiles and calls.  The operations are ``math.exp``,
``math.log`` and float arithmetic, never numpy, whose ``exp``, ``log`` and
``power`` need not agree with them in the last bit.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

# The deepest tree of an expression, and the most parentheses, calls and
# powers open at one of its tokens: well within Python's recursion limit.
MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"

# builtin name -> (min arity, max arity or None for unbounded)
BUILTINS = {"min": (2, None), "max": (2, None), "exp": (1, 1), "ln": (1, 1),
            "abs": (1, 1), "piecewise": (3, 3)}


class ExpressionError(ValueError):
    """Parse or evaluation failure with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Span:
    line: int = field(compare=False, default=1)
    column: int = field(compare=False, default=1)


@dataclass(frozen=True)
class Num:
    value: float
    span: Span = field(compare=False, default=Span())


@dataclass(frozen=True)
class Var:
    span: Span = field(compare=False, default=Span())


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    span: Span = field(compare=False, default=Span())


@dataclass(frozen=True)
class Cmp:
    op: str
    left: object
    right: object
    span: Span = field(compare=False, default=Span())


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    span: Span = field(compare=False, default=Span())


_TOKEN_RE = re.compile(r"""
    (?P<number>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<cmp><=|>=|==|<|>)
  | (?P<op>[-+*/^])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<ws>\s+)
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(src: str) -> Iterator[_Token]:
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            yield _Token(kind, text, line, col)
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    yield _Token("eof", "", line, col)


class _Parser:
    def __init__(self, src: str):
        self.tokens = list(_tokenize(src))
        self.pos = 0
        self.depth = 0          # the parentheses, calls and powers open
        self.heights = {}       # id -> tree depth of each operator or call

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.current
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.current
        raise ExpressionError(message, tok.line, tok.column)

    def nested(self, parse: Callable, tok: _Token):
        """``parse()`` one level deeper, opened at ``tok``."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(_TOO_DEEP, tok)
        node = parse()
        self.depth -= 1
        return node

    def joined(self, cls, tok: _Token, name: str, *parts):
        """The node ``cls`` named ``name`` over ``parts``, at ``tok``."""
        height = 1 + max(self.heights.get(id(p), 1) for p in parts)
        if height > MAX_DEPTH:
            self.error(_TOO_DEEP, tok)
        span = Span(tok.line, tok.column)
        node = Call(name, parts, span) if cls is Call else cls(name, *parts,
                                                               span)
        self.heights[id(node)] = height
        return node

    def expect(self, kind: str, what: str) -> _Token:
        if self.current.kind != kind:
            self.error(f"expected {what}, found "
                       f"{self.current.text or 'end of input'!r}")
        return self.advance()

    def parse(self):
        tree = self.expr()
        if self.current.kind != "eof":
            self.error(f"unexpected trailing input {self.current.text!r}")
        return tree

    def expr(self):
        node = self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance()
            right = self.term()
            node = self.joined(BinOp, op, op.text, node, right)
        return node

    def term(self):
        node = self.factor()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance()
            right = self.factor()
            node = self.joined(BinOp, op, op.text, node, right)
        return node

    def factor(self):
        node = self.base()
        if self.current.kind == "op" and self.current.text == "^":
            op = self.advance()
            right = self.nested(self.factor, op)   # right-associative
            node = self.joined(BinOp, op, "^", node, right)
        return node

    def base(self):
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text), Span(tok.line, tok.column))
        if tok.kind == "ident":
            self.advance()
            if self.current.kind == "lparen":
                return self.call(tok)
            if tok.text != "x":
                if tok.text in BUILTINS:
                    self.error(f"builtin {tok.text!r} needs arguments", tok)
                self.error(f"unknown identifier {tok.text!r}", tok)
            return Var(Span(tok.line, tok.column))
        if tok.kind == "lparen":
            self.advance()
            node = self.nested(self.expr, tok)
            self.expect("rparen", "')'")
            return node
        self.error(f"unexpected token {tok.text or 'end of input'!r}")

    def call(self, name_tok: _Token):
        name = name_tok.text
        if name not in BUILTINS:
            self.error(f"unknown identifier {name!r}", name_tok)
        self.advance()                      # the '(' that led base here
        args = []
        if self.current.kind != "rparen":
            first = self.condition if name == "piecewise" else self.expr
            args.append(self.nested(first, name_tok))
            while self.current.kind == "comma":
                self.advance()
                args.append(self.nested(self.expr, name_tok))
        self.expect("rparen", "')'")
        lo, hi = BUILTINS[name]
        if len(args) < lo or (hi is not None and len(args) > hi):
            expected = str(lo) if hi == lo else f"at least {lo}"
            self.error(f"{name} takes {expected} argument(s), got {len(args)}",
                       name_tok)
        if name == "piecewise" and not isinstance(args[0], Cmp):
            self.error("piecewise condition must be a comparison", name_tok)
        return self.joined(Call, name_tok, name, *args)

    def condition(self):
        left = self.expr()
        if self.current.kind != "cmp":
            return left     # arity/shape validation happens in the caller
        op = self.advance()
        right = self.expr()
        return self.joined(Cmp, op, op.text, left, right)


def parse_expression(src: str):
    """Parse a source string into an expression tree with source spans."""
    return _Parser(src).parse()


def evaluate(tree, x: float) -> float:
    """Evaluate a tree at ``x``.

    Only the selected branch of a piecewise is evaluated.  Raises
    :class:`ExpressionError` for domain failures (division by zero, log of
    a nonpositive value, overflow, a power with no real value).
    """
    _check_depth(tree)
    return _compile(tree)(float(x))


def _check_depth(tree) -> None:
    """Raise at the first node deeper than ``MAX_DEPTH``, without recursing."""
    level = [tree]
    for _ in range(MAX_DEPTH):
        level = [child for node in level for child in (
            (node.left, node.right) if isinstance(node, (BinOp, Cmp))
            else node.args if isinstance(node, Call) else ())]
    if level:
        span = getattr(level[0], "span", Span())
        raise ExpressionError(_TOO_DEEP, span.line, span.column)


def _compile(tree) -> Callable[[float], float]:
    """The closure that evaluates ``tree`` at a float ``x``.

    Built once per node: a call runs the node's own float operation on its
    operands' results, left before right, with no dispatch on node type.
    """
    if not isinstance(tree, (Num, Var, BinOp, Cmp, Call)):
        raise TypeError(f"not an expression node: {tree!r}")
    if isinstance(tree, Num):
        value = tree.value
        return lambda x: value
    if isinstance(tree, Var):
        return lambda x: x
    line, column = tree.span.line, tree.span.column
    if isinstance(tree, Cmp):
        left, right = _compile(tree.left), _compile(tree.right)
        compare = _COMPARE[tree.op]
        return lambda x: compare(left(x), right(x))
    if isinstance(tree, BinOp):
        left, right = _compile(tree.left), _compile(tree.right)
        if tree.op == "+":
            return lambda x: left(x) + right(x)
        if tree.op == "-":
            return lambda x: left(x) - right(x)
        if tree.op == "*":
            return lambda x: left(x) * right(x)
        if tree.op == "/":
            def divide(x):
                a, b = left(x), right(x)
                if b == 0.0:
                    raise ExpressionError("division by zero", line, column)
                return a / b
            return divide

        def power(x):
            a, b = left(x), right(x)
            try:
                value = a ** b
            except (OverflowError, ValueError, ZeroDivisionError) as exc:
                raise ExpressionError(f"power failed: {exc}", line,
                                      column) from None
            if isinstance(value, complex):
                raise ExpressionError(f"power failed: {a!r} ^ {b!r} has no "
                                      "real value", line, column)
            return float(value)
        return power
    args = [_compile(a) for a in tree.args]
    if tree.name == "piecewise":
        cond, then, other = args
        return lambda x: then(x) if cond(x) else other(x)
    if tree.name in ("min", "max"):
        pick = min if tree.name == "min" else max
        return lambda x: pick([a(x) for a in args])
    arg = args[0]
    if tree.name == "abs":
        return lambda x: abs(arg(x))
    if tree.name == "exp":
        def exp(x):
            a = arg(x)
            try:
                return math.exp(a)
            except OverflowError:
                raise ExpressionError(f"exp of {a!r} overflows", line,
                                      column) from None
        return exp
    if tree.name == "ln":
        def ln(x):
            a = arg(x)
            if a <= 0.0:
                raise ExpressionError(f"ln of nonpositive value {a!r}", line,
                                      column)
            return math.log(a)
        return ln
    raise TypeError(f"unknown builtin in {tree!r}")


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq}


def pretty(tree) -> str:
    """Canonical fully parenthesised rendering; reparsing yields the same tree."""
    _check_depth(tree)
    return _pretty(tree)


def _pretty(tree) -> str:
    if isinstance(tree, Num):
        return repr(tree.value)
    if isinstance(tree, Var):
        return "x"
    if isinstance(tree, BinOp):
        return f"({_pretty(tree.left)} {tree.op} {_pretty(tree.right)})"
    if isinstance(tree, Cmp):
        # comparisons live only at the head of a piecewise and take no parens
        return f"{_pretty(tree.left)} {tree.op} {_pretty(tree.right)}"
    if isinstance(tree, Call):
        return f"{tree.name}({', '.join(_pretty(a) for a in tree.args)})"
    raise TypeError(f"not an expression node: {tree!r}")
