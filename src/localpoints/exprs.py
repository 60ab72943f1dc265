"""Expression trees for the claim language, with parser and pretty-printer.

Grammar: identifiers [a-z][a-z0-9_]*, nonnegative integer literals, binary
+ - * /, ^ with an integer literal exponent, parentheses, unary minus.
Rational constants are written p/q and stay division nodes until evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, TypeVar

from .errors import ClaimSyntaxError


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: Expr


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow:
    base: Expr
    exponent: int


# a PEP 604 union: typing.Union caches its result process-wide, which would keep
# these classes, and every module they reach, alive after a re-import
Expr = Num | Sym | Neg | BinOp | Pow


# -- lexer ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    line: int
    column: int


_OPS = set("+-*/^()")


def _tokenize(text: str, line: int, column: int) -> Iterator[_Token]:
    i = 0
    cur_line, cur_col = line, column
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            cur_line += 1
            cur_col = 1
            i += 1
            continue
        if ch.isspace():
            cur_col += 1
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            yield _Token("num", text[start:i], cur_line, cur_col)
            cur_col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word != word.lower():
                raise ClaimSyntaxError(f"identifiers are lowercase: {word!r}", cur_line, cur_col)
            yield _Token("ident", word, cur_line, cur_col)
            cur_col += i - start
            continue
        if ch in _OPS:
            yield _Token("op", ch, cur_line, cur_col)
            cur_col += 1
            i += 1
            continue
        raise ClaimSyntaxError(f"unexpected character {ch!r}", cur_line, cur_col)
    yield _Token("end", "", cur_line, cur_col)


class _Parser:
    def __init__(self, text: str, line: int, column: int) -> None:
        self.tokens = list(_tokenize(text, line, column))
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.current
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.current
        if token.kind != "op" or token.text != op:
            raise ClaimSyntaxError(f"expected {op!r}", token.line, token.column)
        self.advance()

    def parse(self) -> Expr:
        expr = self.expr()
        token = self.current
        if token.kind != "end":
            raise ClaimSyntaxError(f"unexpected {token.text!r}", token.line, token.column)
        return expr

    def expr(self) -> Expr:
        node = self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.current.kind == "op" and self.current.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.current.kind == "op" and self.current.text == "^":
            token = self.advance()
            sign = 1
            if self.current.kind == "op" and self.current.text == "-":
                self.advance()
                sign = -1
            exponent = self.current
            if exponent.kind != "num":
                raise ClaimSyntaxError(
                    "exponent must be an integer literal", exponent.line, exponent.column
                )
            self.advance()
            return Pow(base, sign * int(exponent.text))
        return base

    def atom(self) -> Expr:
        token = self.current
        if token.kind == "num":
            self.advance()
            return Num(int(token.text))
        if token.kind == "ident":
            self.advance()
            return Sym(token.text)
        if token.kind == "op" and token.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ClaimSyntaxError(f"expected an expression, got {token.text!r}", token.line, token.column)


def parse_expression(text: str, line: int = 1, column: int = 1) -> Expr:
    """Parse one expression; raises ClaimSyntaxError with source position."""
    return _Parser(text, line, column).parse()


# -- pretty printer ---------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _wrap(child: Expr, parent_level: int, is_right: bool) -> str:
    text = to_text(child)
    if isinstance(child, BinOp):
        level = _PRECEDENCE[child.op]
        if level < parent_level or (is_right and level == parent_level):
            return f"({text})"
    elif isinstance(child, Neg) and parent_level >= 1:
        return f"({text})"
    return text


def to_text(expr: Expr) -> str:
    """Render an expression; re-parsing gives a structurally equal tree."""
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Sym):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_text(expr.operand)
        if isinstance(expr.operand, BinOp):
            return f"-({inner})"
        return f"-{inner}"
    if isinstance(expr, Pow):
        base = to_text(expr.base)
        if not isinstance(expr.base, (Num, Sym)):
            base = f"({base})"
        return f"{base}^{expr.exponent}"
    if isinstance(expr, BinOp):
        level = _PRECEDENCE[expr.op]
        return f"{_wrap(expr.left, level, False)} {expr.op} {_wrap(expr.right, level, True)}"
    raise TypeError(f"not an expression: {expr!r}")


# -- analysis and evaluation --------------------------------------------------------


def free_symbols(expr: Expr) -> set[str]:
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Sym):
        return {expr.name}
    if isinstance(expr, Neg):
        return free_symbols(expr.operand)
    if isinstance(expr, Pow):
        return free_symbols(expr.base)
    return free_symbols(expr.left) | free_symbols(expr.right)


def only_even_powers(expr: Expr, name: str) -> bool:
    """True when every occurrence of name is the base of an even power."""
    if isinstance(expr, Sym):
        return expr.name != name
    if isinstance(expr, Num):
        return True
    if isinstance(expr, Neg):
        return only_even_powers(expr.operand, name)
    if isinstance(expr, Pow):
        if isinstance(expr.base, Sym) and expr.base.name == name:
            return expr.exponent % 2 == 0
        return only_even_powers(expr.base, name)
    return only_even_powers(expr.left, name) and only_even_powers(expr.right, name)


T = TypeVar("T")


def evaluate(
    expr: Expr,
    env: Mapping[str, T],
    const: Callable[[Fraction], T],
    square_env: Mapping[str, T] | None = None,
    cache: dict[Expr, T] | None = None,
) -> T:
    """Evaluate over any backend supporting +, -, *, /, ** (int exponents).

    square_env maps formal-square-root variables v to the value of v^2: any
    Pow(v, 2k) becomes square_env[v]**k and other occurrences of v are errors
    (raised by the caller's validation; here a KeyError-level failure).
    An optional cache shares results across structurally equal subtrees.
    """
    if cache is not None:
        hit = cache.get(expr)
        if hit is not None:
            return hit
    value = _evaluate(expr, env, const, square_env, cache)
    if cache is not None:
        cache[expr] = value
    return value


def _evaluate(
    expr: Expr,
    env: Mapping[str, T],
    const: Callable[[Fraction], T],
    square_env: Mapping[str, T] | None,
    cache: dict[Expr, T] | None,
) -> T:
    if isinstance(expr, Num):
        return const(Fraction(expr.value))
    if isinstance(expr, Sym):
        if square_env and expr.name in square_env:
            raise LookupError(f"square-bound variable {expr.name!r} used with odd power")
        return env[expr.name]
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, env, const, square_env, cache)
    if isinstance(expr, Pow):
        base = expr.base
        if square_env and isinstance(base, Sym) and base.name in square_env:
            if expr.exponent % 2:
                raise LookupError(f"square-bound variable {base.name!r} used with odd power")
            return square_env[base.name] ** (expr.exponent // 2)
        return evaluate(base, env, const, square_env, cache) ** expr.exponent
    left = evaluate(expr.left, env, const, square_env, cache)
    right = evaluate(expr.right, env, const, square_env, cache)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    return left / right
