"""Expression trees for the claim language, with parser and pretty-printer.

Grammar: identifiers, nonnegative integer literals, binary + - * /, ^ with an
integer literal exponent, parentheses, unary minus.  Rational constants are
written p/q and stay division nodes until evaluation.

Tokens: an integer literal is ASCII digits 0-9 only, no more of them than int()
converts (sys.get_int_max_str_digits(), 4,300 by default); an identifier starts
with a letter (str.isalpha) or _, goes on with letters, digits or _
(str.isalnum), and has no uppercase letter; whitespace separates tokens.  Any
other character, a superscript or non-ASCII digit among them, is an unexpected
character at its column.  An expression nests at most MAX_DEPTH (200) levels,
counting each operator and each pair of parentheses from the root down to a
leaf; a deeper one is an error at the token that crosses the limit.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, Mapping, TypeVar

from .errors import ClaimSyntaxError
from .records import Record


class Num(Record):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class Sym(Record):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Neg(Record):
    __slots__ = _fields = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand


class BinOp(Record):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op  # one of + - * /
        self.left = left
        self.right = right


class Pow(Record):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int) -> None:
        self.base = base
        self.exponent = exponent


# a PEP 604 union: typing.Union caches its result process-wide, which would keep
# these classes, and every module they reach, alive after a re-import
Expr = Num | Sym | Neg | BinOp | Pow


# -- lexer ---------------------------------------------------------------------

# A token is a plain tuple (kind, text, line, column), kind one of "num",
# "ident", "op" and "end": a NamedTuple runs a Python-level __new__ per token,
# which nearly doubled the time to tokenize.

# one alternation tried at each position; the group that matched names the token
# kind, and newlines and other whitespace make no token.  [^\W\d] also admits
# numerals such as a superscript two, so an identifier's first character is
# checked with str.isalpha.
_TOKEN = re.compile(
    r"(?P<num>[0-9]+)|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<newline>\n)|(?P<space>[^\S\n]+)"
)

# the lines of a claim file or system text: only \n, \r\n and \r end one, as in Python's
# tokenizer; str.splitlines also ends one at \f, \v, \x1c-\x1e, \x85, U+2028 and U+2029
source_lines = re.compile(r"\r\n?|\n").split


def _tokenize(text: str, line: int, column: int) -> list[tuple[str, str, int, int]]:
    tokens = []
    match = _TOKEN.match
    pos, line_start = 0, 1 - column  # the column of text[i] is i - line_start + 1
    while pos < len(text):
        found = match(text, pos)
        kind = found.lastgroup if found is not None else None
        if kind == "ident" and not (text[pos].isalpha() or text[pos] == "_"):
            kind = None
        if kind is None:
            raise ClaimSyntaxError(f"unexpected character {text[pos]!r}",
                                   line, pos - line_start + 1)
        end = found.end()
        if kind == "newline":
            line, line_start = line + 1, end
        elif kind != "space":
            word = found.group()
            if kind == "ident" and word != word.lower():
                raise ClaimSyntaxError(f"identifiers are lowercase: {word!r}",
                                       line, pos - line_start + 1)
            tokens.append((kind, word, line, pos - line_start + 1))
        pos = end
    tokens.append(("end", "", line, pos - line_start + 1))
    return tokens


# The deepest expression the parser accepts, counting each operator and each pair of
# parentheses on the way from the root to a leaf.  evaluate takes one interpreter
# frame per tree level and the parser three per parenthesis, so at 200 levels both
# stay well inside the default recursion limit of 1000 with room for their callers;
# the deepest expression of the claim corpus has 15 levels.
MAX_DEPTH = 200

# The largest ramification a claim file's place may take.  t becomes a polynomial of
# degree e in r, so each power of t costs work in proportion to e: a sqrt-t point at
# e = 5,000 runs in about 10 ms, and a place at e = 10**11 ran out of memory.
MAX_RAMIFICATION = 10_000

# The bounds on a claim file's exponent literals k.  A power of t is of degree |k|*e in r,
# and off t = 0 its coefficients grow with |k|, so |k| is at most MAX_EXPONENT, and at most
# MAX_POWER_DEGREE // e in a text read at ramification e; a power of r, of degree |k|, only
# at most MAX_POWER_DEGREE.  r^1000000 runs in about 1.1 s, t^100 at e = 10,000 in 0.7 s,
# and t^1000 in 0.2 s at t = 1 and 1.6 s at a generator of height 2; t^6400 at t = 1 took 56 s.
MAX_POWER_DEGREE = 1_000_000
MAX_EXPONENT = 1_000

_LEVELS = (frozenset("+-"), frozenset("*/"))  # a sum's operators, then a product's


def _too_deep(token: tuple) -> ClaimSyntaxError:
    _, _, line, column = token
    return ClaimSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", line, column)


def _integer(text: str, line: int, column: int) -> int:
    """int(text); int() reads at most sys.get_int_max_str_digits() digits."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        message = f"integer literal has {len(text)} digits; at most {limit} are allowed"
        raise ClaimSyntaxError(message, line, column) from None


def read_integer(text: str, line: int, column: int, message: str, least: int | None = None) -> int:
    """ASCII digits 0-9 read as an integer no less than least, or, with no least, after an
    optional -.  Other text is the error message at line and column."""
    digits = text[1:] if least is None and text.startswith("-") else text
    value = _integer(text, line, column) if digits.isascii() and digits.isdigit() else None
    if value is None or least is not None and value < least:
        raise ClaimSyntaxError(message, line, column)
    return value


class _Parser:
    """Recursive descent over the token list; each rule returns its tree and depth.

    open counts the parentheses and unary minus signs the parser is inside, so
    nesting is refused on the way in, before it can exhaust the stack.  Only op
    tokens have the texts the rules compare against.
    """

    def __init__(self, text: str, line: int, column: int, divisors: dict) -> None:
        self.tokens = _tokenize(text, line, column)
        self.pos = 0
        self.open = 0
        self.divisors = divisors

    def parse(self) -> Expr:
        node, _ = self.chain(0)
        kind, text, line, column = self.tokens[self.pos]
        if kind != "end":
            raise ClaimSyntaxError(f"unexpected {text!r}", line, column)
        return node

    def chain(self, level: int) -> tuple[Expr, int]:
        """Operands joined by the operators of a level: a sum (0) of products (1) of factors.

        A level-0 chain calls the level-1 chain itself, not through a helper, so a
        parenthesis costs three frames: factor and the two chains.
        """
        operators = _LEVELS[level]
        node, depth = self.chain(1) if level == 0 else self.factor()
        token = self.tokens[self.pos]
        while token[1] in operators:
            self.pos += 1
            start = self.pos
            right, right_depth = self.chain(1) if level == 0 else self.factor()
            node = BinOp(token[1], node, right)
            if token[1] == "/":
                self.divisors[id(node)] = self.tokens[start][2:]
            depth = (depth if depth > right_depth else right_depth) + 1
            if depth > MAX_DEPTH:
                raise _too_deep(token)
            token = self.tokens[self.pos]
        return node, depth

    def factor(self) -> tuple[Expr, int]:
        """A unary minus, or an atom with an optional integer power."""
        tokens = self.tokens
        token = kind, text, line, column = tokens[self.pos]
        if kind == "num":
            node, depth = Num(_integer(text, line, column)), 0
        elif kind == "ident":
            node, depth = Sym(text), 0
        elif text == "-" or text == "(":
            if self.open == MAX_DEPTH:
                raise _too_deep(token)
            self.open += 1
            self.pos += 1
            if text == "-":
                operand, depth = self.factor()
                self.open -= 1
                if depth == MAX_DEPTH:
                    raise _too_deep(token)
                return Neg(operand), depth + 1
            node, depth = self.chain(0)
            _, close, close_line, close_column = tokens[self.pos]
            if close != ")":
                raise ClaimSyntaxError("expected ')'", close_line, close_column)
            self.open -= 1
            if depth == MAX_DEPTH:
                raise _too_deep(token)
            depth += 1
        else:
            raise ClaimSyntaxError(f"expected an expression, got {text!r}", line, column)
        self.pos += 1
        caret = tokens[self.pos]
        if caret[1] != "^":
            return node, depth
        self.pos += 1
        sign = 1
        if tokens[self.pos][1] == "-":
            self.pos += 1
            sign = -1
        kind, text, line, column = tokens[self.pos]
        if kind != "num":
            raise ClaimSyntaxError("exponent must be an integer literal", line, column)
        self.pos += 1
        if depth == MAX_DEPTH:
            raise _too_deep(caret)
        node = Pow(node, sign * _integer(text, line, column))
        if node.exponent < 0:
            self.divisors[id(node)] = token[2:]
        return node, depth + 1


def parse_expression(text: str, line: int = 1, column: int = 1,
                     divisors: dict | None = None) -> Expr:
    """Parse one expression; raises ClaimSyntaxError with source position.  divisors, if given,
    maps id() of each / and negative ^ node to where its divisor, or the power's base, starts."""
    return _Parser(text, line, column, {} if divisors is None else divisors).parse()


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
    """Render an expression; re-parsing gives a structurally equal tree.

    The parentheses it puts around a negated operand count towards MAX_DEPTH,
    so a tree at that depth with such an operand renders too deep to re-parse.
    """
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


def odd_power_symbols(expr: Expr) -> set[str]:
    """The names that occur in expr other than as the base of an even power."""
    if isinstance(expr, Sym):
        return {expr.name}
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Neg):
        return odd_power_symbols(expr.operand)
    if isinstance(expr, Pow):
        if isinstance(expr.base, Sym):
            return {expr.base.name} if expr.exponent % 2 else set()
        return odd_power_symbols(expr.base)
    return odd_power_symbols(expr.left) | odd_power_symbols(expr.right)


T = TypeVar("T")


def evaluate(
    expr: Expr,
    env: Mapping[str, T],
    const: Callable[[Fraction], T],
    square_env: Mapping[str, T] | None = None,
    cache: dict | None = None,
) -> T:
    """Evaluate over any backend supporting +, -, *, /, ** (int exponents).

    square_env maps formal-square-root variables v to the value of v^2: any
    Pow(v, 2k) becomes square_env[v]**k and other occurrences of v are errors
    (raised by the caller's validation; here a LookupError).

    Each operation is memoised in cache (a fresh dict when none is given) under
    the identities of the values it reads: (op, id(a), id(b)) for + - * /,
    ("-", id(a)) for a negation and ("^", id(base), k) for a power, where a
    square-bound base is square_env[v] and k half the exponent.  A literal is
    kept under its integer; a symbol is read from env, uncached.  So equal
    leaves are the same objects, and structurally equal subtrees evaluate once,
    in one tree or in any trees that share the cache, with no Expr hashed.  An
    entry holds its operands beside its value, so no id in a key is reused
    while the cache lives.  Share a cache only among evaluations over one
    backend (one tower, place and exactness): its literal entries are that
    backend's constants.
    """
    return _value(expr, env, const, square_env or {}, {} if cache is None else cache)


def _value(expr: Expr, env: Mapping[str, T], const: Callable[[Fraction], T],
           square_env: Mapping[str, T], cache: dict) -> T:
    kind = type(expr)
    if kind is Sym:
        if expr.name in square_env:
            raise LookupError(f"square-bound variable {expr.name!r} used with odd power")
        return env[expr.name]
    if kind is Num:
        value = cache.get(expr.value)
        if value is None:
            value = cache[expr.value] = const(Fraction(expr.value))
        return value
    if kind is BinOp:
        a = _value(expr.left, env, const, square_env, cache)
        b = _value(expr.right, env, const, square_env, cache)
        op = expr.op
        key = (op, id(a), id(b))
        hit = cache.get(key)
        if hit is not None:
            return hit[0]
        value = a + b if op == "+" else a - b if op == "-" else a * b if op == "*" else a / b
        cache[key] = (value, a, b)
        return value
    if kind is Neg:
        a = _value(expr.operand, env, const, square_env, cache)
        key = ("-", id(a))
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = (-a, a)
        return hit[0]
    base, exponent = expr.base, expr.exponent
    if type(base) is Sym and base.name in square_env:
        if exponent % 2:
            raise LookupError(f"square-bound variable {base.name!r} used with odd power")
        a, exponent = square_env[base.name], exponent // 2
    else:
        a = _value(base, env, const, square_env, cache)
    key = ("^", id(a), exponent)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = (a ** exponent, a)
    return hit[0]
