import gc
import importlib.util
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localpoints.claims import K3_LIFTS_TEXT, POINTS_TEXT, SHIFTED_FORM_TEXT
from localpoints.errors import ClaimSyntaxError, PrecisionExhaustedError
from localpoints.exprs import (
    MAX_DEPTH,
    BinOp,
    Neg,
    Num,
    Pow,
    Sym,
    evaluate,
    free_symbols,
    odd_power_symbols,
    parse_expression,
    to_text,
)
from localpoints.field_tower import QQ, adjoin_quadratic
from localpoints.series import Place, RationalFunction, t_function

ROOT = Path(__file__).resolve().parent.parent


def test_parse_base_equation_side():
    tree = parse_expression("x^2 - t*u^2 + t")
    assert free_symbols(tree) == {"x", "t", "u"}
    assert tree == BinOp(
        "+", BinOp("-", Pow(Sym("x"), 2), BinOp("*", Sym("t"), Pow(Sym("u"), 2))), Sym("t")
    )


def test_parse_cover_equation():
    tree = parse_expression("t^2*u^2 - t")
    assert free_symbols(tree) == {"t", "u"}


def test_syntax_error_carries_position():
    with pytest.raises(ClaimSyntaxError) as err:
        parse_expression("x^2 = ")
    assert err.value.line == 1
    with pytest.raises(ClaimSyntaxError):
        parse_expression("x +")
    with pytest.raises(ClaimSyntaxError):
        parse_expression("x ^ y")


def test_roundtrip_structural_equality():
    sources = [
        "x^2 - t*u^2 + t",
        "(t^2*u^2 - t)*y^2",
        "x^2 - 2*t*u^2 + 1/t",
        "t*(t^2*u^2 - t)*z^2",
        "a - (b - c)",
        "a - b - c",
        "a/(b*c)",
        "a/b*c",
        "-x^2 + (-y)^2",
        "1/2 + 3/4*t",
        "t^-1",
    ]
    for source in sources:
        tree = parse_expression(source)
        assert parse_expression(to_text(tree)) == tree


def test_roundtrip_randomized_trees():
    rng = random.Random(41)

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([Num(rng.randint(0, 9)), Sym(rng.choice("tuxyz"))])
        kind = rng.random()
        if kind < 0.6:
            return BinOp(rng.choice("+-*/"), build(depth - 1), build(depth - 1))
        if kind < 0.8:
            return Neg(build(depth - 1))
        base = rng.choice([Num(rng.randint(1, 9)), Sym(rng.choice("tuxyz"))])
        return Pow(base, rng.randint(-3, 5))

    for _ in range(300):
        tree = build(4)
        assert parse_expression(to_text(tree)) == tree


def test_evaluate_with_fractions():
    tree = parse_expression("1/2 + x^2 - 3*x")
    value = evaluate(tree, {"x": Fraction(2)}, Fraction)
    assert value == Fraction(1, 2) + 4 - 6


def test_even_power_check():
    eq = parse_expression("(t^2*u^2 - t)*y^2")
    assert "y" not in odd_power_symbols(eq)
    assert "w" not in odd_power_symbols(eq)
    assert "y" in odd_power_symbols(parse_expression("y^3"))
    assert "y" in odd_power_symbols(parse_expression("x + y"))
    assert "y" in odd_power_symbols(parse_expression("(y*u)^2"))


def _oracle_only_even_powers(expr, name: str) -> bool:
    """True when every occurrence of name is the base of an even power: the
    one-name-at-a-time scan that odd_power_symbols replaced."""
    if isinstance(expr, Sym):
        return expr.name != name
    if isinstance(expr, Num):
        return True
    if isinstance(expr, Neg):
        return _oracle_only_even_powers(expr.operand, name)
    if isinstance(expr, Pow):
        if isinstance(expr.base, Sym) and expr.base.name == name:
            return expr.exponent % 2 == 0
        return _oracle_only_even_powers(expr.base, name)
    return _oracle_only_even_powers(expr.left, name) and _oracle_only_even_powers(expr.right, name)


def test_odd_power_symbols_agrees_with_the_per_name_oracle():
    from localpoints.claims import builtin_registry, load_claim_file

    generated = ROOT / "tests" / "data" / "generated_points_seed1.txt"
    claims = [*builtin_registry().values(), *load_claim_file(str(generated), {}).values()]
    systems = {c.system for c in claims if c.system is not None}
    sides = []
    for system in systems:
        sides += [side for eq in system.equations for side in (eq.lhs, eq.rhs)]
        sides += system.inequations
    assert sides
    for side in sides:
        odd = odd_power_symbols(side)
        for name in {*free_symbols(side), "w"}:
            assert (name not in odd) == _oracle_only_even_powers(side, name), (side, name)


def test_an_integer_literal_longer_than_int_reads_is_positioned():
    limit = sys.get_int_max_str_digits()
    assert parse_expression("9" * limit) == Num(int("9" * limit))
    for text, column in [("1" * (limit + 1), 1), ("x + " + "2" * (limit + 1), 5),
                         ("x^" + "3" * (limit + 1), 3)]:
        with pytest.raises(ClaimSyntaxError) as err:
            parse_expression(text, 4, 1)
        assert (err.value.line, err.value.column) == (4, column)
        assert err.value.message == (f"integer literal has {limit + 1} digits; "
                                     f"at most {limit} are allowed")


def test_evaluate_substitutes_squares():
    eq = parse_expression("(t^2*u^2 - t)*y^2")
    value = evaluate(
        eq, {"t": Fraction(3), "u": Fraction(1)}, Fraction, square_env={"y": Fraction(-1)}
    )
    assert value == (9 - 3) * -1
    with pytest.raises(LookupError):
        evaluate(parse_expression("y^3"), {}, Fraction, square_env={"y": Fraction(2)})


# -- the per-character tokenizer and parser the regular-expression one replaced,
# kept as the reference it must agree with ------------------------------------------


@dataclass(frozen=True)
class _OracleToken:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    line: int
    column: int


def _oracle_tokenize(text: str, line: int, column: int) -> Iterator[_OracleToken]:
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
            yield _OracleToken("num", text[start:i], cur_line, cur_col)
            cur_col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word != word.lower():
                raise ClaimSyntaxError(f"identifiers are lowercase: {word!r}", cur_line, cur_col)
            yield _OracleToken("ident", word, cur_line, cur_col)
            cur_col += i - start
            continue
        if ch in set("+-*/^()"):
            yield _OracleToken("op", ch, cur_line, cur_col)
            cur_col += 1
            i += 1
            continue
        raise ClaimSyntaxError(f"unexpected character {ch!r}", cur_line, cur_col)
    yield _OracleToken("end", "", cur_line, cur_col)


class _OracleParser:
    def __init__(self, text: str, line: int, column: int) -> None:
        self.tokens = list(_oracle_tokenize(text, line, column))
        self.pos = 0

    @property
    def current(self) -> _OracleToken:
        return self.tokens[self.pos]

    def advance(self) -> _OracleToken:
        token = self.current
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.current
        if token.kind != "op" or token.text != op:
            raise ClaimSyntaxError(f"expected {op!r}", token.line, token.column)
        self.advance()

    def parse(self):
        expr = self.expr()
        token = self.current
        if token.kind != "end":
            raise ClaimSyntaxError(f"unexpected {token.text!r}", token.line, token.column)
        return expr

    def expr(self):
        node = self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.current.kind == "op" and self.current.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.current.kind == "op" and self.current.text == "^":
            self.advance()
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

    def atom(self):
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
        raise ClaimSyntaxError(f"expected an expression, got {token.text!r}",
                               token.line, token.column)


def _outcome(parse, text: str, line: int, column: int):
    """The tree, or the (type, message, line, column) of the error."""
    try:
        return parse(text, line, column)
    except Exception as err:  # both parsers must fail alike, whatever they raise
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


def _oracle_outcome(text: str, line: int, column: int):
    return _outcome(lambda *args: _OracleParser(*args).parse(), text, line, column)


def _corpus_texts() -> list[str]:
    """The builtin claim texts, the example and golden claim files, and generated claims."""
    spec = importlib.util.spec_from_file_location("_gen_claims",
                                                  ROOT / "benchmark" / "gen_claims.py")
    gen_claims = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen_claims  # dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(gen_claims)
        generated = [gen_claims.generate(seed, 100)[0] for seed in (1, 2, 3)]
    finally:
        del sys.modules[spec.name]
    files = [ROOT / "claims_example.txt", ROOT / "tests" / "data" / "generated_points_seed1.txt"]
    return [POINTS_TEXT, SHIFTED_FORM_TEXT, K3_LIFTS_TEXT, *generated,
            *(path.read_text(encoding="utf-8") for path in files)]


def _expression_pieces(corpus: list[str]) -> set[tuple[str, int, int]]:
    """Every line of each text and every piece of it between = != : and sqrt( ),
    each with its line and column: the expressions the claim runner parses, and the
    directive lines around them, which fail to parse."""
    pieces = set()
    for text in corpus:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            pieces.add((line, lineno, 1))
            for match in re.finditer(r"[^=!:]+", line):
                piece = match[0]
                if piece.strip().startswith("sqrt(") and piece.rstrip().endswith(")"):
                    offset = piece.index("sqrt(") + len("sqrt(")
                    pieces.add((piece.rstrip()[offset:-1], lineno, match.start() + offset + 1))
                pieces.add((piece, lineno, match.start() + 1))
    return pieces


NON_ASCII_DIGITS = "²١"


def test_parser_agrees_with_the_per_character_oracle_on_the_claim_corpus():
    pieces = _expression_pieces(_corpus_texts())
    trees = 0
    for text, line, column in sorted(pieces):
        expected = _oracle_outcome(text, line, column)
        assert _outcome(parse_expression, text, line, column) == expected, (text, line, column)
        trees += not isinstance(expected, tuple)
    # the corpus parses to many trees, and fails in many places
    assert trees > 500 and len(pieces) - trees > 500


def test_parser_agrees_with_the_per_character_oracle_on_random_strings():
    alphabet = sorted(set("".join(_corpus_texts())) | set("éαǅⅧ\xa0\t\n"))
    assert not any(ch.isdigit() and not ch.isascii() for ch in alphabet)
    rng = random.Random(12)
    errors = set()
    for _ in range(4000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        line, column = rng.randint(1, 9), rng.randint(1, 40)
        expected = _oracle_outcome(text, line, column)
        assert _outcome(parse_expression, text, line, column) == expected, repr(text)
        if isinstance(expected, tuple):
            errors.add(expected[1].partition(": ")[2].split(" ", 1)[0])
    # every kind of error turned up: unexpected, expected, identifiers, exponent
    assert {"unexpected", "expected", "identifiers", "exponent"} <= errors


def test_parser_agrees_with_the_oracle_on_every_thirteenth_character():
    # each character alone and after an identifier: the regular expression's
    # classes against str.isspace, isalpha and isalnum
    for code in range(0, 0x10000, 13):
        ch = chr(code)
        if ch.isdigit() and not ch.isascii():
            continue
        for text in (ch, "x" + ch):
            assert _outcome(parse_expression, text, 1, 1) == _oracle_outcome(text, 1, 1), hex(code)


@pytest.mark.parametrize("text", ["x^" + digit for digit in NON_ASCII_DIGITS])
def test_a_non_ascii_digit_is_an_unexpected_character(text):
    # the oracle read a superscript two with int() (a ValueError) and an
    # Arabic-Indic one as 1; integer literals are ASCII digits
    with pytest.raises(ClaimSyntaxError) as err:
        parse_expression(text, 4, 10)
    assert (err.value.line, err.value.column) == (4, 12)
    assert str(err.value) == f"line 4, column 12: unexpected character {text[-1]!r}"


def _chain(terms: int) -> str:
    return "+".join(["t"] * terms)


def _nested(levels: int) -> str:
    return "(" * levels + "t" + ")" * levels


@pytest.mark.parametrize(
    "deepest, value, too_deep, column",
    [(_chain(MAX_DEPTH + 1), MAX_DEPTH + 1, _chain(MAX_DEPTH + 2), 2 * MAX_DEPTH + 2),
     (_nested(MAX_DEPTH), 1, _nested(MAX_DEPTH + 1), MAX_DEPTH + 1),
     ("-" * MAX_DEPTH + "t", 1, "-" * (MAX_DEPTH + 1) + "t", MAX_DEPTH + 1),
     ("t^2" + "*t" * (MAX_DEPTH - 1), 1, "t^2" + "*t" * MAX_DEPTH, 2 * MAX_DEPTH + 2),
     # a minus sign, a pair of parentheses and a power over an operand already
     # MAX_DEPTH - 1 levels deep: each fails at its own token, the pair at its (
     ("-(" + _chain(MAX_DEPTH - 1) + ")", 1 - MAX_DEPTH, "-(" + _chain(MAX_DEPTH) + ")", 1),
     ("(" + _chain(MAX_DEPTH) + ")", MAX_DEPTH, "(" + _chain(MAX_DEPTH + 1) + ")", 1),
     ("(" + _chain(MAX_DEPTH - 1) + ")^2", (MAX_DEPTH - 1) ** 2,
      "(" + _chain(MAX_DEPTH) + ")^2", 2 * MAX_DEPTH + 2)],
    ids=["sum", "parentheses", "minus_signs", "power_times", "minus_over_a_sum",
         "parentheses_over_a_sum", "power_over_a_sum"],
)
def test_depth_is_bounded_at_the_token_that_crosses_it(deepest, value, too_deep, column):
    tree = parse_expression(deepest)
    # the deepest tree accepted still evaluates, prints and parses again
    assert evaluate(tree, {"t": Fraction(1)}, Fraction) == value
    assert free_symbols(tree) == {"t"}
    assert parse_expression(to_text(tree)) == tree
    with pytest.raises(ClaimSyntaxError) as err:
        parse_expression(too_deep)
    assert (err.value.line, err.value.column) == (1, column)
    assert str(err.value).endswith(f"expression nested deeper than {MAX_DEPTH} levels")


# -- the value-keyed cache against evaluation without one -----------------------------

GOLDEN = adjoin_quadratic(QQ, "alpha", -1, -1)  # alpha^2 = alpha + 1
GOLDEN_PLACE = Place.finite(GOLDEN.gen("alpha"), 2)  # t = alpha + r^2
SERIES_PRECISION = 10
TREE_BUDGET = 12  # the most leaves a tree may stand for, counting each power's copies
GOLDEN_T = t_function(GOLDEN, GOLDEN_PLACE)
GOLDEN_ALPHA = GOLDEN_T._constant(GOLDEN.gen("alpha"))
GOLDEN_SERIES = [value.to_puiseux(SERIES_PRECISION) for value in (GOLDEN_T, GOLDEN_ALPHA)]


def _fresh_env(shift: int, precision: int | None):
    """env, const and square_env over the golden place: t, alpha, and new objects for
    x = 1 + shift + 3r^2 + r^3 and y^2 = 2 + shift - r + alpha*r^4, exact or to precision."""
    t, alpha = (GOLDEN_T, GOLDEN_ALPHA) if precision is None else GOLDEN_SERIES
    x = RationalFunction.from_coeffs(GOLDEN, GOLDEN_PLACE, [1 + shift, 0, 3, 1])
    y = RationalFunction.from_coeffs(GOLDEN, GOLDEN_PLACE,
                                     [2 + shift, -1, 0, 0, GOLDEN.gen("alpha")])
    if precision is not None:
        x, y = x.to_puiseux(precision), y.to_puiseux(precision)
    return {"t": t, "alpha": alpha, "x": x}, t._constant, {"y": y}


@st.composite
def _tree_texts(draw):
    """Texts of a few trees built from one pool of subtrees, so subtrees repeat within and
    across them, with negations, negative powers, square-bound y and nonzero divisors."""
    # (tree, known to be nonzero, leaves it stands for)
    pool = [(Num(0), False, 1), *((Num(n), True, 1) for n in (1, 2, 7)), (Sym("t"), True, 1),
            (Sym("alpha"), True, 1), (Pow(Sym("y"), -2), True, 1), (Pow(Sym("y"), 2), True, 1),
            (Sym("x"), True, 1)]
    leaves = len(pool)
    for _ in range(draw(st.integers(3, 8))):
        # one operand of the last two built grows the trees; the other is any subtree
        recent = [entry for entry in pool[-2:] if entry[2] < TREE_BUDGET] or pool[:leaves]
        a, a_nonzero, a_size = draw(st.sampled_from(recent))
        op = draw(st.sampled_from(["+", "-", "*", "/", "neg", "^"]))
        if op == "neg":
            pool.append((Neg(a), a_nonzero, a_size))
            continue
        if op == "^":
            exponents = [k for k in range(-2, 4) if (k >= 0 or a_nonzero)
                         and abs(k) * a_size <= TREE_BUDGET]
            k = draw(st.sampled_from(exponents))
            pool.append((Pow(a, k), a_nonzero or k == 0, max(1, abs(k)) * a_size))
            continue
        others = [entry for entry in pool if entry[2] + a_size <= TREE_BUDGET
                  and (op != "/" or entry[1])]
        b, b_nonzero, b_size = draw(st.sampled_from(others))
        nonzero = a_nonzero and b_nonzero and op in "*/"
        pool.append((BinOp(op, a, b), nonzero, a_size + b_size))
    built = [tree for tree, _, _ in pool[leaves:]]
    return [to_text(tree) for tree in (built[-1], *draw(st.lists(st.sampled_from(built),
                                                               min_size=2, max_size=2)))]


def _evaluated(text: str, shift: int, precision: int | None, *cache: dict):
    """The value of the parsed text over a fresh env, as comparable data, or the error's
    type; evaluate gets cache as its last argument, if one is given."""
    env, const, square_env = _fresh_env(shift, precision)
    try:
        value = evaluate(parse_expression(text), env, const, square_env, *cache)
    except PrecisionExhaustedError as err:
        return type(err).__name__
    if precision is None:
        return value.num, value.den
    return value.lead, value.coeffs, value.precision


@pytest.mark.parametrize("precision", [None, SERIES_PRECISION], ids=["exact", "series"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(texts=_tree_texts())
def test_a_cache_shared_by_separately_parsed_trees_changes_no_value(precision, texts):
    # each evaluation reads an x and a y of its own: a cache entry whose operands had
    # been freed could be found again under a reused id, with the value of another x
    runs = list(enumerate(texts))
    uncached = [_evaluated(text, shift, precision) for shift, text in runs]
    fresh = [_evaluated(text, shift, precision, {}) for shift, text in runs]
    shared: dict = {}
    together = []
    gc.freeze()  # each collection below then scans only what the evaluations made
    try:
        for shift, text in runs:
            gc.collect()
            together.append(_evaluated(text, shift, precision, shared))
    finally:
        gc.unfreeze()
    assert fresh == uncached
    assert together == uncached
