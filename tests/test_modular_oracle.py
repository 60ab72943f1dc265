"""An independent modular check of every exact status the package reports.

Each point claim is read back from its claim text and evaluated over F_p in
plain ints, for a few primes p below 2^31 over which every tower step splits:
each generator goes to a root of its minimal polynomial mod p, t to c + r^e
(r^-e at infinity) for random r, and a square-root variable v, which the
systems read only as v^2, to its radicand.  A ring map from the p-integral
elements of the tower to F_p sends an identity to an identity, so an
equation the package calls exact_zero must vanish at every draw, and one it
calls failed, like a constraint it calls nonzero, must be nonzero at some
draw: a nonzero function vanishes at a random r with probability at most
deg/p (J. T. Schwartz, JACM 27(4), 1980).  A draw where a denominator
vanishes mod p is skipped.  Only exprs.parse_expression and
claims.parse_claim_file read the texts; no package arithmetic is used, and
none of the package's own mod-p code (series._coprime_mod_p).
"""

import functools
import pathlib
import random

import pytest

from localpoints import claims
from localpoints.claims import builtin_registry, load_claim_file, parse_claim_file, run_claim
from localpoints.exprs import BinOp, Neg, Num, Pow, Sym, free_symbols, parse_expression

ROOT = pathlib.Path(__file__).resolve().parent.parent
PRIMES = 3  # per tower
DRAWS = 3  # per prime
VANISHES = ("exact_zero", "zero")  # the statuses that say a value is the zero function


class _Pole(Exception):
    """A denominator is zero mod p at this draw."""


def _is_prime(n):
    """Miller-Rabin with the bases 2, 3, 5 and 7, deterministic below 3.2 * 10^9."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a, p):
    """A square root of a mod the odd prime p (Tonelli-Shanks), or None for a non-square."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, x, b = s, pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:
            i, b2 = i + 1, b2 * b2 % p
        f = pow(c, 1 << (m - i - 1), p)
        m, c, x, b = i, f * f % p, x * f % p, b * f * f % p
    return x


def _inverse(a, p):
    if a % p == 0:
        raise _Pole
    return pow(a, -1, p)


def _value(expr, env, squares, p):
    """expr mod p over env; squares maps each square-root variable to its radicand's value."""
    if isinstance(expr, Num):
        return expr.value % p
    if isinstance(expr, Sym):
        assert expr.name not in squares, f"square-root variable {expr.name} read as itself"
        return env[expr.name]
    if isinstance(expr, Neg):
        return -_value(expr.operand, env, squares, p) % p
    if isinstance(expr, Pow):
        k = expr.exponent
        if isinstance(expr.base, Sym) and expr.base.name in squares:
            assert k % 2 == 0, f"square-root variable {expr.base.name} to an odd power"
            base, k = squares[expr.base.name], k // 2
        else:
            base = _value(expr.base, env, squares, p)
        return pow(_inverse(base, p) if k < 0 else base, abs(k), p)
    left = _value(expr.left, env, squares, p)
    right = _value(expr.right, env, squares, p)
    if expr.op == "+":
        return (left + right) % p
    if expr.op == "-":
        return (left - right) % p
    if expr.op == "*":
        return left * right % p
    return left * _inverse(right, p) % p


def _roots(chain, p, rng):
    """Each generator of the chain of (name, minimal polynomial) sent to a root of its
    monic quadratic mod p, or None when a step does not split or a coefficient's
    denominator is divisible by p."""
    generators = {}
    for name, text in chain:
        minpoly = parse_expression(text)
        try:
            c = _value(minpoly, {**generators, name: 0}, {}, p)
            b = (_value(minpoly, {**generators, name: 1}, {}, p) - 1 - c) % p
        except _Pole:
            return None
        root = _sqrt_mod(b * b - 4 * c, p)
        if root is None:
            return None
        generators[name] = (rng.choice((root, -root)) - b) * _inverse(2, p) % p
    return generators


@functools.cache
def _embeddings(chain):
    """(p, generator values) for the first PRIMES primes below 2^31 over which the tower
    of the chain of adjoin lines splits."""
    rng, found, p = random.Random(str(chain)), [], 2**31
    while len(found) < PRIMES:
        p -= 1
        generators = _roots(chain, p, rng) if p % 2 and _is_prime(p) else None
        if generators is not None:
            found.append((p, generators))
    return found


def _lines(parsed):
    """The claim's system lines as (kind, residual), its equations first: lhs - rhs for an
    equation.  An obstructed claim's cover equation w^2 = g, whose w no let binds, is left
    out, as the package's base system leaves it out."""
    known = {"t", *(var for _, var, _, _ in parsed.lets), *(g for _, g, _ in parsed.adjoins)}
    equations, inequations = [], []
    for _, text in parsed.system_lines:
        if "!=" in text:
            inequations.append(("inequation", parse_expression(text.partition("!=")[0])))
        else:
            lhs, _, rhs = text.partition("=")
            residual = BinOp("-", parse_expression(lhs), parse_expression(rhs))
            equations.append(("equation", residual))
    return [(kind, expr) for kind, expr in equations + inequations if free_symbols(expr) <= known]


def _statuses(parsed, report, lines):
    """The package's status of each line, in the order of lines."""
    evidence = report.evidence
    if "equations" in evidence:
        return [row["status"] for row in evidence["equations"] + evidence["inequations"]]
    # an obstructed claim that got to its cover factor verified its base point exactly
    assert parsed.expect == "obstructed" and "result" in evidence, report.name
    return ["exact_zero" if kind == "equation" else "nonzero" for kind, _ in lines]


def _draws(parsed):
    """Per draw over the claim's primes: the values of t, r, the generators and the exact
    lets, the radicands of the square-root lets, and p."""
    _, center, e = parsed.place
    lets = [(var, parse_expression(text), is_sqrt) for _, var, text, is_sqrt in parsed.lets]
    for p, generators in _embeddings(tuple((name, text) for _, name, text in parsed.adjoins)):
        rng = random.Random(p)
        for _ in range(DRAWS):
            r = rng.randrange(2, p - 1)
            try:
                t = (pow(_inverse(r, p), e, p) if center == "infinity"
                     else (_value(parse_expression(center), generators, {}, p) + pow(r, e, p)) % p)
                env = {**generators, "t": t, "r": r}
                values, squares = dict(env), {}
                for var, expr, is_sqrt in lets:  # lets see t, r and the generators only
                    (squares if is_sqrt else values)[var] = _value(expr, env, {}, p)
            except _Pole:
                continue
            yield values, squares, p


def _problems(parsed, report):
    """(claim, kind, status, values at the draws) of each line whose status the draws
    refute, and the number of lines checked."""
    lines = _lines(parsed)
    statuses = _statuses(parsed, report, lines)
    assert len(statuses) == len(lines), report.name
    seen = [[] for _ in lines]  # per line, its value at each draw
    for values, squares, p in _draws(parsed):
        try:
            row = [_value(expr, values, squares, p) for _, expr in lines]
        except _Pole:
            continue
        for column, value in zip(seen, row):
            column.append(value)
    problems = []
    for (kind, _), status, column in zip(lines, statuses, seen):
        assert column, f"{report.name}: no draw could be evaluated"
        if (status in VANISHES) == any(column):
            problems.append((report.name, kind, status, column))
    return problems, len(lines)


def _checked(text, registry):
    """The oracle over every claim of text that checks a point: problems, lines checked."""
    problems, lines = [], 0
    for parsed in parse_claim_file(text):
        if parsed.orbifold is not None or not parsed.system_lines:
            continue
        found, count = _problems(parsed, run_claim(parsed.name, registry))
        problems += found
        lines += count
    return problems, lines


def _builtins():
    text = claims.POINTS_TEXT + claims.SHIFTED_FORM_TEXT + claims.K3_LIFTS_TEXT
    return text, builtin_registry()


def _file(path):
    return lambda: (path.read_text(encoding="utf-8"), load_claim_file(str(path), {}))


# each corpus with the number of system lines the oracle checks in it: 8 point claims of
# four lines and two lift claims of five; the example's point, and the base of its
# obstructed claim; the eight points and two obstructed bases of the generated file
CORPORA = [
    ("builtin_points", _builtins, 8 * 4 + 2 * 5),
    ("claims_example", _file(ROOT / "claims_example.txt"), 4 + 4),
    ("generated_points_seed1", _file(ROOT / "tests" / "data" / "generated_points_seed1.txt"),
     10 * 4),
]


@pytest.mark.parametrize("corpus, lines", [row[1:] for row in CORPORA],
                         ids=[row[0] for row in CORPORA])
def test_every_exact_status_holds_mod_p(corpus, lines):
    problems, checked = _checked(*corpus())
    assert problems == []
    assert checked == lines


def test_the_oracle_refutes_a_false_exact_zero():
    # the half point with x = 1 misses both equations; a report that calls them exact
    # zeros, and the constraints zero, is refuted, and the true statuses are not
    text = (ROOT / "claims_example.txt").read_text(encoding="utf-8")
    parsed = parse_claim_file(text.replace("let x = 0", "let x = 1", 1))[0]
    report = claims.ClaimReport(parsed.name, "point_verification", "pass", {
        "equations": [{"status": "exact_zero"}] * 2,
        "inequations": [{"status": "zero"}] * 2}, 0.0)
    problems, checked = _problems(parsed, report)
    assert [(kind, status) for _, kind, status, _ in problems] == [
        ("equation", "exact_zero"), ("equation", "exact_zero"),
        ("inequation", "zero"), ("inequation", "zero")]
    report.evidence = {"equations": [{"status": "failed"}] * 2,
                       "inequations": [{"status": "nonzero"}] * 2}
    assert _problems(parsed, report) == ([], checked)
