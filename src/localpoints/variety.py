"""Polynomial systems over the t-line, candidate local points, and verification.

Systems carry equations lhs = rhs plus "!= 0" constraints.  Points bind each
variable to an exact rational function in the local parameter, a truncated
series, or a formal square root of an exact function (legal only when the
variable occurs in even powers).  Verification substitutes and classifies the
residual of every equation and constraint at the point's place.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, reduce
from typing import Callable, Collection, Iterator, Mapping

from .errors import ClaimSyntaxError, OddPowerError, ZeroFunctionError
from .exprs import (
    BinOp,
    Expr,
    Neg,
    Pow,
    Sym,
    _tokenize,
    evaluate,
    free_symbols,
    odd_power_symbols,
    parse_expression,
    source_lines,
    to_text,
)
from .field_tower import FieldTower, QQ
from .records import Record
from .series import (
    DEFAULT_PRECISION,
    Place,
    PuiseuxSeries,
    RationalFunction,
    SquareOutcome,
    r_function,
    t_function,
)

LOCAL_PARAMETER = "r"


class Equation(Record):
    """lhs = rhs; each property depends on the text alone, so it is kept once worked out."""

    _fields = ("lhs", "rhs")

    def __init__(self, lhs: Expr, rhs: Expr) -> None:
        self.lhs = lhs
        self.rhs = rhs

    @cached_property
    def text(self) -> str:
        return f"{to_text(self.lhs)} = {to_text(self.rhs)}"

    @cached_property
    def cleared(self) -> tuple[Expr, Expr, str | None]:
        """Both sides times every symbol-bearing denominator (i.e. powers of t), and its text."""
        denominators = [d for side in (self.lhs, self.rhs) for _, d, _ in _denominators(side)
                        if free_symbols(d)]
        if not denominators:
            return self.lhs, self.rhs, None
        multiplier = reduce(lambda a, b: BinOp("*", a, b), denominators)
        lhs, rhs = BinOp("*", multiplier, self.lhs), BinOp("*", multiplier, self.rhs)
        return lhs, rhs, to_text(multiplier)


class PolynomialSystem(Record):
    """Equations and "!= 0" constraints; as on Equation, each property is kept once worked out.

    _subsystems, filled by without_equation, takes no part in equality.
    """

    _fields = ("tower", "variables", "equations", "inequations")

    def __init__(self, tower: FieldTower, variables: tuple[str, ...],
                 equations: tuple[Equation, ...], inequations: tuple[Expr, ...]) -> None:
        self.tower = tower
        self.variables = variables
        self.equations = equations
        self.inequations = inequations
        self._subsystems: dict[int, PolynomialSystem] = {}

    @cached_property
    def inequation_texts(self) -> tuple[str, ...]:
        return tuple(f"{to_text(ineq)} != 0" for ineq in self.inequations)

    @cached_property
    def odd_powers(self) -> frozenset[str]:
        """Every name (variable, t or generator) some side uses other than in an even power."""
        sides = [side for eq in self.equations for side in (eq.lhs, eq.rhs)]
        return frozenset().union(*map(odd_power_symbols, sides + list(self.inequations)))

    def without_equation(self, index: int) -> PolynomialSystem:
        """The system less one equation, built once per index; it shares the equations kept."""
        if index not in self._subsystems:
            equations = self.equations[:index] + self.equations[index + 1 :]
            sides = [side for eq in equations for side in (eq.lhs, eq.rhs)]
            used = set().union(*map(free_symbols, sides + list(self.inequations)))
            variables = tuple(v for v in self.variables if v in used)
            self._subsystems[index] = PolynomialSystem(
                self.tower, variables, equations, self.inequations)
        return self._subsystems[index]


def _denominators(expr: Expr) -> Iterator[tuple[Expr, Expr, str]]:
    """(node, denominator, error if it has a variable) per divisor of expr, outermost first."""
    if isinstance(expr, Neg):
        yield from _denominators(expr.operand)
    elif isinstance(expr, Pow):
        if expr.exponent < 0:
            yield expr, Pow(expr.base, -expr.exponent), "negative power of a variable"
        yield from _denominators(expr.base)
    elif isinstance(expr, BinOp):
        if expr.op == "/":
            yield expr, expr.right, "division by an expression containing variables"
        yield from _denominators(expr.left)
        yield from _denominators(expr.right)


def _zero_divisor(expr: Expr, divisors: dict, env: dict, const: Callable,
                  cache: dict) -> tuple[int, int] | None:
    """Where the first zero divisor of expr starts, in source order, if one is zero.

    divisors holds where each divisor starts, by parse_expression.  A divisor
    that itself divides by zero is passed over: a later divisor, inside it, is
    the zero one.
    """
    found = sorted(((divisors[id(node)], denominator) for node, denominator, _
                    in _denominators(expr)), key=lambda pair: pair[0])
    for at, denominator in found:
        try:
            if not evaluate(denominator, env, const, cache=cache):
                return at
        except ZeroDivisionError:
            continue
    return None


def parse_system(text: str, tower: FieldTower = QQ) -> PolynomialSystem:
    """Parse one equation or "!= 0" constraint per line.

    Identifiers that are not t or tower generators become system variables;
    the local parameter r is reserved and rejected here, at its first use.  A
    divisor in t and the generators alone is evaluated exactly at t = r: a
    function of t that vanishes at one place vanishes at every place, so a
    zero one is an error at its first zero divisor, or at a negative power's base.
    """
    reserved = {"t"} | set(tower.generator_names)
    equations: list[Equation] = []
    inequations: list[Expr] = []
    sides: list[tuple[Expr, str, int, int]] = []  # every parsed side: its text, line, column
    divisors: dict = {}  # where each side's divisors start, by parse_expression

    def side(text: str, lineno: int, column: int) -> Expr:
        sides.append((parse_expression(text, lineno, column, divisors), text, lineno, column))
        return sides[-1][0]

    for lineno, raw in enumerate(source_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "!=" in line:
            lhs_text, _, rhs_text = line.partition("!=")
            if rhs_text.strip() != "0":
                raise ClaimSyntaxError("constraints must end in != 0", lineno, line.index("!=") + 1)
            inequations.append(side(lhs_text, lineno, 1))
        elif "=" in line:
            lhs_text, _, rhs_text = line.partition("=")
            equations.append(Equation(side(lhs_text, lineno, 1),
                                      side(rhs_text, lineno, len(lhs_text) + 2)))
        else:
            raise ClaimSyntaxError("expected '=' or '!= 0'", lineno, 1)
    seen = set().union(*(free_symbols(expr) for expr, *_ in sides))
    if LOCAL_PARAMETER in seen:
        at = next((line, column) for _, text, *start in sides
                  for _, word, line, column in _tokenize(text, *start) if word == LOCAL_PARAMETER)
        raise ClaimSyntaxError("the local parameter r cannot appear in a system", *at)
    variables = tuple(sorted(seen - reserved))
    var_set = set(variables)
    coordinates = _coordinates(t_function(tower, Place.finite(tower.zero())), tower)
    const, cache = coordinates["t"]._constant, {}
    for expr, *_ in sides:
        for node, denominator, message in _denominators(expr):
            if free_symbols(denominator) & var_set:
                raise ClaimSyntaxError(message, *divisors[id(node)])
        at = _zero_divisor(expr, divisors, coordinates, const, cache)
        if at:
            raise ClaimSyntaxError("division by zero in system", *at)
    return PolynomialSystem(tower, variables, tuple(equations), tuple(inequations))


def print_system(system: PolynomialSystem) -> str:
    return "\n".join([eq.text for eq in system.equations] + list(system.inequation_texts))


# -- point assignments -----------------------------------------------------------


class FormalSqrt(Record):
    """The variable stands for a square root of this exact function."""

    __slots__ = _fields = ("square",)

    def __init__(self, square: RationalFunction) -> None:
        self.square = square


Binding = RationalFunction | PuiseuxSeries | FormalSqrt  # PEP 604, not cached: see exprs.Expr


class PointAssignment(Record):
    """Bindings of the variables at a place.

    cache is the point's exact evaluation state, filled by every exact
    evaluation at the point (_exact_context): its system passes, cover
    factors and, for a claim, its lets.  It never takes part in equality.
    """

    __slots__ = ("place", "bindings", "cache")
    _fields = ("place", "bindings")

    def __init__(self, place: Place, bindings: Mapping[str, Binding],
                 cache: dict | None = None) -> None:
        self.place = place
        self.bindings = bindings
        self.cache = {} if cache is None else cache


# -- verification ------------------------------------------------------------------


def _coordinates(t: RationalFunction | PuiseuxSeries, tower: FieldTower) -> dict:
    """t and the generator constants, in t's backend."""
    return {"t": t, **{name: t._constant(tower.gen(name)) for name in tower.generator_names}}


def _exact_context(cache: dict, tower: FieldTower, place: Place) -> tuple[dict, dict]:
    """(values, evaluate cache) for exact evaluation over tower at place, kept in cache.

    values holds t and the generator constants.  Both are made at the first
    call for the tower and kept under it, so every evaluation that shares
    cache reads the same t and generator objects and fills one evaluate
    cache: a product one of them made, another finds.  cache belongs to one
    place, as a point's cache does.
    """
    context = cache.get(tower)
    if context is None:
        context = cache[tower] = (_coordinates(t_function(tower, place), tower), {})
    return context


def _env(system: PolynomialSystem, point: PointAssignment, precision: int | None = None):
    """evaluate's env, const, square_env and cache for the point.

    Exact: the values and the cache of the point's _exact_context, shared by
    every exact evaluation at the point.  To precision: series expansions,
    over a cache of their own.
    """
    tower = system.tower

    def expand(f: RationalFunction):
        return f if precision is None else f.to_puiseux(precision)

    if precision is None:
        values, cache = _exact_context(point.cache, tower, point.place)
    else:
        values, cache = _coordinates(expand(t_function(tower, point.place)), tower), {}
    env = dict(values)
    const = env["t"]._constant  # a constant of t's backend, place and precision
    shadowed = next((variable for variable in point.bindings if variable in env), None)
    if shadowed is not None:
        raise ValueError(f"a binding may not shadow {shadowed!r}: the system reads it as "
                         "t or a generator")
    square_env = {}
    for variable, value in point.bindings.items():
        if isinstance(value, FormalSqrt):
            square_env[variable] = expand(value.square)
        elif isinstance(value, RationalFunction):
            env[variable] = expand(value)
        elif precision is None:
            raise ValueError(f"exact mode needs exact bindings; {variable!r} is a series")
        else:
            env[variable] = value
    return env, const, square_env, cache


def verify_point(
    system: PolynomialSystem,
    point: PointAssignment,
    mode: str = "exact",
    precision: int = DEFAULT_PRECISION,
) -> dict:
    """Substitute the point into every equation and constraint and classify.

    The report is the evidence dict: mode, place, passed, and per equation its
    status (exact_zero, zero_to_precision or failed), text, precision,
    residual_order, residual_lead and cleared_by, per constraint its status
    (nonzero, zero or zero_to_precision), text, order and lead; an empty one is None.
    Exact mode certifies true zero residuals and true nonzero constraints;
    truncated mode reports agreement to the stated precision, never more.
    Exact mode evaluates over the point's cache (_exact_context), so it makes
    no operation an earlier exact evaluation at the point made.
    """
    if mode not in ("exact", "truncated"):
        raise ValueError(f"unknown mode {mode!r}")
    unbound = [v for v in system.variables if v not in point.bindings]
    if unbound:
        raise ValueError(f"unbound variables: {', '.join(unbound)}")
    odd = next((v for v, value in point.bindings.items()
                if isinstance(value, FormalSqrt) and v in system.odd_powers), None)
    if odd is not None:
        raise OddPowerError(f"square-root variable {odd!r} occurs with an odd power")
    env, const, square_env, cache = _env(system, point, None if mode == "exact" else precision)

    exact = mode == "exact"
    equations = []
    for eq in system.equations:
        lhs_expr, rhs_expr, cleared_by = eq.cleared
        residual = (evaluate(lhs_expr, env, const, square_env, cache)
                    - evaluate(rhs_expr, env, const, square_env, cache))
        zero = residual.is_zero()
        equations.append({
            "status": ("exact_zero" if exact else "zero_to_precision") if zero else "failed",
            "text": eq.text,
            "precision": None if exact else residual.precision,
            "residual_order": None if zero else residual.order_at_zero(),
            "residual_lead": None if zero else str(residual.leading_coefficient()),
            "cleared_by": cleared_by,
        })
    inequations = []
    for ineq, text in zip(system.inequations, system.inequation_texts):
        value = evaluate(ineq, env, const, square_env, cache)
        zero = value.is_zero()
        inequations.append({
            "status": ("zero" if exact else "zero_to_precision") if zero else "nonzero",
            "text": text,
            "order": None if zero else value.order_at_zero(),
            "lead": None if zero else str(value.leading_coefficient()),
        })
    passed = (all(e["status"] != "failed" for e in equations)
              and all(i["status"] == "nonzero" for i in inequations))
    return {"mode": mode, "place": str(point.place), "passed": passed,
            "equations": equations, "inequations": inequations}


# -- squareness and lifting ---------------------------------------------------------


def _square_outcome(order: int, kinds: tuple[str, str]) -> SquareOutcome:
    """The squareness of a nonzero exact value of this order, named by kinds (square,
    nonsquare): the parity of the order, at any precision."""
    square, nonsquare = kinds
    return SquareOutcome(nonsquare if order % 2 else square, order)


def solve_square(system: PolynomialSystem, lhs: Expr, g: Expr,
                 point: PointAssignment) -> SquareOutcome:
    """Decide whether lhs/g is a local square at the point, from the parity of its
    order, order(lhs) - order(g): no quotient is formed.

    A vanishing g raises ZeroDivisionError, a vanishing lhs ZeroFunctionError.
    """
    context = _env(system, point)
    lhs_value = evaluate(lhs, *context)
    g_value = evaluate(g, *context)
    if g_value.is_zero():
        raise ZeroDivisionError("square factor vanishes at the point")
    if lhs_value.is_zero():
        raise ZeroFunctionError("left-hand side vanishes at the point")
    return _square_outcome(lhs_value.order_at_zero() - g_value.order_at_zero(),
                           ("witness", "nonsquare"))


def find_cover_equation(
    cover: PolynomialSystem, bound: Collection[str]
) -> tuple[PolynomialSystem, str, Expr]:
    """(base, w, g) of the unique equation w^2 = g whose variable is not among the bound
    names; base is the cover less that equation, built once (without_equation)."""
    for index, eq in enumerate(cover.equations):
        for side, other in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            if (
                isinstance(side, Pow)
                and side.exponent == 2
                and isinstance(side.base, Sym)
                and side.base.name in cover.variables
                and side.base.name not in bound
            ):
                return cover.without_equation(index), side.base.name, other
    raise ValueError("no cover equation w^2 = g with an unbound variable")


def lift_along_cover(cover: PolynomialSystem, base_point: PointAssignment) -> SquareOutcome:
    """Try to lift a base point along the double cover w^2 = g.

    The base point must verify exactly on the base system, or this raises
    ValueError.  An odd-valuation g is the obstruction certificate.
    """
    base, _, g_expr = find_cover_equation(cover, base_point.bindings)
    if not verify_point(base, base_point, mode="exact")["passed"]:
        raise ValueError("base point does not verify on the base system")
    g_value = evaluate(g_expr, *_env(cover, base_point))
    if g_value.is_zero():
        raise ZeroFunctionError("cover factor vanishes at the point")
    return _square_outcome(g_value.order_at_zero(), ("lifts", "obstructed"))


# -- the eight-case valuation split --------------------------------------------------


def valuation_case_predicates(vu: Fraction, vx: Fraction) -> tuple[bool, ...]:
    """The eight mutually exclusive regions of the (v(u), v(x)) plane.

    Transcribed one predicate per case so that totality and disjointness are
    testable facts rather than artifacts of an if-chain.  With vu = p/q and
    vx = m/n (q, n > 0) each predicate is a comparison of integers; ints are
    accepted as well.
    """
    p, q = vu.numerator, vu.denominator
    m, n = vx.numerator, vx.denominator
    half = 2 * p == -q  # vu = -1/2
    between = -q < 2 * p and p < 0  # -1/2 < vu < 0
    return (
        2 * p < -q,
        half and m > 0,
        half and m == 0,
        half and m < 0,
        between and 2 * m * q < n * (q + 2 * p),
        between and 2 * m * q >= n * (q + 2 * p),
        p >= 0 and 2 * m + n <= 0,
        p >= 0 and 2 * m + n > 0,
    )


# -- sampled square-lift property ------------------------------------------------------

# A Laurent polynomial r^a * (c_0 + c_1 r + ...) with c_0 != 0 is held as its
# order a and its unit's coefficient list.  Every drawn coefficient is n/d with
# d in {1, 2, 3}, so the list holds the integers 6 * c_k: orders do not see
# the common factor, and integer sums are cheaper than Fraction sums.


def _random_unit(rng: random.Random) -> list[int]:
    """Six times one to three coefficients, the first nonzero."""
    terms = rng.randint(1, 3)
    coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) * (6 // rng.randint(1, 3))]
    coeffs += [rng.randint(-3, 3) * (6 // rng.randint(1, 3)) for _ in range(terms - 1)]
    return coeffs


def _square(coeffs: list[int]) -> list[int]:
    out = [0] * (2 * len(coeffs) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs):
            out[i + j] += a * b
    return out


def _order_of_sum(*terms: tuple[int, int, list[int]]) -> int | None:
    """Order at r = 0 of the sum of scale * r^shift * unit^2; None when the sum is zero.

    A unit's first coefficient is nonzero, and so is its square's, so a term's
    order is its shift: a lowest shift that one term alone has is the order of
    the sum.  Only a tie squares the units and sums their coefficients.
    """
    shifts = [shift for shift, _, _ in terms]
    lowest = min(shifts)
    if shifts.count(lowest) == 1:
        return lowest
    total: dict[int, int] = {}
    for shift, scale, unit in terms:
        for exponent, c in enumerate(_square(unit), start=shift):
            total[exponent] = total.get(exponent, 0) + scale * c
    return min((exponent for exponent, c in total.items() if c), default=None)


def _sample_orders(
    e: int, a: int, u: list[int], b: int, x: list[int]
) -> tuple[int | None, int | None, int | None]:
    """Orders at r = 0 of g, lhs1 and lhs2_cleared for u = r^a u(r), x = r^b x(r), t = r^e.

    g = u^2 t^2 - t, lhs1 = x^2 - t u^2 + t, lhs2_cleared = x^2 t - 2 t^2 u^2 + 1;
    None marks a sum that vanishes.  The lists hold 6 u(r) and 6 x(r), so each
    sum is taken times 36, and its constant 36 is the square of the unit 6.
    """
    six = [6]
    g = _order_of_sum((2 * a + 2 * e, 1, u), (e, -1, six))
    lhs1 = _order_of_sum((2 * b, 1, x), (2 * a + e, -1, u), (e, 1, six))
    lhs2 = _order_of_sum((2 * b + e, 1, x), (2 * a + 2 * e, -2, u), (0, 1, six))
    return g, lhs1, lhs2


def _laurent_text(e: int, order: int, coeffs: list[int]) -> str:
    """The printed form, at t = r^e, of r^order times the unit with six times these coefficients."""
    place = Place.finite(QQ.zero(), e)
    unit = RationalFunction.from_coeffs(QQ, place, [Fraction(c, 6) for c in coeffs])
    shift = r_function(QQ, place) ** abs(order)
    return str(unit * shift if order >= 0 else unit / shift)


# The sweep's grid of valuations (a/e, b/e): ramifications e and numerators a, b.
GRID_RAMIFICATIONS = range(1, 7)
GRID_NUMERATORS = range(-12, 13)


def _grid_cases() -> tuple[dict[int, list[tuple[int, int, int]]], list[dict]]:
    """The grid triples (e, a, b) grouped by the case of (a/e, b/e), and the grid's violations.

    Each list keeps grid order: e, then a, then b, as the violations do: the
    points where other than one case predicate holds, with the number that do.
    """
    by_case: dict[int, list[tuple[int, int, int]]] = {case: [] for case in range(1, 9)}
    violations: list[dict] = []
    for e in GRID_RAMIFICATIONS:
        values = [(n, Fraction(n, e)) for n in GRID_NUMERATORS]
        for a, vu in values:
            for b, vx in values:
                predicates = valuation_case_predicates(vu, vx)
                hits = sum(predicates)
                if hits == 1:
                    by_case[predicates.index(True) + 1].append((e, a, b))
                else:
                    violations.append({"e": e, "vu": f"{a}/{e}", "vx": f"{b}/{e}", "hits": hits})
    return by_case, violations


def _draws(samples: int, seed: int) -> Iterator[tuple[int, int, int, list[int], int, list[int]]]:
    """The sweep's draws (case, e, a, u, b, x), in the order the seeded stream makes them.

    (e, a, b) is drawn uniformly from the grid triples in the wanted case, the
    distribution that rejection from the whole grid gives; u and x are the
    units of the Laurent polynomials of orders a and b.  Every case has grid
    triples, so every draw finds one.  A grid point where the case predicates
    do not partition raises AssertionError.
    """
    if samples < 0:
        raise ValueError(f"a sweep needs samples >= 0; got {samples}")
    by_case, violations = _grid_cases()
    if violations:
        raise AssertionError(f"case predicates not a partition at {violations[0]}")
    rng = random.Random(seed)
    for k in range(samples):
        case = k % 8 + 1
        e, a, b = rng.choice(by_case[case])
        yield case, e, a, _random_unit(rng), b, _random_unit(rng)


def sample_square_lift_property(samples: int = 500, seed: int = 1) -> dict:
    """Stratified random check: solvable-for-y-and-z forces the cover factor square.

    Draws (v(u), v(x)) = (a/e, b/e) from the grid GRID_RAMIFICATIONS x
    GRID_NUMERATORS^2, from each of the eight case regions in equal proportion,
    with random Laurent polynomial u, x realizing those valuations.  Whenever
    both residual quotients for y^2 and z^2 have even order (squares over the
    complex numbers) and no constraint vanishes, the cover factor u^2 t^2 - t
    must have even order as well.  Counterexamples are returned, expected none.
    Orders are read from coefficient lists, with no gcd.
    """
    counts = {case: 0 for case in range(1, 9)}
    hypothesis_hits = 0
    degenerate = 0
    counterexamples: list[dict] = []
    for case, e, a, u, b, x in _draws(samples, seed):
        counts[case] += 1
        g_order, lhs1_order, lhs2_order = _sample_orders(e, a, u, b, x)
        if None in (g_order, lhs1_order, lhs2_order):
            degenerate += 1
            continue
        # orders of the quotients lhs1 / g and lhs2_cleared / (t^2 g), read
        # without forming them
        qy_order = lhs1_order - g_order
        qz_order = lhs2_order - 2 * e - g_order
        if qy_order % 2 or qz_order % 2:
            continue
        hypothesis_hits += 1
        if g_order % 2:
            counterexamples.append({"e": e, "case": case, "u": _laurent_text(e, a, u),
                                    "x": _laurent_text(e, b, x), "g_order": g_order})
    return {
        "samples": samples,
        "seed": seed,
        "case_counts": counts,
        "hypothesis_hits": hypothesis_hits,
        "degenerate": degenerate,
        "counterexamples": counterexamples,
    }
