"""Polynomial systems over the t-line, candidate local points, and verification.

Systems carry equations lhs = rhs plus "!= 0" constraints.  Points bind each
variable to an exact rational function in the local parameter, a truncated
series, or a formal square root of an exact function (legal only when the
variable occurs in even powers).  Verification substitutes and classifies the
residual of every equation and constraint at the point's place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterator, Mapping

from .errors import ClaimSyntaxError, OddPowerError, PrecisionExhaustedError, ZeroFunctionError
from .exprs import (
    BinOp,
    Expr,
    Neg,
    Pow,
    Sym,
    evaluate,
    free_symbols,
    only_even_powers,
    parse_expression,
    to_text,
)
from .field_tower import FieldTower, QQ
from .series import (
    DEFAULT_PRECISION,
    LocalSquareCheck,
    Place,
    PuiseuxSeries,
    RationalFunction,
    is_square_local,
    r_function,
    series_sqrt,
    t_function,
)

LOCAL_PARAMETER = "r"


@dataclass(frozen=True)
class Equation:
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class PolynomialSystem:
    tower: FieldTower
    variables: tuple[str, ...]
    equations: tuple[Equation, ...]
    inequations: tuple[Expr, ...]

    def without_equation(self, index: int) -> PolynomialSystem:
        equations = self.equations[:index] + self.equations[index + 1 :]
        used = set()
        for eq in equations:
            used |= free_symbols(eq.lhs) | free_symbols(eq.rhs)
        for ineq in self.inequations:
            used |= free_symbols(ineq)
        variables = tuple(v for v in self.variables if v in used)
        return PolynomialSystem(self.tower, variables, equations, self.inequations)


def _denominators(expr: Expr) -> Iterator[tuple[Expr, str]]:
    """Each denominator of expr that holds a symbol, outermost first, with what makes it one."""
    if isinstance(expr, Neg):
        yield from _denominators(expr.operand)
    elif isinstance(expr, Pow):
        if expr.exponent < 0 and free_symbols(expr.base):
            yield Pow(expr.base, -expr.exponent), "negative power of a variable"
        yield from _denominators(expr.base)
    elif isinstance(expr, BinOp):
        if expr.op == "/" and free_symbols(expr.right):
            yield expr.right, "division by an expression containing variables"
        yield from _denominators(expr.left)
        yield from _denominators(expr.right)


def parse_system(text: str, tower: FieldTower = QQ) -> PolynomialSystem:
    """Parse one equation or "!= 0" constraint per line.

    Identifiers that are not t or tower generators become system variables;
    the local parameter r is reserved and rejected here.
    """
    reserved = {"t"} | set(tower.generator_names)
    equations: list[Equation] = []
    inequations: list[Expr] = []
    sides: list[tuple[int, Expr]] = []  # every parsed side, with its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "!=" in line:
            lhs_text, _, rhs_text = line.partition("!=")
            if rhs_text.strip() != "0":
                raise ClaimSyntaxError("constraints must end in != 0", lineno, line.index("!=") + 1)
            expr = parse_expression(lhs_text, lineno)
            inequations.append(expr)
            sides.append((lineno, expr))
        elif "=" in line:
            lhs_text, _, rhs_text = line.partition("=")
            lhs = parse_expression(lhs_text, lineno)
            rhs = parse_expression(rhs_text, lineno, column=len(lhs_text) + 2)
            equations.append(Equation(lhs, rhs))
            sides += [(lineno, lhs), (lineno, rhs)]
        else:
            raise ClaimSyntaxError("expected '=' or '!= 0'", lineno, 1)
    seen = set().union(*(free_symbols(expr) for _, expr in sides))
    if LOCAL_PARAMETER in seen:
        lineno = next(n for n, expr in sides if LOCAL_PARAMETER in free_symbols(expr))
        raise ClaimSyntaxError("the local parameter r cannot appear in a system", lineno, 1)
    variables = tuple(sorted(seen - reserved))
    var_set = set(variables)
    for lineno, expr in sides:
        for denominator, message in _denominators(expr):
            if free_symbols(denominator) & var_set:
                raise ClaimSyntaxError(message, lineno, 1)
    return PolynomialSystem(tower, variables, tuple(equations), tuple(inequations))


def print_system(system: PolynomialSystem) -> str:
    lines = [f"{to_text(eq.lhs)} = {to_text(eq.rhs)}" for eq in system.equations]
    lines += [f"{to_text(ineq)} != 0" for ineq in system.inequations]
    return "\n".join(lines)


# -- point assignments -----------------------------------------------------------


@dataclass(frozen=True)
class ExactValue:
    value: RationalFunction


@dataclass(frozen=True)
class SeriesValue:
    value: PuiseuxSeries


@dataclass(frozen=True)
class FormalSqrt:
    """The variable stands for a square root of this exact function."""

    square: RationalFunction


Binding = ExactValue | SeriesValue | FormalSqrt  # PEP 604, not cached: see exprs.Expr


@dataclass(frozen=True)
class PointAssignment:
    place: Place
    bindings: Mapping[str, Binding]

    def sqrt_variables(self) -> tuple[str, ...]:
        return tuple(v for v, b in self.bindings.items() if isinstance(b, FormalSqrt))


# -- verification ------------------------------------------------------------------


@dataclass
class EquationResult:
    status: str  # "exact_zero" | "zero_to_precision" | "failed"
    text: str
    precision: int | None = None
    residual_order: int | None = None
    residual_lead: str | None = None
    cleared_by: str | None = None


@dataclass
class InequationResult:
    status: str  # "nonzero" | "zero" | "zero_to_precision"
    text: str
    order: int | None = None
    lead: str | None = None


@dataclass
class VerificationReport:
    mode: str
    place: str
    equations: list[EquationResult] = field(default_factory=list)
    inequations: list[InequationResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.status in ("exact_zero", "zero_to_precision") for e in self.equations) and all(
            i.status == "nonzero" for i in self.inequations
        )

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "place": self.place,
            "passed": self.passed,
            "equations": [vars(e) for e in self.equations],
            "inequations": [vars(i) for i in self.inequations],
        }

    def summary(self) -> str:
        lines = [f"mode={self.mode} place=[{self.place}] -> {'PASS' if self.passed else 'FAIL'}"]
        for k, eq in enumerate(self.equations, start=1):
            detail = eq.status
            if eq.status == "zero_to_precision":
                detail += f" P={eq.precision}"
            if eq.status == "failed":
                detail += f" (residual order {eq.residual_order}, lead {eq.residual_lead})"
            lines.append(f"  eq {k}: {detail}")
        for k, ineq in enumerate(self.inequations, start=1):
            detail = ineq.status
            if ineq.status == "nonzero":
                detail += f" (order {ineq.order}, lead {ineq.lead})"
            lines.append(f"  ineq {k}: {detail}")
        return "\n".join(lines)


def _cleared_sides(eq: Equation) -> tuple[Expr, Expr, Expr | None]:
    """Multiply both sides by every symbol-bearing denominator (i.e. powers of t)."""
    denominators = [d for side in (eq.lhs, eq.rhs) for d, _ in _denominators(side)]
    if not denominators:
        return eq.lhs, eq.rhs, None
    multiplier = reduce(lambda a, b: BinOp("*", a, b), denominators)
    return BinOp("*", multiplier, eq.lhs), BinOp("*", multiplier, eq.rhs), multiplier


def _odd_power_variable(system: PolynomialSystem, variables) -> str | None:
    """The first of variables that the system uses with an odd power, if any."""
    sides = [side for eq in system.equations for side in (eq.lhs, eq.rhs)]
    sides += system.inequations
    return next((variable for variable in variables
                 if not all(only_even_powers(side, variable) for side in sides)), None)


def _env(system: PolynomialSystem, point: PointAssignment, precision: int | None = None):
    """Values for t, the generators and the bindings: exact, or series to precision."""
    tower = system.tower
    place = point.place
    if precision is None:
        const = lambda q: RationalFunction.constant(tower, place, q)  # noqa: E731
        expand = lambda f: f  # noqa: E731
    else:
        const = lambda q: PuiseuxSeries.constant(tower, place, q, precision)  # noqa: E731
        expand = lambda f: f.to_puiseux(precision)  # noqa: E731
    env = {"t": expand(t_function(tower, place))}
    for name in tower.generator_names:
        env[name] = const(tower.gen(name))
    square_env = {}
    for variable, binding in point.bindings.items():
        if isinstance(binding, ExactValue):
            env[variable] = expand(binding.value)
        elif isinstance(binding, FormalSqrt):
            square_env[variable] = expand(binding.square)
        elif precision is None:
            raise ValueError(f"exact mode needs exact bindings; {variable!r} is a series")
        else:
            env[variable] = binding.value
    return env, square_env, const


def verify_point(
    system: PolynomialSystem,
    point: PointAssignment,
    mode: str = "exact",
    precision: int = DEFAULT_PRECISION,
) -> VerificationReport:
    """Substitute the point into every equation and constraint and classify.

    Exact mode certifies true zero residuals and true nonzero constraints;
    truncated mode reports agreement to the stated precision, never more.
    """
    if mode not in ("exact", "truncated"):
        raise ValueError(f"unknown mode {mode!r}")
    unbound = [v for v in system.variables if v not in point.bindings]
    if unbound:
        raise ValueError(f"unbound variables: {', '.join(unbound)}")
    odd = _odd_power_variable(system, point.sqrt_variables())
    if odd is not None:
        raise OddPowerError(f"square-root variable {odd!r} occurs with an odd power")
    env, square_env, const = _env(system, point, None if mode == "exact" else precision)
    cache: dict = {}

    report = VerificationReport(mode=mode, place=str(point.place))
    for eq in system.equations:
        lhs_expr, rhs_expr, multiplier = _cleared_sides(eq)
        text = f"{to_text(eq.lhs)} = {to_text(eq.rhs)}"
        cleared_by = to_text(multiplier) if multiplier is not None else None
        residual = evaluate(lhs_expr, env, const, square_env, cache) - evaluate(
            rhs_expr, env, const, square_env, cache
        )
        known_to = None if mode == "exact" else residual.precision
        if residual.is_zero():
            status = "exact_zero" if mode == "exact" else "zero_to_precision"
            result = EquationResult(status, text, precision=known_to, cleared_by=cleared_by)
        else:
            result = EquationResult(
                "failed",
                text,
                precision=known_to,
                residual_order=residual.order_at_zero(),
                residual_lead=str(residual.leading_coefficient()),
                cleared_by=cleared_by,
            )
        report.equations.append(result)

    for ineq in system.inequations:
        text = f"{to_text(ineq)} != 0"
        value = evaluate(ineq, env, const, square_env, cache)
        if value.is_zero():
            status = "zero" if mode == "exact" else "zero_to_precision"
            report.inequations.append(InequationResult(status, text))
        else:
            report.inequations.append(
                InequationResult(
                    "nonzero",
                    text,
                    order=value.order_at_zero(),
                    lead=str(value.leading_coefficient()),
                )
            )
    return report


# -- squareness and lifting ---------------------------------------------------------


@dataclass
class SquareOutcome:
    kind: str  # "witness" | "nonsquare"
    order: int | None = None
    witness: PuiseuxSeries | None = None
    tower: FieldTower | None = None


def evaluate_at_point(
    system: PolynomialSystem, point: PointAssignment, expr: Expr
) -> RationalFunction:
    """Exact value of an expression under the point's bindings."""
    env, square_env, const = _env(system, point)
    return evaluate(expr, env, const, square_env)


def _local_root(
    value: RationalFunction, mode: str, precision: int
) -> tuple[LocalSquareCheck, PuiseuxSeries | None, FieldTower | None]:
    """Squareness of a nonzero exact value, with a series root when it is a square.

    A value whose expansion is zero to precision has no root to compute, so
    that raises PrecisionExhaustedError.
    """
    check = is_square_local(value, mode)
    if check.kind != "yes":
        return check, None, None
    expansion = value.to_puiseux(precision)
    if expansion.is_zero():
        raise PrecisionExhaustedError(
            f"the square is zero to precision {precision}; its root has no known coefficient"
        )
    witness, tower = series_sqrt(expansion)
    return check, witness, tower


def solve_square(
    system: PolynomialSystem,
    lhs: Expr,
    g: Expr,
    point: PointAssignment,
    mode: str = "over_c",
    precision: int = DEFAULT_PRECISION,
) -> SquareOutcome:
    """Decide whether lhs/g is a local square at the point; witness on success."""
    lhs_value = evaluate_at_point(system, point, lhs)
    g_value = evaluate_at_point(system, point, g)
    if g_value.is_zero():
        raise ZeroDivisionError("square factor vanishes at the point")
    if lhs_value.is_zero():
        raise ZeroFunctionError("left-hand side vanishes at the point")
    check, witness, tower = _local_root(lhs_value / g_value, mode, precision)
    kind = {"yes": "witness", "no": "nonsquare"}[check.kind]
    return SquareOutcome(kind, order=check.order, witness=witness, tower=tower)


@dataclass
class LiftOutcome:
    kind: str  # "lifts" | "obstructed"
    variable: str
    order: int | None = None
    witness: PuiseuxSeries | None = None
    tower: FieldTower | None = None


def find_cover_equation(
    cover: PolynomialSystem, point: PointAssignment
) -> tuple[int, str, Expr]:
    """Locate the unique equation w^2 = g whose variable the point leaves unbound."""
    for index, eq in enumerate(cover.equations):
        for side, other in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            if (
                isinstance(side, Pow)
                and side.exponent == 2
                and isinstance(side.base, Sym)
                and side.base.name in cover.variables
                and side.base.name not in point.bindings
            ):
                return index, side.base.name, other
    raise ValueError("no cover equation w^2 = g with an unbound variable")


def lift_along_cover(
    cover: PolynomialSystem,
    base_point: PointAssignment,
    mode: str = "over_c",
    precision: int = DEFAULT_PRECISION,
    twist: RationalFunction | None = None,
    check_base: bool = True,
) -> LiftOutcome:
    """Try to lift a verified base point along the double cover w^2 = g.

    An odd-valuation g is the obstruction certificate.  A fractional cover
    factor, made integral by ramification, enters as the twist multiplier.
    Callers that already verified the base point can pass check_base=False.
    """
    index, variable, g_expr = find_cover_equation(cover, base_point)
    base = cover.without_equation(index)
    if check_base:
        base_report = verify_point(base, base_point, mode="exact")
        if not base_report.passed:
            raise ValueError("base point does not verify on the base system")
    g_value = evaluate_at_point(base, base_point, g_expr)
    if twist is not None:
        g_value = g_value * twist
    if g_value.is_zero():
        raise ZeroFunctionError("cover factor vanishes at the point")
    check, witness, tower = _local_root(g_value, mode, precision)
    kind = {"yes": "lifts", "no": "obstructed"}[check.kind]
    return LiftOutcome(kind, variable, order=check.order, witness=witness, tower=tower)


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


def valuation_case(vu: Fraction, vx: Fraction) -> int:
    """Index (1-8) of the unique case region containing (v(u), v(x))."""
    predicates = valuation_case_predicates(vu, vx)
    matches = [k for k, hit in enumerate(predicates, start=1) if hit]
    if len(matches) != 1:
        raise AssertionError(f"case predicates not a partition at ({vu}, {vx}): {matches}")
    return matches[0]


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
    """Order at r = 0 of the sum of scale * r^shift * coeffs; None when the sum is zero."""
    total: dict[int, int] = {}
    for shift, scale, coeffs in terms:
        for exponent, c in enumerate(coeffs, start=shift):
            total[exponent] = total.get(exponent, 0) + scale * c
    return min((exponent for exponent, c in total.items() if c), default=None)


def _sample_orders(
    e: int, a: int, u: list[int], b: int, x: list[int]
) -> tuple[int | None, int | None, int | None]:
    """Orders at r = 0 of g, lhs1 and lhs2_cleared for u = r^a u(r), x = r^b x(r), t = r^e.

    g = u^2 t^2 - t, lhs1 = x^2 - t u^2 + t, lhs2_cleared = x^2 t - 2 t^2 u^2 + 1;
    None marks a sum that vanishes.  The lists hold 6 u(r) and 6 x(r), so each
    sum is taken times 36.
    """
    u2, x2 = _square(u), _square(x)
    g = _order_of_sum((2 * a + 2 * e, 1, u2), (e, -36, [1]))
    lhs1 = _order_of_sum((2 * b, 1, x2), (2 * a + e, -1, u2), (e, 36, [1]))
    lhs2 = _order_of_sum((2 * b + e, 1, x2), (2 * a + 2 * e, -2, u2), (0, 36, [1]))
    return g, lhs1, lhs2


def _laurent_text(e: int, order: int, coeffs: list[int]) -> str:
    """The printed form, at t = r^e, of r^order times the unit with six times these coefficients."""
    place = Place.finite(QQ.zero(), e)
    unit = RationalFunction.from_coeffs(QQ, place, [Fraction(c, 6) for c in coeffs])
    shift = r_function(QQ, place) ** abs(order)
    return str(unit * shift if order >= 0 else unit / shift)


def _grid_cases(e_max: int, max_numerator: int) -> dict[int, list[tuple[int, int, int]]]:
    """The grid triples (e, a, b), |a|, |b| <= max_numerator, grouped by the case of (a/e, b/e).

    Each list keeps grid order: e, then a, then b.
    """
    by_case: dict[int, list[tuple[int, int, int]]] = {case: [] for case in range(1, 9)}
    span = range(-max_numerator, max_numerator + 1)
    for e in range(1, e_max + 1):
        values = [(n, Fraction(n, e)) for n in span]
        for a, vu in values:
            for b, vx in values:
                by_case[valuation_case(vu, vx)].append((e, a, b))
    return by_case


def _draws(
    samples: int, seed: int, e_max: int, max_numerator: int
) -> Iterator[tuple[int, int, int, list[int], int, list[int]]]:
    """The sweep's draws (case, e, a, u, b, x), in the order the seeded stream makes them.

    (e, a, b) is drawn uniformly from the grid triples in the wanted case, the
    distribution that rejection from the whole grid gives; u and x are the
    units of the Laurent polynomials of orders a and b.  A wanted case with
    no grid triple raises ValueError before any draw.
    """
    if samples < 0 or e_max < 1 or max_numerator < 0:
        raise ValueError(f"a sweep needs samples >= 0, e_max >= 1 and max_numerator >= 0; "
                         f"got {samples}, {e_max}, {max_numerator}")
    by_case = _grid_cases(e_max, max_numerator)
    empty = [case for case in range(1, min(samples, 8) + 1) if not by_case[case]]
    if empty:
        raise ValueError(f"no grid triple with e <= {e_max} and |a|, |b| <= {max_numerator} "
                         f"falls in case {', '.join(map(str, empty))}")
    rng = random.Random(seed)
    for k in range(samples):
        case = k % 8 + 1
        e, a, b = rng.choice(by_case[case])
        yield case, e, a, _random_unit(rng), b, _random_unit(rng)


def sample_square_lift_property(
    samples: int = 500, seed: int = 1, e_max: int = 6, max_numerator: int = 12
) -> dict:
    """Stratified random check: solvable-for-y-and-z forces the cover factor square.

    Draws (v(u), v(x)) from each of the eight case regions in equal proportion,
    with random Laurent polynomial u, x realizing those valuations.  Whenever
    both residual quotients for y^2 and z^2 have even order (squares over the
    complex numbers) and no constraint vanishes, the cover factor u^2 t^2 - t
    must have even order as well.  Counterexamples are returned, expected none.
    Orders are read from coefficient lists, with no gcd.  A grid with no
    triple in a case the sweep draws from raises ValueError.
    """
    counts = {case: 0 for case in range(1, 9)}
    hypothesis_hits = 0
    degenerate = 0
    counterexamples: list[dict] = []
    for case, e, a, u, b, x in _draws(samples, seed, e_max, max_numerator):
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
