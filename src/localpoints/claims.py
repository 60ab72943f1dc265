"""Claim registry, claim-file ingestion, and the batch runner.

A claim binds a named computation to an executable check: point
verifications, cover lift tests, squareness certificates, orbifold and
semigroup facts, and seeded property sweeps.  Builtins cover every explicit
computation in scope; claim files add more through the same line-oriented
language the builtins use.
"""

from __future__ import annotations

import textwrap
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Mapping

from .errors import (
    ClaimSyntaxError,
    DuplicateClaimError,
    PrecisionExhaustedError,
    UnknownClaimError,
)
from .exprs import Expr, Neg, Num, Pow, Sym, evaluate, free_symbols, parse_expression
from .field_tower import QQ, AlreadySplit, FieldTower, _power, adjoin_quadratic
from .orbifold import (
    INF,
    MultiplicityProfile,
    OrbifoldCurve,
    degree,
    forced_component,
    is_general_type,
    profile_stats,
    pullback_half_marks,
    semigroup_contains,
)
from .series import (
    DEFAULT_PRECISION,
    Place,
    Poly,
    RationalFunction,
    _padd,
    _pmul,
    _pneg,
    _pscale,
    _psub,
    _trim,
    r_function,
    t_function,
)
from .variety import (
    ExactValue,
    FormalSqrt,
    PointAssignment,
    PolynomialSystem,
    find_cover_equation,
    lift_along_cover,
    parse_system,
    sample_square_lift_property,
    solve_square,
    valuation_case_predicates,
    verify_point,
)

KINDS = (
    "point_verification",
    "lift_test",
    "squareness_certificate",
    "orbifold_fact",
    "semigroup_fact",
    "property_test",
)

DEFAULT_SEED = 1


@dataclass(frozen=True)
class ClaimParams:
    precision: int = DEFAULT_PRECISION
    samples: int = 500
    seed: int = DEFAULT_SEED
    mode: str = "exact"


@dataclass
class ClaimOutcome:
    verdict: str  # "pass" | "fail" | "undecided"
    evidence: dict


@dataclass
class Claim:
    name: str
    kind: str
    description: str
    run: Callable[[ClaimParams], ClaimOutcome]
    system_source: str | None = None
    system_tower: FieldTower | None = None  # tower the source's coefficients live in


@dataclass
class ClaimReport:
    name: str
    kind: str
    verdict: str
    evidence: dict
    wall_time: float

    def as_dict(self, with_timing: bool = False) -> dict:
        payload = {
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "evidence": self.evidence,
        }
        if with_timing:
            payload["wall_time"] = self.wall_time
        return payload


def run_claim(
    name: str, registry: Mapping[str, Claim] | None = None, **overrides
) -> ClaimReport:
    registry = registry if registry is not None else builtin_registry()
    if name not in registry:
        raise UnknownClaimError(f"no claim named {name!r}; see `verify list`")
    claim = registry[name]
    params = replace(ClaimParams(), **overrides)
    start = time.perf_counter()
    try:
        outcome = claim.run(params)
    except PrecisionExhaustedError as err:
        outcome = ClaimOutcome("undecided", {
            "reason": "precision_exhausted", "precision": params.precision, "detail": str(err),
        })
    elapsed = time.perf_counter() - start
    return ClaimReport(claim.name, claim.kind, outcome.verdict, outcome.evidence, elapsed)


def run_all(
    registry: Mapping[str, Claim] | None = None,
    kind: str | None = None,
    **overrides,
) -> tuple[list[ClaimReport], dict]:
    registry = registry if registry is not None else builtin_registry()
    reports = []
    for name, claim in registry.items():
        if kind is not None and claim.kind != kind:
            continue
        reports.append(run_claim(name, registry, **overrides))
    summary = {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.verdict == "pass"),
        "failed": sum(1 for r in reports if r.verdict == "fail"),
        "undecided": sum(1 for r in reports if r.verdict == "undecided"),
        "failures": [r.name for r in reports if r.verdict == "fail"],
    }
    return reports, summary


# -- claim-file language --------------------------------------------------------------


@dataclass
class ParsedClaim:
    name: str
    line: int
    adjoins: list[tuple[int, str, str]] = field(default_factory=list)  # line, name, minpoly
    system_lines: list[tuple[int, str]] = field(default_factory=list)
    place_line: tuple[int, str] | None = None
    lets: list[tuple[int, str, str, bool]] = field(default_factory=list)
    expect: str = "pass"
    orbifold_line: tuple[int, str] | None = None
    assertions: list[tuple[int, str, str]] = field(default_factory=list)
    description: str | None = None
    checks: list[tuple[int, str, str, str]] = field(default_factory=list)  # line, kind, label, body
    # file column where the expression text of a system, let or check line starts
    columns: dict[int, int] = field(default_factory=dict)


_KEYWORDS = ("claim ", "adjoin ", "system:", "place:", "let ", "expect:", "orbifold ",
             "degree:", "general_type:", "description:", "identity ", "order ")


def _rest(line: str, start: int, offset: int) -> tuple[str, int]:
    """line[offset:] stripped, with the file column where it starts."""
    text = line[offset:]
    return text.strip(), start + offset + len(text) - len(text.lstrip())


def parse_claim_file(text: str) -> list[ParsedClaim]:
    claims: list[ParsedClaim] = []
    current: ParsedClaim | None = None
    in_system = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        start = len(raw) - len(raw.lstrip()) + 1  # file column of line[0]
        keyword = next((k for k in _KEYWORDS if line.startswith(k)), None)
        if keyword is None and in_system and current is not None:
            current.system_lines.append((lineno, line))
            current.columns[lineno] = start
            continue
        if keyword is None:
            raise ClaimSyntaxError(f"unexpected line {line!r}", lineno, start)
        if keyword != "system:":
            in_system = False
        if keyword == "claim ":
            name = line[len("claim "):].strip()
            if not name or not name.replace("_", "").isalnum():
                raise ClaimSyntaxError(f"bad claim name {name!r}", lineno, start + 6)
            if any(c.name == name for c in claims):
                raise DuplicateClaimError(f"claim {name!r} declared twice")
            current = ParsedClaim(name, lineno)
            claims.append(current)
            continue
        if current is None:
            raise ClaimSyntaxError("directives must follow a `claim NAME` line", lineno, start)
        if keyword == "adjoin ":
            body = line[len("adjoin "):]
            if ":" not in body:
                raise ClaimSyntaxError("adjoin NAME : MINPOLY = 0", lineno, start + 7)
            gen_name, _, minpoly = body.partition(":")
            minpoly = minpoly.strip()
            if not minpoly.endswith("= 0"):
                raise ClaimSyntaxError("adjoined minimal polynomial must end in = 0", lineno, start)
            current.adjoins.append((lineno, gen_name.strip(), minpoly[: -len("= 0")].strip()))
        elif keyword == "system:":
            in_system = True
        elif keyword == "place:":
            current.place_line = (lineno, line[len("place:"):].strip())
        elif keyword == "let ":
            var, eq, _ = line[len("let "):].partition("=")
            if not eq:
                raise ClaimSyntaxError("let VAR = EXPR", lineno, start + 4)
            rhs, column = _rest(line, start, len("let ") + len(var) + 1)
            is_sqrt = rhs.startswith("sqrt(") and rhs.endswith(")")
            if is_sqrt:
                rhs, column = rhs[len("sqrt("):-1], column + len("sqrt(")
            current.lets.append((lineno, var.strip(), rhs, is_sqrt))
            current.columns[lineno] = column
        elif keyword == "expect:":
            expect = line[len("expect:"):].strip()
            if expect not in ("pass", "obstructed", "nonsquare", "lifts"):
                raise ClaimSyntaxError(f"unknown expectation {expect!r}", lineno, start + 8)
            current.expect = expect
        elif keyword == "description:":
            current.description = line[len("description:"):].strip()
        elif keyword in ("identity ", "order "):
            kind = keyword.strip()
            label, colon, _ = line[len(keyword):].partition(":")
            body, column = _rest(line, start, len(keyword) + len(label) + 1)
            left, eq, _ = body.rpartition("=") if kind == "order" else body.partition("=")
            if not (colon and label.strip().isidentifier() and eq and left.strip()):
                raise ClaimSyntaxError(f"expected {kind} LABEL: EXPR = EXPR", lineno, start)
            right, right_column = _rest(body, column, len(left) + 1)
            if kind == "order" and not right.lstrip("-").isdigit():
                raise ClaimSyntaxError("an order is an integer", lineno, right_column)
            current.checks.append((lineno, kind, label.strip(), body))
            current.columns[lineno] = column
        elif keyword == "orbifold ":
            current.orbifold_line = (lineno, line[len("orbifold "):].strip())
        elif keyword == "degree:":
            current.assertions.append((lineno, "degree", line[len("degree:"):].strip()))
        elif keyword == "general_type:":
            current.assertions.append(
                (lineno, "general_type", line[len("general_type:"):].strip())
            )
    return claims


def _univariate(expr: Expr, name: str, tower: FieldTower, lineno: int) -> Poly:
    """Dense coefficients of an expression read as a polynomial in `name`."""
    zero = tower.zero()

    def mul(p: Poly, q: Poly) -> Poly:
        return _pmul(p, q, zero)

    def walk(node: Expr) -> Poly:
        if isinstance(node, Num):
            return _trim([tower.rational(node.value)])
        if isinstance(node, Sym):
            if node.name == name:
                return (zero, tower.one())
            if node.name in tower.generator_names:
                return (tower.gen(node.name),)
            raise ClaimSyntaxError(f"undeclared identifier {node.name!r}", lineno, 1)
        if isinstance(node, Neg):
            return _pneg(walk(node.operand))
        if isinstance(node, Pow):
            base = walk(node.base)
            if node.exponent < 0:
                if len(base) != 1:
                    raise ClaimSyntaxError("negative power of the generator", lineno, 1)
                return (base[0] ** node.exponent,)
            return _power(base, node.exponent, (tower.one(),), mul)
        left, right = walk(node.left), walk(node.right)
        if node.op == "+":
            return _padd(left, right, zero)
        if node.op == "-":
            return _psub(left, right, zero)
        if node.op == "*":
            return mul(left, right)
        if len(right) != 1:
            raise ClaimSyntaxError("division by the generator", lineno, 1)
        return _pscale(left, right[0].inverse())

    return walk(expr)


def _build_system(parsed: ParsedClaim, tower: FieldTower) -> PolynomialSystem:
    """The claim's system; an error in it names the line and column of the claim file."""
    try:
        return parse_system("\n".join(text for _, text in parsed.system_lines), tower)
    except ClaimSyntaxError as err:
        message = str(err).partition(": ")[2]
        lineno = parsed.system_lines[err.line - 1][0]
        raise ClaimSyntaxError(message, lineno, parsed.columns[lineno] + err.column - 1) from None


def _build_tower(parsed: ParsedClaim) -> FieldTower:
    tower = QQ
    for lineno, gen_name, minpoly_text in parsed.adjoins:
        expr = parse_expression(minpoly_text, lineno)
        coeffs = _univariate(expr, gen_name, tower, lineno)
        if len(coeffs) != 3 or coeffs[2] != tower.one():
            raise ClaimSyntaxError(
                f"adjoin needs a monic quadratic in {gen_name!r}", lineno, 1
            )
        result = adjoin_quadratic(tower, gen_name, coeffs[1], coeffs[0])
        if isinstance(result, AlreadySplit):
            raise ClaimSyntaxError(
                f"{gen_name!r} would not extend the field: root {result.witness} exists",
                lineno,
                1,
            )
        tower = result
    return tower


def _build_place(parsed: ParsedClaim, tower: FieldTower) -> Place:
    if parsed.place_line is None:
        raise ClaimSyntaxError(f"claim {parsed.name!r} has no place", parsed.line, 1)
    lineno, text = parsed.place_line
    body = text.strip()
    if not body.startswith("t"):
        raise ClaimSyntaxError("place: t = CENTER ram E", lineno, 1)
    body = body[1:].strip()
    if not body.startswith("="):
        raise ClaimSyntaxError("place: t = CENTER ram E", lineno, 1)
    body = body[1:].strip()
    ram = 1
    if " ram " in f" {body}":
        center_text, _, ram_text = f" {body}".rpartition(" ram ")
        center_text = center_text.strip()
        try:
            ram = int(ram_text.strip())
        except ValueError:
            raise ClaimSyntaxError("ramification must be an integer", lineno, 1) from None
    else:
        center_text = body
    if center_text == "infinity":
        return Place.at_infinity(ram)
    expr = parse_expression(center_text, lineno)
    names = free_symbols(expr)
    if not names <= set(tower.generator_names):
        raise ClaimSyntaxError("place center may use only adjoined generators", lineno, 1)
    env = {g: tower.gen(g) for g in tower.generator_names}
    center = evaluate(expr, env, tower.rational)
    return Place.finite(center, ram)


def _evaluate(text: str, lineno: int, env: dict, where: str, column: int) -> RationalFunction:
    """The exact value of an expression over env, which holds at least t."""
    expr = parse_expression(text, lineno, column)
    unknown = free_symbols(expr) - set(env)
    if unknown:
        raise ClaimSyntaxError(
            f"undeclared identifier {sorted(unknown)[0]!r} in {where}", lineno, column
        )
    return evaluate(expr, env, env["t"]._constant)


def _build_bindings(
    parsed: ParsedClaim, tower: FieldTower, place: Place
) -> tuple[dict[str, ExactValue | FormalSqrt], dict[str, RationalFunction]]:
    """The point's bindings, and the values a check sees: t, r, generators, exact lets."""
    env = {"t": t_function(tower, place), "r": r_function(tower, place)}
    for g in tower.generator_names:
        env[g] = RationalFunction.constant(tower, place, tower.gen(g))
    bindings: dict[str, ExactValue | FormalSqrt] = {}
    for lineno, var, rhs, is_sqrt in parsed.lets:
        value = _evaluate(rhs, lineno, env, "let", parsed.columns[lineno])
        bindings[var] = FormalSqrt(value) if is_sqrt else ExactValue(value)
    exact = {var: b.value for var, b in bindings.items() if isinstance(b, ExactValue)}
    return bindings, {**env, **exact}


def _checks_hold(parsed: ParsedClaim, values: dict, evidence: dict) -> bool:
    """Record each identity and order check in evidence; whether all of them hold."""
    holds = True
    for lineno, kind, label, body in parsed.checks:
        column = parsed.columns[lineno]
        left, _, right = body.rpartition("=") if kind == "order" else body.partition("=")
        value = _evaluate(left, lineno, values, kind, column)
        if kind == "identity":
            ok = value == _evaluate(right, lineno, values, kind, column + len(left) + 1)
            evidence[label] = "exact" if ok else "failed"
        else:  # the zero function has no order, so no order check holds for it
            order = None if value.is_zero() else value.order_at_zero()
            ok = order == int(right)
            evidence[f"{label}_order"] = order
            evidence[f"{label}_valuation"] = None if order is None else str(value.valuation())
        holds = holds and ok
    return holds


def _lift_verdict(parsed: ParsedClaim, cover: PolynomialSystem, point: PointAssignment,
                  precision: int, evidence: dict) -> str:
    """Lift a verified point along its cover equation w^2 = g, w's binding dropped.

    The lift's witness must square to the square root the claim bound w to.
    """
    exact = {v: b for v, b in point.bindings.items() if not isinstance(b, FormalSqrt)}
    try:
        _, variable, _ = find_cover_equation(cover, PointAssignment(point.place, exact))
    except ValueError:
        raise ClaimSyntaxError("lifts: no cover equation w^2 = g", parsed.line, 1) from None
    bindings = dict(point.bindings)
    w_square = bindings.pop(variable).square
    lift = lift_along_cover(cover, PointAssignment(point.place, bindings),
                            precision=precision, check_base=False)
    evidence["lift"] = lift.kind
    if lift.witness is None:  # only a lift that succeeds has a witness
        return "fail"
    square = lift.witness * lift.witness
    matches = square.matches(w_square._lift(lift.tower).to_puiseux(square.precision))
    evidence["witness"] = str(lift.witness)
    evidence["witness_order"] = lift.witness.order_at_zero()
    evidence["witness_square_matches"] = matches
    return "pass" if matches else "fail"


def _orbifold_outcome(parsed: ParsedClaim) -> ClaimOutcome:
    lineno, text = parsed.orbifold_line
    tokens = text.replace("[", " [ ").split(None, 3)
    if len(tokens) < 4 or tokens[0] != "genus" or tokens[2] != "marks":
        raise ClaimSyntaxError("orbifold genus G marks [m1, ...]", lineno, 1)
    genus = int(tokens[1])
    marks_text = tokens[3].strip()
    if not (marks_text.startswith("[") and marks_text.endswith("]")):
        raise ClaimSyntaxError("marks must be a [..] list", lineno, 1)
    multiplicities = []
    inner = marks_text[1:-1].strip()
    if inner:
        for part in inner.split(","):
            part = part.strip()
            multiplicities.append(INF if part == "inf" else int(part))
    curve = OrbifoldCurve.from_multiplicities(genus, multiplicities)
    checks = {}
    verdict = "pass"
    actual_degree = degree(curve)
    actual_gt = is_general_type(curve)
    checks["degree"] = str(actual_degree)
    checks["general_type"] = actual_gt
    for lineno, key, expected_text in parsed.assertions:
        if key == "degree":
            expected = Fraction(expected_text)
            checks["degree_expected"] = str(expected)
            if actual_degree != expected:
                verdict = "fail"
        else:
            expected_gt = expected_text.strip().lower() == "true"
            checks["general_type_expected"] = expected_gt
            if actual_gt != expected_gt:
                verdict = "fail"
    return ClaimOutcome(verdict, {"curve": str(curve), **checks})


def _kind(parsed: ParsedClaim) -> str:
    """The kind of a claim on a point, read off its text."""
    if parsed.expect == "nonsquare" or any(kind == "order" for _, kind, _, _ in parsed.checks):
        return "squareness_certificate"
    return "lift_test" if parsed.expect in ("obstructed", "lifts") else "point_verification"


def _verified(
    system: PolynomialSystem, point: PointAssignment, params: ClaimParams
) -> tuple[str, dict]:
    """The point checked on the system: verdict and evidence."""
    report = verify_point(system, point, mode=params.mode, precision=params.precision)
    evidence = report.as_dict()
    evidence["bindings"] = {
        var: (f"sqrt({binding.square})" if isinstance(binding, FormalSqrt)
              else str(binding.value))
        for var, binding in point.bindings.items()
    }
    if report.passed:
        return "pass", evidence
    if all(e.status != "failed" for e in report.equations) and all(
        i.status != "zero" for i in report.inequations
    ):
        # only constraints that vanish to precision: the precision decides, not the point
        evidence.update(reason="precision_exhausted", precision=params.precision)
        return "undecided", evidence
    return "fail", evidence


def _claim_from_parsed(parsed: ParsedClaim) -> Claim:
    if parsed.orbifold_line is not None:
        return Claim(parsed.name, "orbifold_fact",
                     parsed.description or "orbifold fact from claim file",
                     lambda params, p=parsed: _orbifold_outcome(p))

    def run(params: ClaimParams, p=parsed) -> ClaimOutcome:
        tower = _build_tower(p)
        place = _build_place(p, tower)
        bindings, values = _build_bindings(p, tower, place)
        point = PointAssignment(place, bindings)
        if p.expect == "nonsquare":
            if len(p.system_lines) != 1:
                raise ClaimSyntaxError(
                    "a nonsquare claim takes exactly one expression", p.line, 1
                )
            lineno, text = p.system_lines[0]
            target = parse_expression(text, lineno, p.columns[lineno])
            system = PolynomialSystem(tower, tuple(sorted(
                free_symbols(target) - {"t"} - set(tower.generator_names)
            )), (), ())
            outcome = solve_square(system, target, Num(1), point, mode="over_c",
                                   precision=params.precision)
            verdict = "pass" if outcome.kind == "nonsquare" else "fail"
            evidence = {"expression": text, "result": outcome.kind, "order": outcome.order}
        elif p.expect == "obstructed":
            outcome = lift_along_cover(_build_system(p, tower), point, mode="over_c",
                                       precision=params.precision)
            verdict = "pass" if outcome.kind == "obstructed" else "fail"
            evidence = {
                "cover_variable": outcome.variable,
                "result": outcome.kind,
                "order": outcome.order,
            }
        else:
            system = _build_system(p, tower)
            verdict, evidence = _verified(system, point, params)
        if not _checks_hold(p, values, evidence):
            verdict = "fail"
        if p.expect == "lifts" and verdict == "pass":
            verdict = _lift_verdict(p, system, point, params.precision, evidence)
        return ClaimOutcome(verdict, evidence)

    system_source = "\n".join(text for _, text in parsed.system_lines)
    return Claim(parsed.name, _kind(parsed),
                 parsed.description or f"claim-file check ({parsed.expect})",
                 run, system_source=system_source or None,
                 system_tower=_build_tower(parsed) if parsed.adjoins else None)


def load_claim_file(path: str, registry: Mapping[str, Claim] | None = None) -> dict[str, Claim]:
    """Parse a claim file and return the session registry extended with it."""
    base = dict(registry if registry is not None else builtin_registry())
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    for parsed in parse_claim_file(text):
        if parsed.name in base:
            raise DuplicateClaimError(f"claim {parsed.name!r} already registered")
        base[parsed.name] = _claim_from_parsed(parsed)
    return base


# -- builtin claims ---------------------------------------------------------------------

BASE_SYSTEM_SOURCE = """\
x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2
(t^2*u^2 - t)*y^2 != 0
x^2 - 2*t*u^2 + 1/t = t*(t^2*u^2 - t)*z^2
t*(t^2*u^2 - t)*z^2 != 0"""

COVER_EQUATION_SOURCE = "w^2 = t^2*u^2 - t"

_COVER_SYSTEM_SOURCE = BASE_SYSTEM_SOURCE + "\n" + COVER_EQUATION_SOURCE

SQRT_T_LETS = """\
let u = 0
let x = 0
let y = sqrt(-1)
let z = sqrt(-1/t^3)"""

INFINITY_LETS = """\
let u = 1
let x = 1
let y = sqrt(1/(t^2 - t))
let z = sqrt((-2/t^2 + 1/t^3 + 1/t^4)/(1 - 1/t))"""


def _q_family_lets(q: int) -> str:
    return f"""\
let x = 1/r
let u = 1/r^{(q + 1) // 2}
let y = sqrt((1 - r + r^{q + 2})/(r^{q + 1}*(1 - r)))
let z = sqrt((1 + r^{q - 2} - 2*r^{q - 1})/(r^{3 * q - 1}*(1 - r)))"""


# a point claim from a row: name, description, system, place, then its let and check lines
_POINT_TEXT = "claim {}\ndescription: {}\nsystem:\n{}\nplace: t = {}\n{}\n"
_BASE = textwrap.indent(BASE_SYSTEM_SOURCE, "  ")
_COVER = textwrap.indent(_COVER_SYSTEM_SOURCE, "  ")

POINTS_TEXT = "".join(_POINT_TEXT.format(*row) for row in [
    ("point_sqrt_t", "square-root-of-t point verifies exactly", _BASE, "0 ram 2", SQRT_T_LETS),
    ("point_cbrt_t", "cube-root point with exact z simplification", _BASE, "0 ram 3",
     _q_family_lets(3) + "\n# the square root in z simplifies exactly\n"
     "identity simplification_identity: (1 + r - 2*r^2)/(1 - r) = 1 + 2*r"),
    *((f"point_q_family_q{q}", f"odd-degree point family at ramification {q}", _BASE,
       f"0 ram {q}", _q_family_lets(q)) for q in (3, 5, 7, 9)),
    ("point_infinity", "local point at t = infinity verifies exactly", _BASE,
     "infinity ram 1", INFINITY_LETS),
])

# the K3 double cover: the points lift, with an explicit square-root witness for w
K3_LIFTS_TEXT = "".join(_POINT_TEXT.format(*row) for row in [
    ("k3_lift_sqrt_t", "K3 double-cover lift with explicit witness", _COVER, "0 ram 2",
     SQRT_T_LETS + "\nlet w = sqrt(-t)\nexpect: lifts"),
    ("k3_lift_infinity", "K3 double-cover lift with explicit witness", _COVER,
     "infinity ram 1", INFINITY_LETS + "\nlet w = sqrt(t^2 - t)\nexpect: lifts"),
])

# the golden family in shifted coordinates, expanded at t = r^2
SHIFTED_FORM_TEXT = """\
claim golden_shifted_form
description: shifted-coordinate equations verify; the factor keeps odd order
adjoin alpha : alpha^2 - alpha - 1 = 0
adjoin beta : beta^2 + alpha = 0
system:
  x^2 - t*u^2 + alpha*u^2 + t - alpha = (u^2*(t - alpha)^2 - t + alpha)*y^2
  (u^2*(t - alpha)^2 - t + alpha)*y^2 != 0
  x^2 - 2*t*u^2 + 2*alpha*u^2 + 1/(t - alpha) = (t - alpha)*(u^2*(t - alpha)^2 - t + alpha)*z^2
  (t - alpha)*(u^2*(t - alpha)^2 - t + alpha)*z^2 != 0
place: t = 0 ram 2
let u = 1/beta + r
let x = alpha
let y = sqrt((alpha^2 - t*(1/beta + r)^2 + alpha*(1/beta + r)^2 + t - alpha)/((1/beta + r)^2*(t - alpha)^2 - t + alpha))
let z = sqrt((alpha^2 - 2*t*(1/beta + r)^2 + 2*alpha*(1/beta + r)^2 + 1/(t - alpha))/((t - alpha)*((1/beta + r)^2*(t - alpha)^2 - t + alpha)))
order factor: u^2*(t - alpha)^2 - t + alpha = 1
expect: pass
"""


def _golden_point(e: int) -> tuple:
    """The golden point u = 1/beta + r, x = alpha at t = -alpha, ramification e.

    Returns tower, place, r, t, u, x, the cover factor g = u^2 t^2 - t and the
    left-hand sides of the two base equations.
    """
    golden = adjoin_quadratic(QQ, "alpha", -1, -1)
    tower = adjoin_quadratic(golden, "beta", 0, golden.gen("alpha"))
    alpha, beta = tower.gen("alpha"), tower.gen("beta")
    place = Place.finite(-alpha, e)
    r = r_function(tower, place)
    t = t_function(tower, place)
    u = 1 / beta + r
    x = RationalFunction.constant(tower, place, alpha)
    g = u * u * t * t - t
    return tower, place, r, t, u, x, g, x * x - t * u * u + t, x * x - 2 * t * u * u + 1 / t


def _golden_nonlift_claim(n: int) -> Claim:
    name = f"golden_nonlift_n{n}"

    def run(params: ClaimParams) -> ClaimOutcome:
        tower, place, r, t, u, x, g, lhs1, lhs2 = _golden_point(2 * n)
        orders = {
            "cover_factor": g.order_at_zero(),
            "lhs_1": lhs1.order_at_zero(),
            "lhs_2": lhs2.order_at_zero(),
        }
        valuation = str(Fraction(g.order_at_zero(), 2 * n))
        system = parse_system(BASE_SYSTEM_SOURCE, tower)
        point = PointAssignment(place, {"u": ExactValue(u), "x": ExactValue(x)})
        squares = {}
        for label, lhs_text, g_text in (
            ("y", "x^2 - t*u^2 + t", "t^2*u^2 - t"),
            ("z", "x^2 - 2*t*u^2 + 1/t", "t*(t^2*u^2 - t)"),
        ):
            outcome = solve_square(system, parse_expression(lhs_text), parse_expression(g_text),
                                   point, precision=params.precision)
            squares[label] = {
                "result": outcome.kind,
                "quotient_order": outcome.order,
                "witness_precision": outcome.witness.precision if outcome.witness else None,
            }
        cover = parse_system(_COVER_SYSTEM_SOURCE, tower)
        plain = lift_along_cover(cover, point, precision=params.precision, check_base=False)
        twisted = lift_along_cover(
            cover, point, precision=params.precision, twist=r * r, check_base=False
        )
        ok = (
            orders == {"cover_factor": 1, "lhs_1": 1, "lhs_2": 1}
            and all(s["result"] == "witness" for s in squares.values())
            and plain.kind == "obstructed"
            and twisted.kind == "obstructed"
        )
        return ClaimOutcome(
            "pass" if ok else "fail",
            {
                "n": n,
                "ramification": 2 * n,
                "orders": orders,
                "cover_factor_valuation": valuation,
                "square_witnesses": squares,
                "plain_cover": {"result": plain.kind, "order": plain.order},
                "twisted_cover": {"result": twisted.kind, "order": twisted.order},
            },
        )

    return Claim(
        name,
        "squareness_certificate",
        "golden-ratio point: valuation certificates and cover obstructions",
        run,
        system_source=_COVER_SYSTEM_SOURCE,
    )


def _two_forms(params: ClaimParams) -> ClaimOutcome:
    tower, place, r, t, u, x, g, lhs1, lhs2 = _golden_point(2)
    point = PointAssignment(
        place,
        {
            "u": ExactValue(u),
            "x": ExactValue(x),
            "y": FormalSqrt(lhs1 / g),
            "z": FormalSqrt(lhs2 / (t * g)),
        },
    )
    cover = parse_system(_COVER_SYSTEM_SOURCE, tower)
    # check_base on: the point really is a point of the base system
    plain = lift_along_cover(cover, point, precision=params.precision)
    twisted = lift_along_cover(
        cover, point, precision=params.precision, twist=r * r, check_base=False
    )
    ok = plain.kind == "obstructed" and twisted.kind == "obstructed"
    return ClaimOutcome(
        "pass" if ok else "fail",
        {
            "plain_form": {"result": plain.kind, "order": plain.order},
            "twisted_form": {"result": twisted.kind, "order": twisted.order},
            "base_point_verified": True,
        },
    )


def _fact(
    name: str, kind: str, description: str, check: Callable[[ClaimParams], dict]
) -> Claim:
    """A claim computed in Python; it fails when its evidence lists failures or violations."""

    def run(params: ClaimParams) -> ClaimOutcome:
        evidence = check(params)
        failed = evidence.get("failures") or evidence.get("violations")
        return ClaimOutcome("fail" if failed else "pass", evidence)

    return Claim(name, kind, description, run)


def _square_lift_property(params: ClaimParams) -> ClaimOutcome:
    result = sample_square_lift_property(samples=params.samples, seed=params.seed)
    if result["counterexamples"]:
        return ClaimOutcome("fail", result)
    if not result["hypothesis_hits"]:
        # no sample met the hypothesis, so the sweep tested nothing
        return ClaimOutcome("undecided", {**result, "reason": "no_hypothesis_hits"})
    return ClaimOutcome("pass", result)


def _case_partition(params: ClaimParams) -> dict:
    violations = []
    points = 0
    for e in range(1, 7):
        for a in range(-12, 13):
            for b in range(-12, 13):
                points += 1
                hits = sum(valuation_case_predicates(Fraction(a, e), Fraction(b, e)))
                if hits != 1:
                    violations.append({"e": e, "vu": f"{a}/{e}", "vx": f"{b}/{e}",
                                       "hits": hits})
    return {"grid_points": points, "violations": violations}


def _gt_threshold(params: ClaimParams) -> dict:
    failures = []
    for d in range(1, 51):
        if is_general_type(pullback_half_marks(0, d)) != (d >= 5):
            failures.append({"d": d, "check": "threshold"})
        for genus in range(0, 4):
            expected = 2 * genus - 2 + Fraction(d, 2)
            if degree(pullback_half_marks(genus, d)) != expected:
                failures.append({"d": d, "genus": genus, "check": "degree"})
    return {"degrees_checked": 50, "threshold": "general type iff d >= 5 at genus 0",
            "failures": failures}


def _pullbacks(params: ClaimParams) -> dict:
    cases = [
        {"genus": 0, "d": 5, "degree": "1/2", "general_type": True},
        {"genus": 1, "d": 1, "degree": "1/2", "general_type": True},
        {"genus": 0, "d": 1, "degree": "-3/2", "general_type": False},
        {"genus": 0, "d": 4, "degree": "0", "general_type": False},
    ]
    failures = []
    for case in cases:
        curve = pullback_half_marks(case["genus"], case["d"])
        if curve.multiplicities != (2,) * case["d"]:
            failures.append({**case, "check": "marks"})
        if str(degree(curve)) != case["degree"]:
            failures.append({**case, "check": "degree", "got": str(degree(curve))})
        if is_general_type(curve) != case["general_type"]:
            failures.append({**case, "check": "general_type"})
    return {"cases": cases, "failures": failures}


def _semigroups(params: ClaimParams) -> dict:
    failures = []
    if semigroup_contains(MultiplicityProfile((2, 5)), 3):
        failures.append("3 in <2,5>")
    if not semigroup_contains(MultiplicityProfile((2, 3)), 7):
        failures.append("7 not in <2,3>")
    for a in range(1, 11):
        if not semigroup_contains(MultiplicityProfile((a,)), a):
            failures.append(f"{a} not in <{a}>")
    for pair, expected in (((2, 3), True), ((2, 4), False), ((3, 5), True)):
        if forced_component(*pair) != expected:
            failures.append(f"forced_component{pair} != {expected}")
    mismatches = 0
    for a in range(1, 11):
        for b in range(a, 11):
            profile = MultiplicityProfile((a, b))
            reachable = [False] * 61
            reachable[0] = True
            for k in range(1, 61):
                reachable[k] = (k >= a and reachable[k - a]) or (
                    k >= b and reachable[k - b]
                )
            for m in range(61):
                if semigroup_contains(profile, m) != reachable[m]:
                    mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} DP/bruteforce mismatches")
    return {"pairs_checked": 55, "membership_bound": 60, "failures": failures}


def _indices(params: ClaimParams) -> dict:
    cases = [
        {"profile": (2, 3), "stats": (2, 1, 1)},
        {"profile": (4, 6), "stats": (4, 2, 2)},
        {"profile": (1,), "stats": (1, 1, 1)},
    ]
    failures = []
    for case in cases:
        got = profile_stats(MultiplicityProfile(case["profile"]))
        if got != case["stats"]:
            failures.append({**case, "got": got})
    stats_23 = profile_stats(MultiplicityProfile((2, 3)))
    inf_multiple = stats_23[0] >= 2
    divisible = stats_23[1] >= 2
    if not inf_multiple or divisible:
        failures.append("profile (2,3) should be inf-multiple and non-divisible")
    return {
        "cases": [{"profile": list(c["profile"]), "stats": list(c["stats"])} for c in cases],
        "profile_2_3": {"inf_multiple": inf_multiple, "divisible": divisible},
        "failures": failures,
    }


def _perturbations(params: ClaimParams) -> dict:
    checked = 0
    violations = []
    for genus in range(3):
        for size in range(7):
            for finite in combinations_with_replacement(range(1, 11), size):
                base_degree = degree(OrbifoldCurve.from_multiplicities(genus, finite))
                for n_inf in range(7):
                    checked += 1
                    if base_degree + n_inf <= 0:
                        continue
                    if base_degree + n_inf * Fraction(6, 7) <= 0:
                        violations.append({"genus": genus, "finite": list(finite), "inf": n_inf})
    return {"curves_checked": checked, "replacement": 7, "violations": violations}


def builtin_registry() -> dict[str, Claim]:
    """All built-in claims, keyed by name, in a stable order."""

    def from_text(text: str) -> list[Claim]:
        return [_claim_from_parsed(parsed) for parsed in parse_claim_file(text)]

    claims = from_text(POINTS_TEXT)
    claims += [_golden_nonlift_claim(n) for n in range(1, 6)]
    claims += from_text(SHIFTED_FORM_TEXT)
    claims.append(Claim("k3_cover_two_forms_obstructed", "lift_test",
                        "both double-cover forms obstruct at the golden place", _two_forms,
                        system_source=_COVER_SYSTEM_SOURCE))
    claims += from_text(K3_LIFTS_TEXT)
    claims.append(Claim("lemma91_property", "property_test",
                        "solvable equations force the cover factor to be a local square",
                        _square_lift_property))
    claims += [
        _fact("lemma91_case_partition", "property_test",
              "the eight valuation-case predicates partition the grid", _case_partition),
        _fact("orbifold_gt_threshold", "orbifold_fact",
              "half-mark pullback is general type exactly from degree five (genus zero)",
              _gt_threshold),
        _fact("pullback_orbifold_bases", "orbifold_fact",
              "orbifold bases of pullbacks: d half-marks with the stated degrees", _pullbacks),
        _fact("semigroup_facts", "semigroup_fact",
              "membership dynamic programming against enumeration; forced components",
              _semigroups),
        _fact("index_facts", "semigroup_fact",
              "inf/gcd multiplicities and the index from fibre profiles", _indices),
        _fact("perturbation_sweep", "orbifold_fact",
              "replacing infinite marks by 7 preserves positive degree on the sweep",
              _perturbations),
    ]
    return {claim.name: claim for claim in claims}
