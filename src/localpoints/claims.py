"""Claim registry, claim-file ingestion, and the batch runner.

A claim binds a named computation to an executable check: point
verifications, cover lift tests, squareness certificates, orbifold and
semigroup facts, and seeded property sweeps.  Builtins cover every explicit
computation in scope; claim files add more through the same line-oriented
language the builtins use.
"""

from __future__ import annotations

import re
import textwrap
import time
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from typing import Callable, Collection, Mapping

from .errors import (
    ClaimSyntaxError,
    DuplicateClaimError,
    PrecisionExhaustedError,
    UnknownClaimError,
    ZeroFunctionError,
)
from .exprs import (
    MAX_EXPONENT,
    MAX_POWER_DEGREE,
    MAX_RAMIFICATION,
    Expr,
    _integer,
    _tokenize,
    evaluate,
    free_symbols,
    parse_expression,
    read_integer,
)
from .field_tower import QQ, AlreadySplit, FieldTower, adjoin_quadratic
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
    RationalFunction,
    SquareOutcome,
    is_square_local,
    r_function,
)
from .variety import (
    ExactValue,
    FormalSqrt,
    PointAssignment,
    PolynomialSystem,
    _env,
    _exact_context,
    _lift,
    _zero_divisor,
    find_cover_equation,
    lift_along_cover,
    parse_system,
    sample_square_lift_property,
    solve_square,
    valuation_case_predicates,
    verify_point,
)
from .records import Record

KINDS = (
    "point_verification",
    "lift_test",
    "squareness_certificate",
    "orbifold_fact",
    "semigroup_fact",
    "property_test",
)

DEFAULT_SEED = 1


class ClaimParams(Record):
    __slots__ = _fields = ("precision", "samples", "seed", "mode")

    def __init__(self, precision: int = DEFAULT_PRECISION, samples: int = 500,
                 seed: int = DEFAULT_SEED, mode: str = "exact") -> None:
        self.precision = precision
        self.samples = samples
        self.seed = seed
        self.mode = mode


class ClaimOutcome:
    __slots__ = ("verdict", "evidence")

    def __init__(self, verdict: str, evidence: dict) -> None:
        self.verdict = verdict  # "pass" | "fail" | "undecided"
        self.evidence = evidence


class Claim:
    __slots__ = ("name", "kind", "description", "run", "system_source", "system_tower")

    def __init__(self, name: str, kind: str, description: str,
                 run: Callable[[ClaimParams], ClaimOutcome], system_source: str | None = None,
                 system_tower: FieldTower | None = None) -> None:
        self.name = name
        self.kind = kind
        self.description = description
        self.run = run
        self.system_source = system_source
        self.system_tower = system_tower  # tower the source's coefficients live in


class ClaimReport:
    __slots__ = ("name", "kind", "verdict", "evidence", "wall_time")

    def __init__(self, name: str, kind: str, verdict: str, evidence: dict,
                 wall_time: float) -> None:
        self.name = name
        self.kind = kind
        self.verdict = verdict
        self.evidence = evidence
        self.wall_time = wall_time

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "evidence": self.evidence,
        }


def run_claim(
    name: str, registry: Mapping[str, Claim] | None = None, **overrides
) -> ClaimReport:
    registry = registry if registry is not None else builtin_registry()
    if name not in registry:
        raise UnknownClaimError(f"no claim named {name!r}; see `verify list`")
    claim = registry[name]
    params = ClaimParams(**overrides)
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


Position = tuple[int, int]  # (line, column) in the claim file where a fragment's text starts


class ParsedClaim:
    """A claim block as parse_claim_file reads it; a list left out starts empty."""

    __slots__ = ("name", "line", "adjoins", "system_lines", "place", "lets", "expect",
                 "orbifold", "assertions", "description", "checks")

    def __init__(self, name: str, line: int, adjoins: list | None = None,
                 system_lines: list | None = None, place: tuple | None = None,
                 lets: list | None = None, expect: str = "pass",
                 orbifold: OrbifoldCurve | None = None, assertions: list | None = None,
                 description: str | None = None, checks: list | None = None) -> None:
        self.name = name
        self.line = line
        self.adjoins = [] if adjoins is None else adjoins  # (at, name, minpoly)
        self.system_lines = [] if system_lines is None else system_lines  # (at, text)
        self.place = place  # the center's position and text, ram
        self.lets = [] if lets is None else lets  # (at, var, rhs, sqrt)
        self.expect = expect
        self.orbifold = orbifold
        self.assertions = [] if assertions is None else assertions  # (at, key, text)
        self.description = description
        # identity and order lines: kind, label, an order's integer, (text, position) of each side
        self.checks = [] if checks is None else checks


_PLACE = re.compile(r"t\s*=\s*(.+?)(?:\s+ram\s+(\S+))?")
_ORBIFOLD = re.compile(r"genus\s+(\S+)\s+marks\s*\[(.*)\]")
_KEYWORDS = ("claim ", "adjoin ", "system:", "place:", "let ", "expect:", "orbifold ",
             "degree:", "general_type:", "description:", "identity ", "order ")
_ORBIFOLD_LINES = ("orbifold ", "degree:", "general_type:")
_ONCE = ("place:", "expect:", "orbifold ", "description:")  # lines a claim takes at most once
# an exponent literal, read from as many digits as the least bound on one has
# (MAX_POWER_DEGREE // MAX_RAMIFICATION = 100): a shorter one is within every bound
_POWER = re.compile(r"\^\s*-?\s*([0-9]{%d,})" % len(str(MAX_POWER_DEGREE // MAX_RAMIFICATION)))
_OF_R = re.compile(r"(?<!\w)r\s*$")  # text that ends in the local parameter r


def _rest(line: str, start: int, offset: int) -> tuple[str, int]:
    """line[offset:] stripped, with the file column where it starts."""
    text = line[offset:]
    return text.strip(), start + offset + len(text) - len(text.lstrip())


def _check_exponents(parsed: ParsedClaim) -> None:
    """Refuse an exponent literal past its bound, at the literal.  The work of a power of t
    grows with its degree |k|*e in r and, off t = 0, with |k|; a power of r has degree |k|."""
    e = parsed.place[2] if parsed.place else 1
    texts = [(at, text, e) for at, text in parsed.system_lines]
    texts += [(at, text, e) for at, _, text, _ in parsed.lets]
    texts += [(at, text, e) for *_, left, right in parsed.checks for text, at in (left, right)]
    texts += [(at, text, 1) for at, _, text in parsed.adjoins + parsed.assertions]
    texts += [(parsed.place[0], parsed.place[1], 1)] if parsed.place else []
    r_free = all(var != "r" for _, var, _, _ in parsed.lets)  # a let may shadow it in checks
    for (line, column), text, scale in texts:
        for found in _POWER.finditer(text):
            at = line, column + found.start(1)
            of_r = r_free and _OF_R.search(text, 0, found.start())
            bound = MAX_POWER_DEGREE if of_r else min(MAX_EXPONENT, MAX_POWER_DEGREE // scale)
            if _integer(found[1], *at) > bound:
                raise ClaimSyntaxError(f"an exponent here is at most {bound}", *at)


def parse_claim_file(text: str) -> list[ParsedClaim]:
    claims: dict[str, ParsedClaim] = {}
    first: dict[tuple[int, bool], tuple] = {}  # a claim's first line of each kind, by claim line
    let_names: dict[int, list[tuple[str, int, int]]] = {}  # name, line, column, by claim line
    current: ParsedClaim | None = None
    once: set[str] = set()  # the _ONCE keywords the current claim has used
    in_system = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        start = len(raw) - len(raw.lstrip()) + 1  # file column of line[0]
        keyword = next((k for k in _KEYWORDS if line.startswith(k)), None)
        if keyword is None and in_system:
            current.system_lines.append(((lineno, start), line))
            continue
        if keyword is None:
            raise ClaimSyntaxError(f"unexpected line {line!r}", lineno, start)
        if keyword != "system:":
            in_system = False
        rest, column = _rest(line, start, len(keyword))
        if keyword == "claim ":
            if not rest or not rest.replace("_", "").isalnum():
                raise ClaimSyntaxError(f"bad claim name {rest!r}", lineno, column)
            if rest in claims:
                raise DuplicateClaimError(f"claim {rest!r} declared twice")
            current = claims[rest] = ParsedClaim(rest, lineno)
            once = set()
            continue
        if current is None:
            raise ClaimSyntaxError("directives must follow a `claim NAME` line", lineno, start)
        if keyword != "description:":
            first.setdefault((current.line, keyword in _ORBIFOLD_LINES), (keyword, lineno, start))
        if keyword == "adjoin ":
            head, colon, _ = rest.partition(":")
            gen_name = head.strip()
            if not colon:
                raise ClaimSyntaxError("adjoin NAME : MINPOLY = 0", lineno, column)
            if gen_name in ("t", "r"):  # the coordinate and the local parameter
                raise ClaimSyntaxError(f"generator name {gen_name!r} is reserved", lineno, column)
            if any(name == gen_name for _, name, _ in current.adjoins):
                raise ClaimSyntaxError(f"generator {gen_name!r} adjoined twice", lineno, column)
            minpoly, minpoly_column = _rest(rest, column, len(head) + 1)
            if not minpoly.endswith("= 0"):
                raise ClaimSyntaxError("adjoined minimal polynomial must end in = 0",
                                       lineno, minpoly_column)
            current.adjoins.append(((lineno, minpoly_column), gen_name,
                                    minpoly[: -len("= 0")].strip()))
        elif keyword == "system:":
            in_system = True
        elif keyword == "place:":
            match = _PLACE.fullmatch(rest)
            if match is None:
                raise ClaimSyntaxError("place: t = CENTER ram E", lineno, column)
            ram = 1 if match[2] is None else read_integer(
                match[2], lineno, column + match.start(2),
                "ramification must be a positive integer", 1)
            if ram > MAX_RAMIFICATION:
                raise ClaimSyntaxError(f"ramification is at most {MAX_RAMIFICATION}",
                                       lineno, column + match.start(2))
            current.place = ((lineno, column + match.start(1)), match[1], ram)
        elif keyword == "let ":
            var, eq, _ = rest.partition("=")
            if not eq:
                raise ClaimSyntaxError("let VAR = EXPR", lineno, column)
            let_names.setdefault(current.line, []).append(
                (var.strip(), lineno, column + len(var) - len(var.lstrip())))
            rhs, column = _rest(rest, column, len(var) + 1)
            is_sqrt = rhs.startswith("sqrt(") and rhs.endswith(")")
            if is_sqrt:
                rhs, column = rhs[len("sqrt("):-1], column + len("sqrt(")
            current.lets.append(((lineno, column), var.strip(), rhs, is_sqrt))
        elif keyword == "expect:":
            if rest not in ("pass", "obstructed", "nonsquare", "lifts"):
                raise ClaimSyntaxError(f"unknown expectation {rest!r}", lineno, column)
            current.expect = rest
        elif keyword == "description:":
            current.description = rest
        elif keyword in ("identity ", "order "):
            kind = keyword.strip()
            label, colon, _ = rest.partition(":")
            body, column = _rest(rest, column, len(label) + 1)
            left, eq, _ = body.rpartition("=") if kind == "order" else body.partition("=")
            if not (colon and label.strip().isidentifier() and eq and left.strip()):
                raise ClaimSyntaxError(f"expected {kind} LABEL: EXPR = EXPR", lineno, start)
            right, right_column = _rest(body, column, len(left) + 1)
            order = None if kind == "identity" else read_integer(
                right, lineno, right_column, "an order is an integer")
            current.checks.append((kind, label.strip(), order, (left, (lineno, column)),
                                   (right, (lineno, right_column))))
        elif keyword == "orbifold ":
            match = _ORBIFOLD.fullmatch(rest)
            if match is None:
                raise ClaimSyntaxError("orbifold genus G marks [m1, ...]", lineno, column)
            genus = read_integer(match[1], lineno, column + match.start(1),
                                 "the genus is a nonnegative integer", 0)
            marks = [mark.strip() for mark in match[2].split(",")] if match[2].strip() else []
            current.orbifold = OrbifoldCurve(genus, [
                INF if mark == "inf" else read_integer(
                    mark, lineno, column + match.start(2), "marks are positive integers or inf", 1)
                for mark in marks])
        else:  # degree: or general_type:
            current.assertions.append(((lineno, column), keyword[:-1], rest))
        if keyword in _ONCE:
            if keyword in once:
                raise ClaimSyntaxError(f"a claim takes one {keyword.strip()!r} line", lineno, start)
            once.add(keyword)
    # the rules on a claim's lines taken together: an orbifold line makes an orbifold
    # fact, and a line of the other kind, which the claim would ignore, is an error
    for parsed in claims.values():
        orbifold = parsed.orbifold is not None
        if (parsed.line, not orbifold) in first:
            keyword, lineno, start = first[parsed.line, not orbifold]
            word = keyword.strip()
            raise ClaimSyntaxError(f"an orbifold fact takes no {word!r} line" if orbifold
                                   else f"{word!r} needs an orbifold line", lineno, start)
        if not orbifold and parsed.place is None:
            raise ClaimSyntaxError(f"claim {parsed.name!r} has no place", parsed.line, 1)
        _check_exponents(parsed)
        if parsed.expect == "nonsquare" and len(parsed.system_lines) != 1:
            raise ClaimSyntaxError("a nonsquare claim takes exactly one expression", parsed.line, 1)
        # a system reads t and the generators as themselves, so no let may rebind them
        # there; a nonsquare claim's checks may see a let that shadows t
        if parsed.expect != "nonsquare":
            generators = {name for _, name, _ in parsed.adjoins}
            for name, lineno, column in let_names.get(parsed.line, ()):
                if name == "t" or name in generators:
                    what = "the coordinate" if name == "t" else "a generator"
                    raise ClaimSyntaxError(f"a let may not bind {name!r}: the system reads it "
                                           f"as {what}", lineno, column)
    return list(claims.values())


def _evaluate(text: str, position: Position, env: dict, where: str,
              const: Callable | None = None, cache: dict | None = None, lets: Collection = ()):
    """The exact value of an expression over env; const makes its constants (t's by default).

    An undeclared identifier, a let of lets that env leaves out (a check leaves
    out the square-root lets) and a division by zero, at its zero divisor, are
    positioned errors.
    cache is evaluate's, keyed on operand values: calls over one backend that
    share it (the lets of a run, say) evaluate each distinct operation once.
    """
    divisors: dict = {}
    expr = parse_expression(text, *position, divisors)
    unknown = free_symbols(expr) - set(env)
    if unknown:
        name = sorted(unknown)[0]
        at = next((at_line, at_column) for _, word, at_line, at_column
                  in _tokenize(text, *position) if word == name)
        if any(var == name for _, var, _, _ in lets):
            raise ClaimSyntaxError(f"{name!r} is a square-root let; checks and nonsquare "
                                   "expressions read only exact lets", *at)
        raise ClaimSyntaxError(f"undeclared identifier {name!r} in {where}", *at)
    const = const or env["t"]._constant
    cache = {} if cache is None else cache
    try:
        return evaluate(expr, env, const, cache=cache)
    except ZeroDivisionError:
        at = _zero_divisor(expr, divisors, env, const, cache) or position
        raise ClaimSyntaxError(f"division by zero in {where}", *at) from None


def _build_tower(parsed: ParsedClaim, towers: dict) -> FieldTower:
    """The claim's tower: each adjoin line is a monic quadratic in its generator.

    towers holds every chain of adjoin lines built so far, keyed by names and
    texts, so claims that adjoin the same chain share one immutable tower.
    """
    tower, chain = QQ, ()
    for position, gen_name, text in parsed.adjoins:
        chain += ((gen_name, text),)
        if chain in towers:
            tower = towers[chain]
            continue
        place = Place.finite(tower.zero())  # t = r, so the polynomial is read in r
        env = {g: RationalFunction.constant(tower, place, tower.gen(g))
               for g in tower.generator_names}
        env[gen_name] = r_function(tower, place)
        minpoly = _evaluate(text, position, env, "adjoin", env[gen_name]._constant)
        one = tower.one()
        if minpoly.den != (one,) or len(minpoly.num) != 3 or minpoly.num[2] != one:
            raise ClaimSyntaxError(f"adjoin needs a monic quadratic in {gen_name!r}", *position)
        result = adjoin_quadratic(tower, gen_name, minpoly.num[1], minpoly.num[0])
        if isinstance(result, AlreadySplit):
            raise ClaimSyntaxError(
                f"{gen_name!r} would not extend the field: root {result.witness} exists",
                *position)
        tower = towers[chain] = result
    return tower


def _shared_system(systems: dict, source: str, tower: FieldTower) -> PolynomialSystem:
    """parse_system(source, tower), parsed once per registry.

    systems belongs to one registry and maps (source, tower) to the parsed
    system.  It fills as claims are built and never holds a failure, so each
    claim whose system does not parse raises with its own position.
    """
    key = (source, tower)
    system = systems.get(key)
    if system is None:
        system = systems[key] = parse_system(source, tower)
    return system


def _build_system(
    parsed: ParsedClaim, source: str, tower: FieldTower, systems: dict
) -> tuple[PolynomialSystem, tuple[int, str, Expr] | None]:
    """The claim's system, and find_cover_equation's result for an obstructed or lifts claim.

    source is the claim's system lines joined.  An error in it names the line
    and column of the claim file.  So do an obstructed or lifts claim with no
    cover equation, a variable no let binds, at its first use, and a
    square-root let whose variable the system uses with an odd power; the
    last let of a name binds it.  An obstructed claim leaves its cover
    variable w unbound when w occurs only as the w^2 of its cover equation; a
    lifts claim binds w to a square root, so its cover equation is found past
    those lets.  systems is shared by _shared_system.
    """
    try:
        system = _shared_system(systems, source, tower)
    except ClaimSyntaxError as err:
        line, column = parsed.system_lines[err.line - 1][0]
        raise ClaimSyntaxError(err.message, line, column + err.column - 1) from None
    lets = {var: is_sqrt for _, var, _, is_sqrt in parsed.lets}
    unbound = set(system.variables) - set(lets)
    cover = None
    if parsed.expect in ("obstructed", "lifts"):
        bound = lets if parsed.expect == "obstructed" else [v for v in lets if not lets[v]]
        try:
            cover = index, variable, g = find_cover_equation(system, bound)
        except ValueError:
            raise ClaimSyntaxError(f"{parsed.expect}: no cover equation w^2 = g",
                                   parsed.line, 1) from None
        if parsed.expect == "obstructed" and variable not in {
                *system.without_equation(index).variables, *free_symbols(g)}:
            unbound.discard(variable)
    for (line, column), text in parsed.system_lines if unbound else ():
        # the line parsed, so with its = or != blanked it tokenizes, each token in place
        for _, word, at_line, at_column in _tokenize(re.sub("[!=]", " ", text), line, column):
            if word in unbound:
                raise ClaimSyntaxError(f"unbound variable {word!r}: no let binds it",
                                       at_line, at_column)
    odd = next((v for v in lets if lets[v] and v in system.odd_powers), None)
    if odd is not None:
        line, column = max(position for position, var, _, _ in parsed.lets if var == odd)
        raise ClaimSyntaxError(f"{odd!r} is a square root; the system has an odd power of it",
                               line, column - len("sqrt("))
    return system, cover


def _build_place(parsed: ParsedClaim, tower: FieldTower) -> Place:
    position, center, ram = parsed.place
    if center == "infinity":
        return Place.at_infinity(ram)
    generators = {g: tower.gen(g) for g in tower.generator_names}
    return Place.finite(
        _evaluate(center, position, generators, "place center", tower.rational), ram)


def _build_bindings(
    parsed: ParsedClaim, tower: FieldTower, place: Place, cache: dict
) -> tuple[dict[str, ExactValue | FormalSqrt], dict[str, RationalFunction]]:
    """The point's bindings, and the values a check sees: t, r, generators, exact lets.

    cache becomes the point's: the lets read t and the generators from its
    _exact_context and fill its evaluate cache, so the exact system pass and
    the cover factor of the run reuse every operation the lets made.  Lets
    see only env, never each other.  The checks, where a let may shadow t,
    evaluate without the cache.
    """
    coordinates, evaluated = _exact_context(cache, tower, place)
    env = {**coordinates, "r": r_function(tower, place)}
    bindings: dict[str, ExactValue | FormalSqrt] = {}
    for position, var, rhs, is_sqrt in parsed.lets:
        value = _evaluate(rhs, position, env, "let", cache=evaluated)
        bindings[var] = FormalSqrt(value) if is_sqrt else ExactValue(value)
    exact = {var: b.value for var, b in bindings.items() if isinstance(b, ExactValue)}
    return bindings, {**env, **exact}


def _checks_hold(parsed: ParsedClaim, values: dict, evidence: dict) -> bool:
    """Record each identity and order check in evidence; whether all of them hold."""
    holds = True
    for kind, label, expected, (left, left_at), (right, right_at) in parsed.checks:
        value = _evaluate(left, left_at, values, kind, lets=parsed.lets)
        if kind == "identity":
            ok = value == _evaluate(right, right_at, values, kind, lets=parsed.lets)
            evidence[label] = "exact" if ok else "failed"
        else:  # the zero function has no order, so no order check holds for it
            order = None if value.is_zero() else value.order_at_zero()
            ok = order == expected
            evidence[f"{label}_order"] = order
            evidence[f"{label}_valuation"] = None if order is None else str(value.valuation())
        holds = holds and ok
    return holds


def _nonsquare(parsed: ParsedClaim, values: dict) -> tuple[str, dict]:
    """The claim's one expression, over the check values, certified a local non-square."""
    position, text = parsed.system_lines[0]
    value = _evaluate(text, position, values, "nonsquare", lets=parsed.lets)
    if value.is_zero():  # the zero function has no order, so it certifies nothing
        return "fail", {"expression": text, "result": "zero", "order": None}
    check = is_square_local(value)
    evidence = {"expression": text, "result": "nonsquare" if check.kind == "no" else "witness",
                "order": check.order}
    return ("pass" if check.kind == "no" else "fail"), evidence


def _lift_verdict(cover: PolynomialSystem, cover_equation: tuple[int, str, Expr],
                  point: PointAssignment, precision: int, evidence: dict) -> str:
    """Lift a verified point along its cover equation w^2 = g.

    The lift's witness must square to the square root the claim bound w to;
    a cover factor that vanishes at the point has no lift to check.
    """
    _, variable, g = cover_equation
    w_square = point.bindings[variable].square
    try:
        lift = _lift(cover, g, point, "over_c", precision)
    except ZeroFunctionError:
        evidence["lift"] = "zero"
        return "fail"
    evidence["lift"] = lift.kind
    if lift.witness is None:  # only a lift that succeeds has a witness
        return "fail"
    square = lift.witness * lift.witness
    matches = square.matches(w_square._lift(lift.tower).to_puiseux(square.precision))
    evidence["witness"] = str(lift.witness)
    evidence["witness_order"] = lift.witness.order_at_zero()
    evidence["witness_square_matches"] = matches
    return "pass" if matches else "fail"


def _orbifold_claim(parsed: ParsedClaim) -> Claim:
    """An orbifold fact; its assertions are read here, so a run only computes."""
    curve = parsed.orbifold
    expected = []
    for position, key, text in parsed.assertions:
        if key == "degree":
            expected.append((key, _evaluate(text, position, {}, "degree", Fraction)))
        elif text.lower() in ("true", "false"):
            expected.append((key, text.lower() == "true"))
        else:
            raise ClaimSyntaxError("general_type is true or false", *position)

    def run(params: ClaimParams) -> ClaimOutcome:
        actual = {"degree": degree(curve), "general_type": is_general_type(curve)}
        evidence = {"curve": str(curve), "degree": str(actual["degree"]),
                    "general_type": actual["general_type"]}
        evidence.update((f"{key}_expected", str(value) if key == "degree" else value)
                        for key, value in expected)
        held = all(actual[key] == value for key, value in expected)
        return ClaimOutcome("pass" if held else "fail", evidence)

    return Claim(parsed.name, "orbifold_fact",
                 parsed.description or "orbifold fact from claim file", run)


def _kind(parsed: ParsedClaim) -> str:
    """The kind of a claim on a point, read off its text."""
    if parsed.expect == "nonsquare" or any(kind == "order" for kind, *_ in parsed.checks):
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


def _obstructed(cover: PolynomialSystem, cover_equation: tuple[int, str, Expr],
                point: PointAssignment, params: ClaimParams) -> tuple[str, dict]:
    """The point verified exactly on the base system, then its cover factor a non-square.

    A base point that does not verify fails with the verification evidence;
    a cover factor that vanishes certifies nothing, so it fails as well.
    """
    index, variable, g = cover_equation
    verdict, evidence = _verified(cover.without_equation(index), point,
                                  ClaimParams(params.precision, params.samples, params.seed,
                                              mode="exact"))
    if verdict != "pass":
        return verdict, evidence
    try:
        outcome = _lift(cover, g, point, "over_c", params.precision)
    except ZeroFunctionError:  # the cover factor vanishes at the point
        return "fail", {"cover_variable": variable, "result": "zero", "order": None}
    evidence = {"cover_variable": variable, "result": outcome.kind, "order": outcome.order}
    return ("pass" if outcome.kind == "obstructed" else "fail"), evidence


def _claim_from_parsed(parsed: ParsedClaim, towers: dict, systems: dict) -> Claim:
    """The claim a parsed block declares, its system checked here, so that a run only parses
    and evaluates its let, check and nonsquare expressions; towers is shared by
    _build_tower, systems by _shared_system."""
    if parsed.orbifold is not None:
        return _orbifold_claim(parsed)
    tower = _build_tower(parsed, towers)
    place = _build_place(parsed, tower)
    if not (parsed.system_lines or parsed.checks):
        raise ClaimSyntaxError(f"claim {parsed.name!r} checks nothing: it has no system "
                               "and no identity or order line", parsed.line, 1)
    source = "\n".join(text for _, text in parsed.system_lines)
    if parsed.expect != "nonsquare":
        system, cover = _build_system(parsed, source, tower, systems)

    def run(params: ClaimParams) -> ClaimOutcome:
        cache: dict = {}  # one run's exact evaluations: lets, system pass and cover factor
        bindings, values = _build_bindings(parsed, tower, place, cache)
        point = PointAssignment(place, bindings, cache)
        if parsed.expect == "nonsquare":
            verdict, evidence = _nonsquare(parsed, values)
        elif parsed.expect == "obstructed":
            verdict, evidence = _obstructed(system, cover, point, params)
        else:
            verdict, evidence = _verified(system, point, params)
        if not _checks_hold(parsed, values, evidence):
            verdict = "fail"
        if parsed.expect == "lifts" and verdict == "pass":
            verdict = _lift_verdict(system, cover, point, params.precision, evidence)
        return ClaimOutcome(verdict, evidence)

    return Claim(parsed.name, _kind(parsed),
                 parsed.description or f"claim-file check ({parsed.expect})",
                 run, system_source=source if parsed.expect != "nonsquare" and source else None,
                 system_tower=tower if parsed.adjoins else None)


def load_claim_file(path: str, registry: Mapping[str, Claim] | None = None) -> dict[str, Claim]:
    """Parse a claim file and return the session registry extended with it."""
    base = dict(registry if registry is not None else builtin_registry())
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # an error at the first byte that does not decode, in parse_claim_file's lines
        lines = (data[:err.start].decode("utf-8") + "?").splitlines()
        raise ClaimSyntaxError(f"byte 0x{data[err.start]:02x} is not UTF-8 ({err.reason})",
                               len(lines), len(lines[-1])) from None
    towers: dict = {}
    systems: dict = {}
    for parsed in parse_claim_file(text):
        if parsed.name in base:
            raise DuplicateClaimError(f"claim {parsed.name!r} already registered")
        base[parsed.name] = _claim_from_parsed(parsed, towers, systems)
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

# Q(alpha, beta), with alpha^2 = alpha + 1 and beta^2 = -alpha, for the golden family
_GOLDEN_ADJOINS = """\
adjoin alpha : alpha^2 - alpha - 1 = 0
adjoin beta : beta^2 + alpha = 0
"""

# the golden claims' point and cover system: builtin_registry parses it once, registers no claim
GOLDEN_POINT_TEXT = _POINT_TEXT.format(
    "golden_point", "the golden point u = 1/beta + r, x = alpha at t = -alpha", _COVER,
    "-alpha ram 2", _GOLDEN_ADJOINS + "let u = 1/beta + r\nlet x = alpha")

# the golden family in shifted coordinates, expanded at t = r^2
SHIFTED_FORM_TEXT = """\
claim golden_shifted_form
description: shifted-coordinate equations verify; the factor keeps odd order
""" + _GOLDEN_ADJOINS + """system:
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


def _golden_point(golden: ParsedClaim, cover: PolynomialSystem, n: int) -> tuple:
    """The point of GOLDEN_POINT_TEXT (golden) at ramification 2n and its _env context, whose
    cache holds the lets' evaluations; the cover factor g of w^2 = g; and each base equation
    LHS = C*v^2 as (v, LHS, C)."""
    place = _build_place(golden, cover.tower).ramified(n)
    cache: dict = {}
    point = PointAssignment(place, _build_bindings(golden, cover.tower, place, cache)[0], cache)
    index, _, g = find_cover_equation(cover, point.bindings)
    return point, _env(cover, point), g, [(eq.rhs.right.base.name, eq.lhs, eq.rhs.left)
                                          for eq in cover.without_equation(index).equations]


def _form(lift: SquareOutcome) -> dict:
    """One cover form's evidence: the lift's result and order."""
    return {"result": lift.kind, "order": lift.order}


def _golden_nonlift_claim(n: int, golden: ParsedClaim, cover: PolynomialSystem) -> Claim:
    def run(params: ClaimParams) -> ClaimOutcome:
        point, context, g, equations = _golden_point(golden, cover, n)
        orders = {"cover_factor": evaluate(g, *context).order_at_zero()}
        orders.update((f"lhs_{k}", evaluate(lhs, *context).order_at_zero())
                      for k, (_, lhs, _) in enumerate(equations, start=1))
        squares = {}
        # y^2 and z^2 are the quotients LHS/C of the base equations
        for label, lhs, c in equations:
            square = solve_square(cover, lhs, c, point, precision=params.precision)
            squares[label] = {
                "result": square.kind,
                "quotient_order": square.order,
                "witness_precision": square.witness.precision if square.witness else None,
            }
        # y and z are unbound, so there is no base point to check: both forms are lifted as is
        twist = r_function(cover.tower, point.place) ** 2
        plain, twisted = (_form(_lift(cover, g, point, "over_c", params.precision, factor))
                          for factor in (None, twist))
        ok = (
            orders == {"cover_factor": 1, "lhs_1": 1, "lhs_2": 1}
            and all(s["result"] == "witness" for s in squares.values())
            and plain["result"] == twisted["result"] == "obstructed"
        )
        return ClaimOutcome(
            "pass" if ok else "fail",
            {
                "n": n,
                "ramification": 2 * n,
                "orders": orders,
                "cover_factor_valuation": str(Fraction(orders["cover_factor"], 2 * n)),
                "square_witnesses": squares,
                "plain_cover": plain,
                "twisted_cover": twisted,
            },
        )

    return Claim(
        f"golden_nonlift_n{n}",
        "squareness_certificate",
        "golden-ratio point: valuation certificates and cover obstructions",
        run,
        system_source=_COVER_SYSTEM_SOURCE,
        system_tower=cover.tower,
    )


def _two_forms(golden: ParsedClaim, cover: PolynomialSystem, params: ClaimParams) -> ClaimOutcome:
    point, context, g, equations = _golden_point(golden, cover, 1)
    # y and z are the square roots of the quotients LHS/C of the base equations
    point = PointAssignment(point.place, {**point.bindings, **{
        label: FormalSqrt(evaluate(lhs, *context) / evaluate(c, *context))
        for label, lhs, c in equations}}, point.cache)
    # lift_along_cover checks that the point really is a point of the base system
    plain = _form(lift_along_cover(cover, point, precision=params.precision))
    twisted = _form(_lift(cover, g, point, "over_c", params.precision,
                          r_function(cover.tower, point.place) ** 2))
    ok = plain["result"] == twisted["result"] == "obstructed"
    return ClaimOutcome(
        "pass" if ok else "fail",
        {
            "plain_form": plain,
            "twisted_form": twisted,
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
            # the membership DP against every i*a + j*b up to 60, enumerated
            sums = {i * a + j * b for i in range(60 // a + 1) for j in range(60 // b + 1)}
            profile = MultiplicityProfile((a, b))
            mismatches += sum(semigroup_contains(profile, m) != (m in sums) for m in range(61))
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
                base = degree(OrbifoldCurve(genus, finite))
                num, den = base.numerator, base.denominator
                for n_inf in range(7):
                    checked += 1
                    # the degrees base + n_inf, and base + n_inf * 6/7 once each
                    # inf is 7, times the positive den and 7 * den
                    if num + n_inf * den <= 0:
                        continue
                    if 7 * num + 6 * n_inf * den <= 0:
                        violations.append({"genus": genus, "finite": list(finite), "inf": n_inf})
    return {"curves_checked": checked, "replacement": 7, "violations": violations}


def builtin_registry() -> dict[str, Claim]:
    """All built-in claims, keyed by name, in a stable order."""
    towers: dict = {}
    systems: dict = {}

    def from_text(text: str) -> list[Claim]:
        return [_claim_from_parsed(parsed, towers, systems)
                for parsed in parse_claim_file(text)]

    claims = from_text(POINTS_TEXT)
    shifted_form = from_text(SHIFTED_FORM_TEXT)
    golden = parse_claim_file(GOLDEN_POINT_TEXT)[0]
    # its cover system over Q(alpha, beta), the tower the shifted form's adjoin lines built
    golden_cover = _shared_system(systems, _COVER_SYSTEM_SOURCE, _build_tower(golden, towers))
    claims += [_golden_nonlift_claim(n, golden, golden_cover) for n in range(1, 6)]
    claims += shifted_form
    claims.append(Claim("k3_cover_two_forms_obstructed", "lift_test",
                        "both double-cover forms obstruct at the golden place",
                        partial(_two_forms, golden, golden_cover),
                        system_source=_COVER_SYSTEM_SOURCE, system_tower=golden_cover.tower))
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
