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
from typing import Callable, Collection, Mapping

from .errors import (
    ClaimSyntaxError,
    DuplicateClaimError,
    PrecisionExhaustedError,
    UnknownClaimError,
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
    source_lines,
)
from .field_tower import QQ, FieldElement, FieldTower, adjoin_quadratic
from .orbifold import (
    INF,
    MultiplicityProfile,
    OrbifoldCurve,
    degree,
    forced_component,
    is_general_type,
    perturb_finite,
    profile_stats,
    pullback_half_marks,
    semigroup_contains,
    semigroup_members,
)
from .series import (
    DEFAULT_PRECISION,
    Place,
    RationalFunction,
    is_square_local,
    r_function,
    series_sqrt,
)
from .variety import (
    FormalSqrt,
    PointAssignment,
    PolynomialSystem,
    _env,
    _exact_context,
    _grid_cases,
    _zero_divisor,
    find_cover_equation,
    lift_along_cover,
    parse_system,
    sample_square_lift_property,
    solve_square,
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


class Claim:
    __slots__ = ("name", "kind", "description", "run", "system")

    def __init__(self, name: str, kind: str, description: str,
                 run: Callable[[ClaimParams], tuple[str, dict]],  # (verdict, evidence)
                 system: PolynomialSystem | None = None) -> None:
        self.name = name
        self.kind = kind
        self.description = description
        self.run = run
        self.system = system  # the system the claim checks its point on, if it has one


class ClaimReport:
    __slots__ = ("name", "kind", "verdict", "evidence", "wall_time")

    def __init__(self, name: str, kind: str, verdict: str, evidence: dict,
                 wall_time: float) -> None:
        self.name = name
        self.kind = kind
        self.verdict = verdict  # "pass" | "fail" | "undecided"
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
        verdict, evidence = claim.run(params)
    except PrecisionExhaustedError as err:
        verdict, evidence = "undecided", {
            "reason": "precision_exhausted", "precision": params.precision, "detail": str(err),
        }
    elapsed = time.perf_counter() - start
    return ClaimReport(claim.name, claim.kind, verdict, evidence, elapsed)


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
    """A claim block as parse_claim_file reads it; its lists start empty."""

    __slots__ = ("name", "line", "column", "adjoins", "system_lines", "place", "lets", "expect",
                 "orbifold", "assertions", "description", "checks")

    def __init__(self, name: str, line: int, column: int) -> None:
        self.name = name
        self.line = line
        self.column = column  # where the name starts on the claim line
        self.adjoins: list = []  # (at, name, minpoly)
        self.system_lines: list = []  # (at, text)
        self.place: tuple | None = None  # the center's position and text, ram
        self.lets: list = []  # (at, var, rhs, sqrt)
        self.expect = "pass"
        self.orbifold: OrbifoldCurve | None = None
        self.assertions: list = []  # (at, key, text)
        self.description: str | None = None
        # identity and order lines: kind, label, an order's integer or "odd", each side's (text, at)
        self.checks: list = []


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
    taken: set[str] = set()  # the evidence keys the current claim and its checks write
    in_system = False
    for lineno, raw in enumerate(source_lines(text), start=1):
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
                raise DuplicateClaimError(f"claim {rest!r} declared twice", lineno, column)
            current = claims[rest] = ParsedClaim(rest, lineno, column)
            once, taken = set(), set(EVIDENCE_KEYS)
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
            # a let name follows the rule of every identifier, and is one identifier
            if [kind for kind, *_ in _tokenize(var, lineno, column)] != ["ident", "end"]:
                raise ClaimSyntaxError(f"a let binds one identifier, not {var.strip()!r}",
                                       lineno, column)
            let_names.setdefault(current.line, []).append((var.strip(), lineno, column))
            rhs, column = _rest(rest, column, len(var) + 1)
            is_sqrt = rhs.startswith("sqrt(") and rhs.endswith(")")
            if is_sqrt:
                rhs, column = rhs[len("sqrt("):-1], column + len("sqrt(")
            current.lets.append(((lineno, column), var.strip(), rhs, is_sqrt))
        elif keyword == "expect:":
            if rest not in ("pass", "obstructed", "lifts"):
                raise ClaimSyntaxError(f"unknown expectation {rest!r}", lineno, column)
            current.expect = rest
        elif keyword == "description:":
            current.description = rest
        elif keyword in ("identity ", "order "):
            kind = keyword.strip()
            label, colon, _ = rest.partition(":")
            label_column = column
            body, column = _rest(rest, column, len(label) + 1)
            label = label.strip()
            left, eq, _ = body.rpartition("=") if kind == "order" else body.partition("=")
            if not (colon and label.isidentifier() and eq and left.strip()):
                raise ClaimSyntaxError(f"expected {kind} LABEL: EXPR = EXPR", lineno, start)
            right, right_column = _rest(body, column, len(left) + 1)
            order = None if kind == "identity" else right if right == "odd" else read_integer(
                right, lineno, right_column, "an order is an integer or odd")
            keys = {label} if kind == "identity" else {f"{label}_order", f"{label}_valuation"}
            if keys & taken:
                raise ClaimSyntaxError(f"the evidence key {min(keys & taken)!r} is already taken",
                                       lineno, label_column)
            taken |= keys
            current.checks.append((kind, label, order, (left, (lineno, column)),
                                   (right, (lineno, right_column))))
        elif keyword == "orbifold ":
            match = _ORBIFOLD.fullmatch(rest)
            if match is None:
                raise ClaimSyntaxError("orbifold genus G marks [m1, ...]", lineno, column)
            genus = read_integer(match[1], lineno, column + match.start(1),
                                 "the genus is a nonnegative integer", 0)
            marks, at = [], column + match.start(2)  # the file column of each mark's text
            for text in match[2].split(",") if match[2].strip() else []:
                mark, mark_column = _rest(text, at, 0)
                marks.append(INF if mark == "inf" else read_integer(
                    mark, lineno, mark_column, "marks are positive integers or inf", 1))
                at += len(text) + 1
            current.orbifold = OrbifoldCurve(genus, marks)
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
        # a system reads t and the generators as themselves, so no let may rebind them
        # there; the checks of a claim with no system may see a let that shadows t
        if parsed.system_lines:
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
            raise ClaimSyntaxError(f"{name!r} is a square-root let; checks read only exact lets",
                                   *at)
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
        if isinstance(result, FieldElement):
            raise ClaimSyntaxError(
                f"{gen_name!r} would not extend the field: root {result} exists",
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
    parsed: ParsedClaim, tower: FieldTower, systems: dict
) -> tuple[PolynomialSystem, tuple[PolynomialSystem, str, Expr] | None]:
    """The claim's system, and its cover's (base, w, g) for an obstructed or lifts claim.

    An error in the claim's system lines names the line and column of the
    claim file.  So do an obstructed or lifts claim with no cover equation, a
    variable no let binds, at its first use, and a square-root let whose
    variable the system uses with an odd power; the last let of a name binds
    it.  An obstructed claim leaves its cover variable w unbound when w occurs
    only as the w^2 of its cover equation; a lifts claim binds w to a square
    root, so its cover equation is found past those lets.  systems is shared
    by _shared_system.
    """
    source = "\n".join(text for _, text in parsed.system_lines)
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
            cover = base, variable, g = find_cover_equation(system, bound)
        except ValueError:
            raise ClaimSyntaxError(f"{parsed.expect}: no cover equation w^2 = g",
                                   parsed.line, 1) from None
        if parsed.expect == "obstructed" and variable not in {*base.variables, *free_symbols(g)}:
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


def _build_point(
    parsed: ParsedClaim, tower: FieldTower, place: Place
) -> tuple[PointAssignment, dict[str, RationalFunction]]:
    """The claim's point at place, and the values a check sees: t, r, generators, exact lets.

    The point gets a new cache: the lets read t and the generators from its
    _exact_context and fill its evaluate cache, so the exact system pass and
    the cover factor of the run reuse every operation the lets made.  Lets
    see only env, never each other.  The checks, where a let may shadow t,
    evaluate without the cache.
    """
    cache: dict = {}
    coordinates, evaluated = _exact_context(cache, tower, place)
    env = {**coordinates, "r": r_function(tower, place)}
    bindings: dict[str, RationalFunction | FormalSqrt] = {}
    for position, var, rhs, is_sqrt in parsed.lets:
        value = _evaluate(rhs, position, env, "let", cache=evaluated)
        bindings[var] = FormalSqrt(value) if is_sqrt else value
    exact = {var: b for var, b in bindings.items() if not isinstance(b, FormalSqrt)}
    return PointAssignment(place, bindings, cache), {**env, **exact}


# the evidence keys of a claim on a point, written by verify_point, _verified, run_claim,
# _obstructed, _parity and _lift_verdict: no check may write one of them
EVIDENCE_KEYS = frozenset((
    "mode place passed equations inequations bindings reason precision detail cover_variable "
    "result order lift witness witness_order witness_square_matches").split())


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
            ok = order is not None and (order % 2 == 1 if expected == "odd" else order == expected)
            evidence[f"{label}_order"] = order
            evidence[f"{label}_valuation"] = None if order is None else str(value.valuation())
        holds = holds and ok
    return holds


def _parity(value: RationalFunction) -> dict:
    """The squareness evidence of an exact cover factor: "lifts" at a local square,
    "obstructed" at a non-square; the zero function has no order, so it is "zero" and
    certifies nothing."""
    if value.is_zero():
        return {"result": "zero", "order": None}
    check = is_square_local(value)
    return {"result": "obstructed" if check.kind == "no" else "lifts", "order": check.order}


def _root_precision(order: int, precision: int) -> int:
    """The precision a square of this order is expanded to for its root: precision, or
    order + 1 where that would leave the root no known coefficient."""
    return max(precision, order + 1)


def _lift_verdict(cover: tuple[PolynomialSystem, str, Expr], point: PointAssignment,
                  precision: int, evidence: dict) -> str:
    """Lift a verified point along its cover equation w^2 = g; cover is (base, w, g).

    The lift's witness must square to the square root the claim bound w to;
    a cover factor that vanishes at the point (_parity's "zero") has no lift to check.
    """
    base, variable, g = cover
    w_square = point.bindings[variable].square
    g_value = evaluate(g, *_env(base, point))
    lift = _parity(g_value)
    evidence["lift"] = lift["result"]
    if lift["result"] != "lifts":  # only a lift that succeeds has a witness
        return "fail"
    witness = series_sqrt(g_value.to_puiseux(_root_precision(lift["order"], precision)))
    square = witness * witness
    matches = square.matches(w_square._lift(witness.tower).to_puiseux(square.precision))
    evidence["witness"] = str(witness)
    evidence["witness_order"] = witness.order_at_zero()
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

    def run(params: ClaimParams) -> tuple[str, dict]:
        actual = {"degree": degree(curve), "general_type": is_general_type(curve)}
        evidence = {"curve": str(curve), "degree": str(actual["degree"]),
                    "general_type": actual["general_type"]}
        evidence.update((f"{key}_expected", str(value) if key == "degree" else value)
                        for key, value in expected)
        held = all(actual[key] == value for key, value in expected)
        return ("pass" if held else "fail"), evidence

    return Claim(parsed.name, "orbifold_fact",
                 parsed.description or "orbifold fact from claim file", run)


def _kind(parsed: ParsedClaim) -> str:
    """The kind of a claim on a point, read off its text."""
    if any(kind == "order" for kind, *_ in parsed.checks):
        return "squareness_certificate"
    return "lift_test" if parsed.expect in ("obstructed", "lifts") else "point_verification"


def _verified(
    system: PolynomialSystem, point: PointAssignment, mode: str, precision: int
) -> tuple[str, dict]:
    """The point checked on the system: verdict and evidence."""
    evidence = verify_point(system, point, mode, precision)
    evidence["bindings"] = {
        var: f"sqrt({binding.square})" if isinstance(binding, FormalSqrt) else str(binding)
        for var, binding in point.bindings.items()
    }
    if evidence["passed"]:
        return "pass", evidence
    statuses = {c["status"] for c in evidence["equations"] + evidence["inequations"]}
    if not statuses & {"failed", "zero"}:
        # only constraints that vanish to precision: the precision decides, not the point
        evidence.update(reason="precision_exhausted", precision=precision)
        return "undecided", evidence
    return "fail", evidence


def _obstructed(cover: tuple[PolynomialSystem, str, Expr], point: PointAssignment,
                params: ClaimParams) -> tuple[str, dict]:
    """The point verified exactly on the base system, then its cover factor a non-square.

    Both are exact, so the precision never decides.  A base point that does not verify
    fails with the verification evidence; a cover factor that vanishes certifies nothing,
    so it fails as well.
    """
    base, variable, g = cover
    verdict, evidence = _verified(base, point, "exact", params.precision)
    if verdict != "pass":
        return verdict, evidence
    evidence = {"cover_variable": variable, **_parity(evaluate(g, *_env(base, point)))}
    return ("pass" if evidence["result"] == "obstructed" else "fail"), evidence


def _claim_from_parsed(parsed: ParsedClaim, towers: dict, systems: dict) -> Claim:
    """The claim a parsed block declares, its system checked here, so that a run only parses
    and evaluates its let and check expressions; towers is shared by _build_tower, systems
    by _shared_system.  A claim with no system lines verifies no point: its evidence is
    its checks'."""
    if parsed.orbifold is not None:
        return _orbifold_claim(parsed)
    tower = _build_tower(parsed, towers)
    place = _build_place(parsed, tower)
    if not (parsed.system_lines or parsed.checks):
        raise ClaimSyntaxError(f"claim {parsed.name!r} checks nothing: it has no system "
                               "and no identity or order line", parsed.line, 1)
    system = cover = None
    if parsed.system_lines or parsed.expect != "pass":  # a cover claim needs its cover equation
        system, cover = _build_system(parsed, tower, systems)

    def run(params: ClaimParams) -> tuple[str, dict]:
        point, values = _build_point(parsed, tower, place)
        if system is None:
            verdict, evidence = "pass", {}
        elif parsed.expect == "obstructed":
            verdict, evidence = _obstructed(cover, point, params)
        else:
            verdict, evidence = _verified(system, point, params.mode, params.precision)
        if not _checks_hold(parsed, values, evidence):
            verdict = "fail"
        if parsed.expect == "lifts" and verdict == "pass":
            verdict = _lift_verdict(cover, point, params.precision, evidence)
        return verdict, evidence

    return Claim(parsed.name, _kind(parsed),
                 parsed.description or f"claim-file check ({parsed.expect})",
                 run, system)


def load_claim_file(path: str, registry: Mapping[str, Claim] | None = None) -> dict[str, Claim]:
    """Parse a claim file and return the session registry extended with it."""
    base = dict(registry if registry is not None else builtin_registry())
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # an error at the first byte that does not decode, in parse_claim_file's lines
        lines = source_lines(data[:err.start].decode("utf-8") + "?")
        raise ClaimSyntaxError(f"byte 0x{data[err.start]:02x} is not UTF-8 ({err.reason})",
                               len(lines), len(lines[-1])) from None
    towers: dict = {}
    systems: dict = {}
    for parsed in parse_claim_file(text):
        if parsed.name in base:
            raise DuplicateClaimError(f"claim {parsed.name!r} already registered",
                                      parsed.line, parsed.column)
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
    point = _build_point(golden, cover.tower, place)[0]
    base, _, g = find_cover_equation(cover, point.bindings)
    return point, _env(cover, point), g, [(eq.rhs.right.base.name, eq.lhs, eq.rhs.left)
                                          for eq in base.equations]


def _golden_nonlift_claim(n: int, golden: ParsedClaim, cover: PolynomialSystem) -> Claim:
    def run(params: ClaimParams) -> tuple[str, dict]:
        point, context, g, equations = _golden_point(golden, cover, n)
        g_value = evaluate(g, *context)
        orders = {"cover_factor": g_value.order_at_zero()}
        orders.update((f"lhs_{k}", evaluate(lhs, *context).order_at_zero())
                      for k, (_, lhs, _) in enumerate(equations, start=1))
        squares = {}
        # y^2 and z^2 are the quotients LHS/C of the base equations, squares by the parity
        # of their orders; series_sqrt would give the root of an even order k, expanded to
        # _root_precision Q, to precision k/2 + (Q - k), which is reported without taking it
        for label, lhs, c in equations:
            square = solve_square(cover, lhs, c, point)
            squares[label] = {
                "result": square.kind,
                "quotient_order": square.order,
                "witness_precision": (_root_precision(square.order, params.precision)
                                      - square.order // 2 if square.kind == "witness" else None),
            }
        # y and z are unbound, so there is no base point to check: both forms are lifted as is
        twist = r_function(cover.tower, point.place) ** 2
        plain, twisted = (_parity(value) for value in (g_value, g_value * twist))
        ok = (
            orders == {"cover_factor": 1, "lhs_1": 1, "lhs_2": 1}
            and all(s["result"] == "witness" for s in squares.values())
            and plain["result"] == twisted["result"] == "obstructed"
        )
        return ("pass" if ok else "fail"), {
            "n": n,
            "ramification": point.place.e,
            "orders": orders,
            "cover_factor_valuation": str(g_value.valuation()),
            "square_witnesses": squares,
            "plain_cover": plain,
            "twisted_cover": twisted,
        }

    return Claim(f"golden_nonlift_n{n}", "squareness_certificate",
                 "golden-ratio point: valuation certificates and cover obstructions", run, cover)


def _two_forms(golden: ParsedClaim, cover: PolynomialSystem,
               params: ClaimParams) -> tuple[str, dict]:
    point, context, g, equations = _golden_point(golden, cover, 1)
    # y and z are the square roots of the quotients LHS/C of the base equations
    point = PointAssignment(point.place, {**point.bindings, **{
        label: FormalSqrt(evaluate(lhs, *context) / evaluate(c, *context))
        for label, lhs, c in equations}}, point.cache)
    # lift_along_cover checks that the point really is a point of the base system
    plain = lift_along_cover(cover, point)
    twisted = _parity(evaluate(g, *context) * r_function(cover.tower, point.place) ** 2)
    ok = plain.kind == twisted["result"] == "obstructed"
    return ("pass" if ok else "fail"), {
        "plain_form": {"result": plain.kind, "order": plain.order},
        "twisted_form": twisted,
        "base_point_verified": True,
    }


def _fact(
    name: str, kind: str, description: str, check: Callable[[ClaimParams], dict]
) -> Claim:
    """A claim computed in Python; it fails when its evidence lists failures or violations."""

    def run(params: ClaimParams) -> tuple[str, dict]:
        evidence = check(params)
        failed = evidence.get("failures") or evidence.get("violations")
        return ("fail" if failed else "pass"), evidence

    return Claim(name, kind, description, run)


def _square_lift_property(params: ClaimParams) -> tuple[str, dict]:
    result = sample_square_lift_property(samples=params.samples, seed=params.seed)
    if result["counterexamples"]:
        return "fail", result
    if not result["hypothesis_hits"]:
        # no sample met the hypothesis, so the sweep tested nothing
        return "undecided", {**result, "reason": "no_hypothesis_hits"}
    return "pass", result


def _case_partition(params: ClaimParams) -> dict:
    """The grid's points and violations, from one walk (_grid_cases) per run, as each sweep
    walks it: a process-wide memo would leave a traced sweep no predicate calls to divide by."""
    by_case, violations = _grid_cases()
    return {"grid_points": sum(map(len, by_case.values())) + len(violations),
            "violations": violations}


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
            sums = {i * a + j * b for i in range(60 // a + 1)
                    for j in range((60 - i * a) // b + 1)}
            mismatches += len(semigroup_members(MultiplicityProfile((a, b)), 60) ^ sums)
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


def _replacement() -> int:
    """What perturb_finite puts in place of an infinite mark."""
    return perturb_finite(OrbifoldCurve(0, [INF])).multiplicities[0]


def _perturbations(params: ClaimParams) -> dict:
    """D > 0 implies D - n/m > 0 on every orbifold curve, m being what perturb_finite
    puts in place of each of the n infinite marks.

    Write D = 2g - 2 + S + n, with S the sum of 1 - 1/a over the finite marks a.  With
    every infinite mark replaced by m the degree is D - n/m = 2g - 2 + S + n(1 - 1/m).
    A mark a adds 0 to S when a = 1 and at least 1/2 otherwise, and each infinite mark
    adds 1 - 1/m >= 0, so in each case D - n/m is least at the case's boundary curve:
      g >= 2            2                 at (2; [])
      g = 1, n >= 1     1 - 1/m           at (1; [inf])
      g = 0, n >= 3     1 - 3/m           at (0; [inf, inf, inf])
      g = 0, n = 2      1/2 - 2/m         at (0; [2, inf, inf]): D = S > 0, so S >= 1/2
      g = 0, n = 1      1/6 - 1/m         at (0; [2, 3, inf]): D = S - 1 > 0, so S >= 7/6
      n = 0             1/42              at (0; [2, 3, 7]): nothing is replaced, so
                                          D - n/m = D > 0, least at Hurwitz's 1/42
    The two least-S facts: the least positive S is 1/2, since a mark a >= 2 adds
    1 - 1/a >= 1/2.  The least S above 1 is 7/6: one mark adds less than 1, three marks
    >= 2 add at least 3/2, and two marks a <= b add 2 - 1/a - 1/b, above 1 only when
    1/a + 1/b < 1, which is then at most 1/2 + 1/3 (a = 2 needs b >= 3, and a, b >= 3
    give at most 2/3).  Every bound is positive from m = 7.  At m - 1 in place of inf,
    (0; [2, 3, inf]) has degree 1/6 - 1/(m - 1), which is 0 at m = 7: the (2, 3, 7)
    bound of Hurwitz makes 7 the least replacement.

    Each boundary curve goes through OrbifoldCurve, degree and perturb_finite, and its
    case is a violation unless the library's degree, less n/m, equals the degree of the
    perturbed curve and the bound, and the bound is positive.
    """
    m = _replacement()
    cases, violations = [], []
    for case, genus, marks, bound in (
        ("genus >= 2", 2, [], Fraction(2)),
        ("genus 1, n >= 1", 1, [INF], 1 - Fraction(1, m)),
        ("genus 0, n >= 3", 0, [INF] * 3, 1 - Fraction(3, m)),
        ("genus 0, n = 2", 0, [2, INF, INF], Fraction(1, 2) - Fraction(2, m)),
        ("genus 0, n = 1", 0, [2, 3, INF], Fraction(1, 6) - Fraction(1, m)),
        ("n = 0", 0, [2, 3, 7], Fraction(1, 42)),
    ):
        curve = OrbifoldCurve(genus, marks)
        entry = {"case": case, "curve": str(curve), "bound": str(bound)}
        cases.append(entry)
        before, after = degree(curve), degree(perturb_finite(curve))
        if not before - Fraction(marks.count(INF), m) == after == bound > 0:
            violations.append({**entry, "degree": str(before), "perturbed_degree": str(after)})
    evidence = {"replacement": m, "cases": cases, "violations": violations}
    if m > 1:  # a smaller positive replacement, and the curve it fails on
        witness = OrbifoldCurve(0, [2, 3, m - 1])
        evidence["minimality"] = {"curve": str(witness), "degree": str(degree(witness))}
    return evidence


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
                        partial(_two_forms, golden, golden_cover), golden_cover))
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
              f"replacing infinite marks by {_replacement()} preserves positive degree on "
              "every orbifold curve", _perturbations),
    ]
    return {claim.name: claim for claim in claims}
