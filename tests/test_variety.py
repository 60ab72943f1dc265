import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localpoints import builtin_registry, claims, run_claim, variety
from localpoints.errors import ClaimSyntaxError, OddPowerError
from localpoints.exprs import BinOp, evaluate, parse_expression
from localpoints.field_tower import QQ, adjoin_quadratic
from localpoints.series import (
    Place,
    RationalFunction,
    SquareOutcome,
    is_square_local,
    r_function,
    series_sqrt,
    t_function,
)
from localpoints.variety import (
    FormalSqrt,
    PointAssignment,
    find_cover_equation,
    lift_along_cover,
    parse_system,
    print_system,
    sample_square_lift_property,
    solve_square,
    valuation_case_predicates,
    verify_point,
)

BASE_SYSTEM = """\
x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2
(t^2*u^2 - t)*y^2 != 0
x^2 - 2*t*u^2 + 1/t = t*(t^2*u^2 - t)*z^2
t*(t^2*u^2 - t)*z^2 != 0
"""

COVER_EQUATION = "w^2 = t^2*u^2 - t\n"


def sqrt_t_point(place=None):
    place = place or Place.finite(QQ.zero(), 2)
    zero = RationalFunction.constant(QQ, place, 0)
    minus_one = RationalFunction.constant(QQ, place, -1)
    t = t_function(QQ, place)
    return PointAssignment(
        place,
        {
            "u": zero,
            "x": zero,
            "y": FormalSqrt(minus_one),
            "z": FormalSqrt(minus_one / t**3),
        },
    )


def test_parse_system_variables_and_shape():
    system = parse_system("x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2\n")
    assert set(system.variables) == {"x", "u", "y"}
    assert len(system.equations) == 1
    cover = parse_system(COVER_EQUATION)
    assert set(cover.variables) == {"w", "u"}


def test_parse_system_syntax_error():
    with pytest.raises(ClaimSyntaxError):
        parse_system("x^2 = \n")
    with pytest.raises(ClaimSyntaxError):
        parse_system("x^2 + 1\n")
    with pytest.raises(ClaimSyntaxError):
        parse_system("1/x = t\n")
    with pytest.raises(ClaimSyntaxError):
        parse_system("r + t = 0\n")
    # a divisor in t and the generators alone that vanishes, here or inside another
    for zero in ("x = 1/(t - t)", "x = 1/0", "x = (t^2 - t*t)^-1", "x/(1/(1 - 1)) != 0"):
        with pytest.raises(ClaimSyntaxError, match="division by zero in system"):
            parse_system(f"y = 1\n{zero}\n")
    assert parse_system("x = 1/(t - 1) + 2^-1\n").variables == ("x",)


# only \n, \r\n and \r end a system line: str.splitlines ended one at each of these too
@pytest.mark.parametrize("ch", "\f\v\x1c\x1d\x1e\x85\u2028\u2029",
                         ids=lambda ch: f"{ord(ch):#06x}")
def test_a_system_line_ends_only_at_a_line_break(ch):
    with pytest.raises(ClaimSyntaxError, match="^line 2, column 1: expected '=' or '!= 0'$"):
        parse_system(f"x = 1{ch}\ny\n")
    assert len(parse_system(f"x = 1\r\ny = 2\rz{ch}= 3\n").equations) == 3


def test_parser_roundtrip_on_system():
    system = parse_system(BASE_SYSTEM)
    assert parse_system(print_system(system)) == system


def test_sqrt_t_point_verifies_exactly():
    system = parse_system(BASE_SYSTEM)
    report = verify_point(system, sqrt_t_point())
    assert report["passed"]
    assert [eq["status"] for eq in report["equations"]] == ["exact_zero", "exact_zero"]
    assert [ineq["status"] for ineq in report["inequations"]] == ["nonzero", "nonzero"]
    assert report["equations"][1]["cleared_by"] == "t"


def test_wrong_sign_fails_with_residual():
    system = parse_system(BASE_SYSTEM)
    place = Place.finite(QQ.zero(), 2)
    zero = RationalFunction.constant(QQ, place, 0)
    one = RationalFunction.constant(QQ, place, 1)
    t = t_function(QQ, place)
    point = PointAssignment(
        place,
        {
            "u": zero,
            "x": zero,
            "y": FormalSqrt(one),
            "z": FormalSqrt(-one / t**3),
        },
    )
    report = verify_point(system, point)
    assert not report["passed"]
    first = report["equations"][0]
    assert first["status"] == "failed"
    # residual is 2t, order 2 at ramification 2
    assert first["residual_order"] == 2
    assert first["residual_lead"] == "2"


def test_exact_and_truncated_agree():
    system = parse_system(BASE_SYSTEM)
    for precision in (10, 25, 40):
        report = verify_point(system, sqrt_t_point(), mode="truncated", precision=precision)
        assert report["passed"]
        for eq in report["equations"]:
            assert eq["status"] == "zero_to_precision"


def test_formal_sqrt_and_series_binding_verdicts_match():
    system = parse_system(BASE_SYSTEM)
    place = Place.finite(QQ.zero(), 2)
    point = sqrt_t_point(place)
    y_series = series_sqrt(point.bindings["y"].square.to_puiseux(30))
    z_series = series_sqrt(point.bindings["z"].square._lift(y_series.tower).to_puiseux(30))
    series_point = PointAssignment(
        place,
        {
            "u": point.bindings["u"],
            "x": point.bindings["x"],
            "y": y_series._lift(z_series.tower),
            "z": z_series,
        },
    )
    exact = verify_point(system, point)
    truncated = verify_point(system, series_point, mode="truncated", precision=20)
    assert exact["passed"] and truncated["passed"]


def test_formal_sqrt_and_series_binding_verdicts_match_at_infinity():
    system = parse_system(BASE_SYSTEM)
    place = Place.at_infinity(1)
    one = RationalFunction.constant(QQ, place, 1)
    t = t_function(QQ, place)
    y_square = 1 / (t * t - t)
    z_square = (-2 / t**2 + 1 / t**3 + 1 / t**4) / (1 - 1 / t)
    point = PointAssignment(
        place,
        {
            "u": one,
            "x": one,
            "y": FormalSqrt(y_square),
            "z": FormalSqrt(z_square),
        },
    )
    exact = verify_point(system, point)
    assert exact["passed"]
    y_series = series_sqrt(y_square.to_puiseux(30))
    z_series = series_sqrt(z_square._lift(y_series.tower).to_puiseux(30))
    series_point = PointAssignment(
        place,
        {
            "u": one,
            "x": one,
            "y": y_series._lift(z_series.tower),
            "z": z_series,
        },
    )
    truncated = verify_point(system, series_point, mode="truncated", precision=16)
    assert truncated["passed"]


def test_formal_sqrt_and_series_binding_verdicts_match_at_cbrt_point():
    system = parse_system(BASE_SYSTEM)
    place = Place.finite(QQ.zero(), 3)
    r = r_function(QQ, place)
    x = 1 / r
    u = 1 / r**2
    y_square = (1 - r + r**5) / (r**4 * (1 - r))
    z_square = (1 + 2 * r) / r**8
    exact_point = PointAssignment(
        place,
        {
            "u": u,
            "x": x,
            "y": FormalSqrt(y_square),
            "z": FormalSqrt(z_square),
        },
    )
    assert verify_point(system, exact_point)["passed"]
    y_series = series_sqrt(y_square.to_puiseux(30))
    z_series = series_sqrt(z_square.to_puiseux(30))
    series_point = PointAssignment(
        place,
        {
            "u": u,
            "x": x,
            "y": y_series,
            "z": z_series,
        },
    )
    assert verify_point(system, series_point, mode="truncated", precision=16)["passed"]


def test_series_binding_verdict_matches_at_golden_point():
    # the truncated route adjoins formal roots of the quotient leading
    # coefficients (undecidable at height two) and still verifies
    tower, place, point, g = golden_point()
    system = parse_system(BASE_SYSTEM, tower)
    y_series = series_sqrt(point.bindings["y"].square.to_puiseux(24))
    z_series = series_sqrt(point.bindings["z"].square._lift(y_series.tower).to_puiseux(24))
    tower_z = z_series.tower
    assert tower_z.height == 4  # two formal roots on top of the golden tower
    series_point = PointAssignment(
        place,
        {
            "u": point.bindings["u"],
            "x": point.bindings["x"],
            "y": y_series._lift(tower_z),
            "z": z_series,
        },
    )
    report = verify_point(system, series_point, mode="truncated", precision=12)
    assert report["passed"]


def test_odd_power_occurrence_is_an_error():
    system = parse_system("y^3 = t\n")
    place = Place.finite(QQ.zero(), 1)
    point = PointAssignment(
        place, {"y": FormalSqrt(RationalFunction.constant(QQ, place, -1))}
    )
    with pytest.raises(OddPowerError):
        verify_point(system, point)


def test_unbound_variable_is_an_error():
    system = parse_system(BASE_SYSTEM)
    place = Place.finite(QQ.zero(), 2)
    with pytest.raises(ValueError):
        verify_point(system, PointAssignment(place, {}))


@pytest.mark.parametrize("name, kind", [("t", "RationalFunction"), ("t", "FormalSqrt"),
                                         ("alpha", "RationalFunction"), ("alpha", "FormalSqrt")])
def test_a_binding_that_shadows_t_or_a_generator_is_an_error(name, kind):
    tower = adjoin_quadratic(QQ, "alpha", 0, -2)
    place = Place.finite(tower.zero(), 1)
    system = parse_system("x = alpha^2*t^2\n", tower)  # even powers, as a square root needs
    one = RationalFunction.constant(tower, place, 1)
    binding = FormalSqrt(one) if kind == "FormalSqrt" else one
    point = PointAssignment(place, {"x": one, name: binding})
    for mode in ("exact", "truncated"):
        with pytest.raises(ValueError, match=f"may not shadow '{name}'"):
            verify_point(system, point, mode=mode)


def golden_point(n=1):
    base = adjoin_quadratic(QQ, "alpha", -1, -1)
    tower = adjoin_quadratic(base, "beta", 0, base.gen("alpha"))
    alpha, beta = tower.gen("alpha"), tower.gen("beta")
    place = Place.finite(-alpha, 2 * n)
    r = r_function(tower, place)
    t = t_function(tower, place)
    u = 1 / beta + r
    x = RationalFunction.constant(tower, place, alpha)
    g = u * u * t * t - t
    lhs1 = x * x - t * u * u + t
    lhs2 = x * x - 2 * t * u * u + 1 / t
    point = PointAssignment(
        place,
        {
            "u": u,
            "x": x,
            "y": FormalSqrt(lhs1 / g),
            "z": FormalSqrt(lhs2 / (t * g)),
        },
    )
    return tower, place, point, g


def test_golden_point_verifies_and_solves_squares():
    tower, place, point, g = golden_point()
    system = parse_system(BASE_SYSTEM, tower)
    report = verify_point(system, point)
    assert report["passed"]
    assert all(eq["status"] == "exact_zero" for eq in report["equations"])
    # both left-hand sides have order 1 and quotients are squares over C
    lhs1 = parse_expression("x^2 - t*u^2 + t")
    lhs2 = parse_expression("x^2 - 2*t*u^2 + 1/t")
    g_expr = parse_expression("t^2*u^2 - t")
    tg_expr = parse_expression("t*(t^2*u^2 - t)")
    for lhs, denom in ((lhs1, g_expr), (lhs2, tg_expr)):
        outcome = solve_square(system, lhs, denom, point)
        assert outcome.kind == "witness"
        assert outcome.order == 0


def test_golden_point_obstructs_both_cover_forms():
    tower, place, point, g = golden_point()
    cover = parse_system(BASE_SYSTEM + COVER_EQUATION, tower)
    plain = lift_along_cover(cover, point)
    assert plain.kind == "obstructed"
    assert plain.order == 1
    # the twisted cover factor g*r^2 keeps odd order, so it obstructs as well
    r = r_function(tower, place)
    twisted = is_square_local(g * r * r)
    assert twisted.kind == "no"
    assert twisted.order == 3


def test_sqrt_t_point_lifts_with_i_r():
    cover = parse_system(BASE_SYSTEM + COVER_EQUATION)
    point = sqrt_t_point()
    outcome = lift_along_cover(cover, point)
    assert (outcome.kind, outcome.order) == ("lifts", 2)
    _, w, g = find_cover_equation(cover, point.bindings)
    assert w == "w"
    witness = series_sqrt(evaluate(g, *variety._env(cover, point)).to_puiseux(40))
    assert witness.lead == 1
    imaginary = witness.leading_coefficient()
    assert imaginary * imaginary == witness.tower.rational(-1)
    # witness squared is exactly -t
    square = witness * witness
    assert square.coefficient(2) == witness.tower.rational(-1)
    minus_t = -t_function(witness.tower, witness.place)
    assert square.matches(minus_t.to_puiseux(square.precision))


def test_lift_along_cover_refuses_a_point_off_the_base_system():
    cover = parse_system(BASE_SYSTEM + COVER_EQUATION)
    point = sqrt_t_point()
    one = RationalFunction.constant(QQ, point.place, 1)
    off_base = PointAssignment(point.place, {**point.bindings, "x": one})
    with pytest.raises(ValueError, match="^base point does not verify on the base system$"):
        lift_along_cover(cover, off_base)


def unit_point():
    """The system x^2 = t and its point x = 1 at t = r."""
    place = Place.finite(QQ.zero(), 1)
    return parse_system("x^2 = t\n"), PointAssignment(
        place, {"x": RationalFunction.constant(QQ, place, 1)})


def test_solve_square_nonsquare_certificate():
    system, point = unit_point()
    outcome = solve_square(
        system, parse_expression("t"), parse_expression("1"), point
    )
    assert outcome.kind == "nonsquare"
    assert outcome.order == 1


def _reduced_quotient(system, lhs, g, point):
    context = variety._env(system, point)
    return evaluate(lhs, *context) / evaluate(g, *context)


def _reduced_outcome(system, lhs, g, point):
    """solve_square's outcome as read from the order of the reduced quotient lhs/g."""
    return variety._square_outcome(_reduced_quotient(system, lhs, g, point).order_at_zero(),
                                   ("witness", "nonsquare"))


@pytest.fixture(scope="module")
def registry():
    return builtin_registry()


@pytest.fixture(scope="module")
def golden(registry):
    """The golden point's claim and the cover system of the golden claims."""
    return (claims.parse_claim_file(claims.GOLDEN_POINT_TEXT)[0],
            registry["golden_nonlift_n1"].system)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("precision", (1, 2, 3, 40, 80))
def test_solve_square_reads_the_unreduced_quotient_as_the_reduced_one(golden, registry, n,
                                                                     precision):
    point_claim, cover = golden
    point, _, _, equations = claims._golden_point(point_claim, cover, n)
    assert len(equations) == 2
    # the claim at this precision reports the outcome, which no precision changes
    witnesses = run_claim(f"golden_nonlift_n{n}", registry,
                          precision=precision).evidence["square_witnesses"]
    for label, lhs, c in equations:
        fast = solve_square(cover, lhs, c, point)
        assert fast.kind == "witness"
        assert fast == _reduced_outcome(cover, lhs, c, point)
        assert (witnesses[label]["result"], witnesses[label]["quotient_order"]) == (
            fast.kind, fast.order)


# (1 + t) divides both sides, so the unreduced pair shares it; a square's root, taken
# as the claims take one at this precision, has its first coefficient known
@pytest.mark.parametrize("lhs, g, precision, kind, order", [
    ("t^3*(1 + t)", "1 + t", 2, "nonsquare", 3),  # odd order at or above precision
    ("t^2*(1 + t)*(2 + t)", "(1 + t)*(3 - t)", 5, "witness", 2),
    ("t^4*(1 + t)", "1 + t", 3, "witness", 4),  # even order at or above precision
])
def test_solve_square_outcomes_past_a_common_factor(lhs, g, precision, kind, order):
    system, point = unit_point()
    lhs, g = parse_expression(lhs), parse_expression(g)
    fast = solve_square(system, lhs, g, point)
    assert fast == SquareOutcome(kind, order)
    assert fast == _reduced_outcome(system, lhs, g, point)
    if kind == "witness":
        expansion = _reduced_quotient(system, lhs, g, point).to_puiseux(
            claims._root_precision(order, precision))
        root = series_sqrt(expansion)
        assert root.order_at_zero() == order // 2 < root.precision
        assert (root * root).matches(expansion)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("precision", (1, 2, 3, 40, 80))
def test_a_deferred_square_root_is_the_root_the_claim_reports(golden, registry, n,
                                                             precision):
    # the claim reports the precision of a root it does not take: take it here
    point_claim, cover = golden
    _, context, _, equations = claims._golden_point(point_claim, cover, n)
    report = run_claim(f"golden_nonlift_n{n}", registry, precision=precision)
    for label, lhs, c in equations:
        expansion = (evaluate(lhs, *context) / evaluate(c, *context)).to_puiseux(precision)
        root = series_sqrt(expansion)
        assert root.precision == report.evidence["square_witnesses"][label][
            "witness_precision"]
        square = root * root
        assert square.precision == precision and square.matches(expansion)


def _unexpanded(*args):
    raise AssertionError("the square was expanded")


def test_solve_square_decides_a_square_at_the_golden_point_without_expansion(golden,
                                                                             monkeypatch):
    point_claim, cover = golden
    point, context, _, equations = claims._golden_point(point_claim, cover, 1)
    _, lhs, c = equations[0]
    # t + alpha is r^2 at the golden point at ramification 2, so lhs/c gains order 2
    lhs = BinOp("*", lhs, parse_expression("t + alpha"))
    monkeypatch.setattr(RationalFunction, "to_puiseux", _unexpanded)
    assert solve_square(cover, lhs, c, point) == SquareOutcome("witness", 2)
    monkeypatch.undo()
    # at precision 2 its root is taken to order + 1 = 3, so one coefficient is known
    quotient = evaluate(lhs, *context) / evaluate(c, *context)
    root = series_sqrt(quotient.to_puiseux(claims._root_precision(2, 2)))
    assert (root.order_at_zero(), root.precision) == (1, 2)


def _fraction_predicates(vu: Fraction, vx: Fraction) -> tuple[bool, ...]:
    """The eight case regions as Fraction comparisons, as first transcribed."""
    half = Fraction(1, 2)
    return (
        vu < -half,
        vu == -half and vx > 0,
        vu == -half and vx == 0,
        vu == -half and vx < 0,
        -half < vu < 0 and 2 * vx < 1 + 2 * vu,
        -half < vu < 0 and 2 * vx >= 1 + 2 * vu,
        vu >= 0 and 2 * vx + 1 <= 0,
        vu >= 0 and 2 * vx + 1 > 0,
    )


def test_integer_case_predicates_match_fraction_transcription():
    for e in range(1, 13):
        for a in range(-30, 31):
            for b in range(-30, 31):
                vu, vx = Fraction(a, e), Fraction(b, e)
                assert valuation_case_predicates(vu, vx) == _fraction_predicates(vu, vx)


def test_integer_case_predicates_off_the_grid():
    # unequal denominators, and plain ints
    values = sorted({Fraction(p, q) for p in range(-8, 9) for q in range(1, 8)})
    pairs = [(vu, vx) for vu in values for vx in values]
    pairs += [(Fraction(-1, 2), Fraction(1, 3)), (Fraction(-1, 3), Fraction(-1, 6))]
    pairs += [(p, m) for p in range(-3, 4) for m in range(-3, 4)]
    pairs += [(Fraction(-1, 2), 0), (0, Fraction(-1, 2)), (-1, Fraction(5, 7))]
    for vu, vx in pairs:
        assert valuation_case_predicates(vu, vx) == _fraction_predicates(vu, vx), (vu, vx)
        assert sum(valuation_case_predicates(vu, vx)) == 1


def test_valuation_case_examples():
    # (v(u), v(x)) = (a/e, b/e): (-1, 0) in case 1, (-1/2, 0) in case 3, (0, 5) in case 8
    by_case = variety._grid_cases()[0]
    assert (1, -1, 0) in by_case[1]
    assert (2, -1, 0) in by_case[3]
    assert (1, 0, 5) in by_case[8]


def test_valuation_cases_partition_grid():
    for e in range(1, 7):
        for a in range(-12, 13):
            for b in range(-12, 13):
                hits = sum(valuation_case_predicates(Fraction(a, e), Fraction(b, e)))
                assert hits == 1


def test_sampled_square_lift_property_smoke():
    result = sample_square_lift_property(samples=200, seed=1)
    assert result["counterexamples"] == []
    assert result["hypothesis_hits"] > 0
    assert sum(result["case_counts"].values()) == 200
    assert all(count == 25 for count in result["case_counts"].values())


def test_sampled_square_lift_property_deterministic():
    one = sample_square_lift_property(samples=40, seed=7)
    two = sample_square_lift_property(samples=40, seed=7)
    assert one == two


# recorded when each draw became one choice from its case's grid triples;
# the draws must not change
_EIGHT_CASES = {1: 63, 2: 63, 3: 63, 4: 63, 5: 62, 6: 62, 7: 62, 8: 62}


@pytest.mark.parametrize("seed, hits, degenerate", [(1, 285, 22), (2, 284, 23), (3, 292, 27)])
def test_sampled_square_lift_property_stream_is_pinned(seed, hits, degenerate):
    assert sample_square_lift_property(500, seed) == {
        "samples": 500,
        "seed": seed,
        "case_counts": _EIGHT_CASES,
        "hypothesis_hits": hits,
        "degenerate": degenerate,
        "counterexamples": [],
    }


def _oracle_laurent(rng, place, order, terms):
    coeffs = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))]
    coeffs += [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(terms - 1)]
    unit = RationalFunction.from_coeffs(QQ, place, coeffs)
    shift = r_function(QQ, place) ** abs(order)
    return unit * shift if order >= 0 else unit / shift


def _oracle_grid_cases():
    """The 6 x 25 x 25 grid triples (e, a, b) grouped by their Fraction-transcribed case."""
    by_case = {case: [] for case in range(1, 9)}
    for e in range(1, 7):
        for a in range(-12, 13):
            for b in range(-12, 13):
                hits = _fraction_predicates(Fraction(a, e), Fraction(b, e))
                [case] = [i for i, hit in enumerate(hits, start=1) if hit]
                by_case[case].append((e, a, b))
    return by_case


def _oracle_draws(samples, seed):
    """The sweep's stream replayed with gcd-normalised RationalFunction arithmetic.

    Yields (case, e, a, b), u, x and the orders of g, lhs1 and lhs2_cleared
    (None for zero).
    """
    by_case = _oracle_grid_cases()
    rng = random.Random(seed)
    for k in range(samples):
        case = k % 8 + 1
        e, a, b = rng.choice(by_case[case])
        place = Place.finite(QQ.zero(), e)
        t = t_function(QQ, place)
        u = _oracle_laurent(rng, place, a, rng.randint(1, 3))
        x = _oracle_laurent(rng, place, b, rng.randint(1, 3))
        g = u * u * t * t - t
        lhs1 = x * x - t * u * u + t
        lhs2_cleared = x * x * t - 2 * t * t * u * u + 1
        orders = tuple(None if f.is_zero() else f.order_at_zero() for f in (g, lhs1, lhs2_cleared))
        yield (case, e, a, b), u, x, orders


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sample_orders_match_rational_function_oracle(seed):
    # 3 x 667 draws, each seed with degenerate ones among them
    degenerate = 0
    draws = variety._draws(667, seed)
    for (case, e, a, u, b, x), (key, u_oracle, x_oracle, orders) in zip(
        draws, _oracle_draws(667, seed), strict=True
    ):
        assert (case, e, a, b) == key
        assert variety._sample_orders(e, a, u, b, x) == orders
        assert variety._laurent_text(e, a, u) == str(u_oracle)
        assert variety._laurent_text(e, b, x) == str(x_oracle)
        degenerate += None in orders
    assert degenerate > 0


_UNIT = st.builds(lambda lead, tail: [lead, *tail], st.integers(-3, 3).filter(bool),
                  st.lists(st.integers(-3, 3), max_size=2))
_TERM = st.tuples(st.integers(0, 3), st.integers(-3, 3).filter(bool), _UNIT)


@st.composite
def _terms_with_ties(draw):
    """Terms, some of them mirrored: the mirror has the negated scale and a unit with the
    same lead, so the two leads cancel at a tied shift, and with the same tail too the
    two terms cancel outright."""
    terms = draw(st.lists(_TERM, min_size=1, max_size=4))
    for shift, scale, unit in draw(st.lists(st.sampled_from(terms), max_size=3)):
        tail = draw(st.one_of(st.just(unit[1:]), st.lists(st.integers(-3, 3), max_size=2)))
        terms.append((shift, -scale, [unit[0], *tail]))
    return draw(st.permutations(terms))


def _order_by_summing(terms):
    """The order of the sum of scale * r^shift * unit^2, every coefficient summed."""
    total = {}
    for shift, scale, unit in terms:
        for i, a in enumerate(unit):
            for j, b in enumerate(unit):
                total[shift + i + j] = total.get(shift + i + j, 0) + scale * a * b
    return min((exponent for exponent, c in total.items() if c), default=None)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_terms_with_ties())
@example([(0, 1, [1, 1]), (0, -1, [1, 2])])  # the leads cancel: order 1
@example([(1, 2, [1, -1]), (1, -2, [1, -1])])  # the sum vanishes
def test_order_of_sum_reads_a_unique_lowest_shift_and_sums_only_at_a_tie(terms):
    assert variety._order_of_sum(*terms) == _order_by_summing(terms)


def test_grid_cases_are_the_triples_in_each_case():
    # each list holds exactly the triples that rejection from the whole grid
    # accepted for its case, in grid order, and the eight cover the grid once
    by_case, violations = variety._grid_cases()
    assert by_case == _oracle_grid_cases()
    assert violations == []
    triples = [triple for case in range(1, 9) for triple in by_case[case]]
    assert len(triples) == len(set(triples)) == 6 * 25 * 25
    assert all(by_case[case] for case in range(1, 9))


def test_sampled_square_lift_property_reads_each_grid_case_once(monkeypatch):
    # the sweep computes the case of each of the 6 x 25 x 25 grid triples once
    calls = []
    predicates = variety.valuation_case_predicates
    monkeypatch.setattr(variety, "valuation_case_predicates",
                        lambda vu, vx: calls.append((vu, vx)) or predicates(vu, vx))
    sample_square_lift_property(500, 1)
    assert len(calls) == 6 * 25 * 25
    # a second sweep in the same process computes its cases afresh: the case
    # lists live for one sweep, so a traced run after an untraced one still counts
    first = len(calls)
    sample_square_lift_property(500, 1)
    assert len(calls) == 2 * first


def test_sweep_rejects_negative_sizes():
    with pytest.raises(ValueError, match="^a sweep needs samples >= 0; got -1$"):
        sample_square_lift_property(-1, 1)
