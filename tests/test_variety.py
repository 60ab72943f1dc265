import random
import subprocess
import sys
from fractions import Fraction

import pytest

from localpoints import variety
from localpoints.errors import ClaimSyntaxError, OddPowerError
from localpoints.exprs import parse_expression
from localpoints.field_tower import QQ, adjoin_quadratic
from localpoints.series import Place, RationalFunction, r_function, series_sqrt, t_function
from localpoints.variety import (
    ExactValue,
    FormalSqrt,
    PointAssignment,
    SeriesValue,
    lift_along_cover,
    parse_system,
    print_system,
    sample_square_lift_property,
    solve_square,
    valuation_case,
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
    zero = RationalFunction.zero(QQ, place)
    minus_one = RationalFunction.constant(QQ, place, -1)
    t = t_function(QQ, place)
    return PointAssignment(
        place,
        {
            "u": ExactValue(zero),
            "x": ExactValue(zero),
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


def test_parser_roundtrip_on_system():
    system = parse_system(BASE_SYSTEM)
    assert parse_system(print_system(system)) == system


def test_sqrt_t_point_verifies_exactly():
    system = parse_system(BASE_SYSTEM)
    report = verify_point(system, sqrt_t_point())
    assert report.passed
    assert [eq.status for eq in report.equations] == ["exact_zero", "exact_zero"]
    assert [ineq.status for ineq in report.inequations] == ["nonzero", "nonzero"]
    assert report.equations[1].cleared_by == "t"


def test_wrong_sign_fails_with_residual():
    system = parse_system(BASE_SYSTEM)
    place = Place.finite(QQ.zero(), 2)
    zero = RationalFunction.zero(QQ, place)
    one = RationalFunction.constant(QQ, place, 1)
    t = t_function(QQ, place)
    point = PointAssignment(
        place,
        {
            "u": ExactValue(zero),
            "x": ExactValue(zero),
            "y": FormalSqrt(one),
            "z": FormalSqrt(-one / t**3),
        },
    )
    report = verify_point(system, point)
    assert not report.passed
    first = report.equations[0]
    assert first.status == "failed"
    # residual is 2t, order 2 at ramification 2
    assert first.residual_order == 2
    assert first.residual_lead == "2"


def test_exact_and_truncated_agree():
    system = parse_system(BASE_SYSTEM)
    for precision in (10, 25, 40):
        report = verify_point(system, sqrt_t_point(), mode="truncated", precision=precision)
        assert report.passed
        for eq in report.equations:
            assert eq.status == "zero_to_precision"


def test_formal_sqrt_and_series_binding_verdicts_match():
    system = parse_system(BASE_SYSTEM)
    place = Place.finite(QQ.zero(), 2)
    point = sqrt_t_point(place)
    y_series, tower = series_sqrt(point.bindings["y"].square.to_puiseux(30))
    z_series, tower2 = series_sqrt(point.bindings["z"].square._lift(tower).to_puiseux(30))
    series_point = PointAssignment(
        place,
        {
            "u": point.bindings["u"],
            "x": point.bindings["x"],
            "y": SeriesValue(y_series._lift(tower2)),
            "z": SeriesValue(z_series),
        },
    )
    exact = verify_point(system, point)
    truncated = verify_point(system, series_point, mode="truncated", precision=20)
    assert exact.passed and truncated.passed


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
            "u": ExactValue(one),
            "x": ExactValue(one),
            "y": FormalSqrt(y_square),
            "z": FormalSqrt(z_square),
        },
    )
    exact = verify_point(system, point)
    assert exact.passed
    y_series, tower = series_sqrt(y_square.to_puiseux(30))
    z_series, tower2 = series_sqrt(z_square._lift(tower).to_puiseux(30))
    series_point = PointAssignment(
        place,
        {
            "u": ExactValue(one),
            "x": ExactValue(one),
            "y": SeriesValue(y_series._lift(tower2)),
            "z": SeriesValue(z_series),
        },
    )
    truncated = verify_point(system, series_point, mode="truncated", precision=16)
    assert truncated.passed


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
            "u": ExactValue(u),
            "x": ExactValue(x),
            "y": FormalSqrt(y_square),
            "z": FormalSqrt(z_square),
        },
    )
    assert verify_point(system, exact_point).passed
    y_series, _ = series_sqrt(y_square.to_puiseux(30))
    z_series, _ = series_sqrt(z_square.to_puiseux(30))
    series_point = PointAssignment(
        place,
        {
            "u": ExactValue(u),
            "x": ExactValue(x),
            "y": SeriesValue(y_series),
            "z": SeriesValue(z_series),
        },
    )
    assert verify_point(system, series_point, mode="truncated", precision=16).passed


def test_series_binding_verdict_matches_at_golden_point():
    # the truncated route adjoins formal roots of the quotient leading
    # coefficients (undecidable at height two) and still verifies
    tower, place, point, g = golden_point()
    system = parse_system(BASE_SYSTEM, tower)
    y_series, tower_y = series_sqrt(point.bindings["y"].square.to_puiseux(24))
    z_series, tower_z = series_sqrt(
        point.bindings["z"].square._lift(tower_y).to_puiseux(24)
    )
    assert tower_z.height == 4  # two formal roots on top of the golden tower
    series_point = PointAssignment(
        place,
        {
            "u": point.bindings["u"],
            "x": point.bindings["x"],
            "y": SeriesValue(y_series._lift(tower_z)),
            "z": SeriesValue(z_series),
        },
    )
    report = verify_point(system, series_point, mode="truncated", precision=12)
    assert report.passed


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
            "u": ExactValue(u),
            "x": ExactValue(x),
            "y": FormalSqrt(lhs1 / g),
            "z": FormalSqrt(lhs2 / (t * g)),
        },
    )
    return tower, place, point, g


def test_golden_point_verifies_and_solves_squares():
    tower, place, point, g = golden_point()
    system = parse_system(BASE_SYSTEM, tower)
    report = verify_point(system, point)
    assert report.passed
    assert all(eq.status == "exact_zero" for eq in report.equations)
    # both left-hand sides have order 1 and quotients are squares over C
    lhs1 = parse_expression("x^2 - t*u^2 + t")
    lhs2 = parse_expression("x^2 - 2*t*u^2 + 1/t")
    g_expr = parse_expression("t^2*u^2 - t")
    tg_expr = parse_expression("t*(t^2*u^2 - t)")
    for lhs, denom in ((lhs1, g_expr), (lhs2, tg_expr)):
        outcome = solve_square(system, lhs, denom, point, precision=12)
        assert outcome.kind == "witness"
        assert outcome.order == 0


def test_golden_point_obstructs_both_cover_forms():
    tower, place, point, g = golden_point()
    cover = parse_system(BASE_SYSTEM + COVER_EQUATION, tower)
    plain = lift_along_cover(cover, point)
    assert plain.kind == "obstructed"
    assert plain.order == 1
    r = r_function(tower, place)
    twisted = lift_along_cover(cover, point, twist=r * r)
    assert twisted.kind == "obstructed"
    assert twisted.order == 3


def test_sqrt_t_point_lifts_with_i_r():
    cover = parse_system(BASE_SYSTEM + COVER_EQUATION)
    outcome = lift_along_cover(cover, sqrt_t_point())
    assert outcome.kind == "lifts"
    assert outcome.variable == "w"
    witness = outcome.witness
    assert witness.lead == 1
    imaginary = witness.leading_coefficient()
    assert imaginary * imaginary == outcome.tower.rational(-1)
    # witness squared is exactly -t
    square = witness * witness
    assert square.coefficient(2) == outcome.tower.rational(-1)
    minus_t = -t_function(outcome.tower, witness.place)
    assert square.matches(minus_t.to_puiseux(square.precision))


def test_solve_square_nonsquare_certificate():
    system = parse_system("x^2 = t\n")
    place = Place.finite(QQ.zero(), 1)
    point = PointAssignment(place, {"x": ExactValue(RationalFunction.constant(QQ, place, 1))})
    outcome = solve_square(
        system, parse_expression("t"), parse_expression("1"), point
    )
    assert outcome.kind == "nonsquare"
    assert outcome.order == 1


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
    assert valuation_case(Fraction(-1), Fraction(0)) == 1
    assert valuation_case(Fraction(-1, 2), Fraction(0)) == 3
    assert valuation_case(Fraction(0), Fraction(5)) == 8


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
    draws = variety._draws(667, seed, 6, 12)
    for (case, e, a, u, b, x), (key, u_oracle, x_oracle, orders) in zip(
        draws, _oracle_draws(667, seed), strict=True
    ):
        assert (case, e, a, b) == key
        assert variety._sample_orders(e, a, u, b, x) == orders
        assert variety._laurent_text(e, a, u) == str(u_oracle)
        assert variety._laurent_text(e, b, x) == str(x_oracle)
        degenerate += None in orders
    assert degenerate > 0


def test_grid_cases_are_the_triples_in_each_case():
    # each list holds exactly the triples that rejection from the whole grid
    # accepted for its case, in grid order, and the eight cover the grid once
    by_case = variety._grid_cases(6, 12)
    assert by_case == _oracle_grid_cases()
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


def test_sweep_over_a_grid_missing_a_case_raises():
    # drawing by rejection from these grids never ended, so the sweeps run in
    # a child process that the timeout stops
    code = (
        "from localpoints.variety import sample_square_lift_property as sweep\n"
        "for grid in ({'e_max': 1}, {'e_max': 2, 'max_numerator': 0}):\n"
        "    try:\n"
        "        sweep(8, 1, **grid)\n"
        "    except ValueError as err:\n"
        "        print(err)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, check=True)
    assert result.stdout.splitlines() == [
        "no grid triple with e <= 1 and |a|, |b| <= 12 falls in case 2, 3, 4, 5, 6",
        "no grid triple with e <= 2 and |a|, |b| <= 0 falls in case 1, 2, 3, 4, 5, 6, 7",
    ]


@pytest.mark.parametrize("samples, e_max, max_numerator", [(-1, 6, 12), (8, 0, 12), (8, 6, -1)])
def test_sweep_rejects_negative_sizes(samples, e_max, max_numerator):
    with pytest.raises(ValueError, match="a sweep needs samples >= 0"):
        sample_square_lift_property(samples, 1, e_max, max_numerator)


def test_sweep_needs_only_the_cases_it_draws():
    # fewer than eight samples draw from the first cases only; e = 1 has case 1
    assert sample_square_lift_property(0, 1, e_max=1)["case_counts"][1] == 0
    assert sample_square_lift_property(1, 1, e_max=1)["case_counts"][1] == 1
