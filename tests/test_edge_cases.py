"""Hardening tests for unusual places, precisions, and tri-state outcomes."""

from fractions import Fraction
from itertools import product

import pytest

from localpoints.errors import PrecisionExhaustedError, ZeroFunctionError
from localpoints.exprs import parse_expression
from localpoints.field_tower import QQ, adjoin_quadratic, embed
from localpoints.series import (
    Place,
    PuiseuxSeries,
    RationalFunction,
    is_square_local,
    r_function,
    t_function,
)
from localpoints.variety import (
    ExactValue,
    PointAssignment,
    parse_system,
    solve_square,
    verify_point,
)


def test_ramified_infinity_place():
    place = Place.at_infinity(2)
    t = t_function(QQ, place)
    assert t.order_at_zero() == -2
    assert t.valuation() == -1
    assert is_square_local(t).kind == "yes"
    assert is_square_local(t * r_function(QQ, place)).kind == "no"


def test_series_ramify_scales_exponents_and_precision():
    origin = Place.finite(QQ.zero(), 1)
    series = PuiseuxSeries.from_terms(QQ, origin, {-1: 2, 3: 5}, 10)
    doubled = series.ramify(2)
    assert doubled.place.e == 2
    assert doubled.lead == -2
    assert doubled.precision == 20
    assert doubled.coefficient(-2) == QQ.rational(2)
    assert doubled.coefficient(6) == QQ.rational(5)
    assert doubled.coefficient(1) == QQ.zero()


def test_coefficient_beyond_precision_raises():
    origin = Place.finite(QQ.zero(), 1)
    series = PuiseuxSeries.from_terms(QQ, origin, {0: 1}, 5)
    with pytest.raises(PrecisionExhaustedError):
        series.coefficient(5)


def test_products_of_normalized_series_keep_their_leading_term():
    # normalized nonzero operands always leave at least one known coefficient,
    # even at minimal precision
    origin = Place.finite(QQ.zero(), 1)
    low = PuiseuxSeries.from_terms(QQ, origin, {3: 1}, 4)
    lower = PuiseuxSeries.from_terms(QQ, origin, {-5: 1}, -4)
    assert (low * low).lead == 6
    assert (low * low).precision == 7
    assert (low * lower).lead == -2
    assert (low / low).coefficient(0) == QQ.one()
    # a nonzero series has lead < precision, so a product or quotient knows
    # min(a.precision - a.lead, b.precision - b.lead) >= 1 coefficients
    for a_lead, a_known, b_lead, b_known in product(range(-3, 4), range(1, 4), repeat=2):
        a = PuiseuxSeries.from_terms(QQ, origin, {a_lead: 1, a_lead + 1: 2}, a_lead + a_known)
        b = PuiseuxSeries.from_terms(QQ, origin, {b_lead: 3, b_lead + 1: 1}, b_lead + b_known)
        known = min(a_known, b_known)
        for result, lead in ((a * b, a_lead + b_lead), (a / b, a_lead - b_lead)):
            assert result.lead == lead and result.precision - lead == known


def test_zero_series_arithmetic_keeps_precision_honest():
    origin = Place.finite(QQ.zero(), 1)
    zero = PuiseuxSeries.zero(QQ, origin, 6)
    high = PuiseuxSeries.from_terms(QQ, origin, {10: 1}, 12)
    total = zero + high
    assert total.is_zero()
    assert total.precision == 6
    product = zero * high
    assert product.is_zero()
    assert product.precision == 16


def test_negative_power_of_rational_function():
    origin = Place.finite(QQ.zero(), 1)
    r = r_function(QQ, origin)
    f = (1 + r) ** -2
    assert (f * (1 + r) ** 2) == RationalFunction.constant(QQ, origin, 1)


def test_embed_through_three_levels():
    golden = adjoin_quadratic(QQ, "alpha", -1, -1)
    with_beta = adjoin_quadratic(golden, "beta", 0, golden.gen("alpha"))
    with_gamma = adjoin_quadratic(with_beta, "gamma", 0, -with_beta.rational(2))
    half = QQ.rational(Fraction(1, 2))
    assert embed(embed(half, golden), with_gamma) == embed(half, with_gamma)
    alpha = embed(golden.gen("alpha"), with_gamma)
    assert alpha * alpha == alpha + 1
    gamma = with_gamma.gen("gamma")
    assert gamma * gamma == with_gamma.rational(2)


def test_solve_square_nonsquare_in_exact_mode():
    golden = adjoin_quadratic(QQ, "alpha", -1, -1)
    tower = adjoin_quadratic(golden, "beta", 0, golden.gen("alpha"))
    place = Place.finite(tower.zero(), 1)
    system = parse_system("x^2 = t\n", tower)
    two = RationalFunction.constant(tower, place, 2)
    point = PointAssignment(place, {"x": ExactValue(two)})
    outcome = solve_square(
        system, parse_expression("2"), parse_expression("1"), point, mode="exact"
    )
    assert outcome.kind == "nonsquare"


def test_solve_square_refuses_a_vanishing_factor_or_left_hand_side():
    place = Place.finite(QQ.zero(), 1)
    system = parse_system("x^2 = t\n")
    point = PointAssignment(place, {"x": ExactValue(RationalFunction.constant(QQ, place, 1))})
    with pytest.raises(ZeroDivisionError, match="^square factor vanishes at the point$"):
        solve_square(system, parse_expression("t"), parse_expression("x - 1"), point)
    with pytest.raises(ZeroFunctionError, match="^left-hand side vanishes at the point$"):
        solve_square(system, parse_expression("x^2 - 1"), parse_expression("t"), point)


def test_truncated_verification_precision_is_min_of_bindings():
    system = parse_system("x = t\n")
    place = Place.finite(QQ.zero(), 1)
    t_series = t_function(QQ, place).to_puiseux(8)
    from localpoints.variety import SeriesValue

    point = PointAssignment(place, {"x": SeriesValue(t_series)})
    report = verify_point(system, point, mode="truncated", precision=30)
    assert report.passed
    assert report.equations[0].precision == 8


def test_sqrt_of_zero_series_rejected():
    origin = Place.finite(QQ.zero(), 1)
    from localpoints.series import series_sqrt

    with pytest.raises(ZeroFunctionError):
        series_sqrt(PuiseuxSeries.zero(QQ, origin, 5))


def test_point_verifies_at_ramified_infinity():
    # the infinity point also verifies after substituting r -> r^2
    system = parse_system(
        """x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2
(t^2*u^2 - t)*y^2 != 0
"""
    )
    place = Place.at_infinity(2)
    one = RationalFunction.constant(QQ, place, 1)
    t = t_function(QQ, place)
    from localpoints.variety import FormalSqrt

    point = PointAssignment(
        place,
        {"u": ExactValue(one), "x": ExactValue(one), "y": FormalSqrt(1 / (t * t - t))},
    )
    report = verify_point(system, point)
    assert report.passed
    # the constraint value is (t^2 - t) * 1/(t^2 - t) = 1
    assert report.inequations[0].order == 0
