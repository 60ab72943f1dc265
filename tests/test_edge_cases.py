"""Hardening tests for unusual places, precisions, and tri-state outcomes."""

from fractions import Fraction
from itertools import product
from unittest import mock

import pytest

from localpoints import variety
from localpoints.errors import ClaimSyntaxError, PrecisionExhaustedError, ZeroFunctionError
from localpoints.exprs import evaluate, parse_expression, to_text
from localpoints.field_tower import QQ, FieldTower, TowerStep, adjoin_quadratic, embed
from localpoints.orbifold import forced_component, pullback_half_marks
from localpoints.series import (
    Place,
    PuiseuxSeries,
    RationalFunction,
    is_square_local,
    r_function,
    series_sqrt,
    t_function,
)
from localpoints.variety import (
    PointAssignment,
    lift_along_cover,
    parse_system,
    solve_square,
    verify_point,
)


def test_ramified_infinity_place():
    place = Place.at_infinity(2)
    t = t_function(QQ, place)
    assert t.order_at_zero() == -2
    assert t.valuation() == -1
    assert is_square_local(t)
    assert not is_square_local(t * r_function(QQ, place))


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


def test_solve_square_refuses_a_vanishing_factor_or_left_hand_side():
    place = Place.finite(QQ.zero(), 1)
    system = parse_system("x^2 = t\n")
    point = PointAssignment(place, {"x": RationalFunction.constant(QQ, place, 1)})
    with pytest.raises(ZeroDivisionError, match="^square factor vanishes at the point$"):
        solve_square(system, parse_expression("t"), parse_expression("x - 1"), point)
    with pytest.raises(ZeroFunctionError, match="^left-hand side vanishes at the point$"):
        solve_square(system, parse_expression("x^2 - 1"), parse_expression("t"), point)


def test_truncated_verification_precision_is_min_of_bindings():
    system = parse_system("x = t\n")
    place = Place.finite(QQ.zero(), 1)
    t_series = t_function(QQ, place).to_puiseux(8)
    point = PointAssignment(place, {"x": t_series})
    report = verify_point(system, point, mode="truncated", precision=30)
    assert report["passed"]
    assert report["equations"][0]["precision"] == 8


def test_sqrt_of_zero_series_rejected():
    origin = Place.finite(QQ.zero(), 1)
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
        {"u": one, "x": one, "y": FormalSqrt(1 / (t * t - t))},
    )
    report = verify_point(system, point)
    assert report["passed"]
    # the constraint value is (t^2 - t) * 1/(t^2 - t) = 1
    assert report["inequations"][0]["order"] == 0


# -- every input check fires ---------------------------------------------------------

ORIGIN = Place.finite(QQ.zero(), 1)


def _reducible(height):
    """A tower built directly, without adjoin_quadratic's check, whose top step is the
    reducible x^2 - 1: its generator minus one is a zero divisor."""
    steps = (TowerStep("i", (Fraction(0),), (Fraction(1),)),)[:height - 1]
    below = 1 << len(steps)
    tower = FieldTower(steps + (TowerStep("x", (Fraction(0),) * below,
                                          (Fraction(-1),) + (Fraction(0),) * (below - 1)),))
    return tower.gen("x") - 1


def _sweep_over_broken_predicates():
    with mock.patch.object(variety, "valuation_case_predicates", lambda vu, vx: (True,) * 8):
        return variety.sample_square_lift_property(8)


def _series_binding_in_exact_mode():
    point = PointAssignment(ORIGIN, {"x": t_function(QQ, ORIGIN).to_puiseux(8)})
    return verify_point(parse_system("x = t"), point, mode="exact")


ZERO_RF = RationalFunction.constant(QQ, ORIGIN, 0)
ZERO_SERIES = PuiseuxSeries.zero(QQ, ORIGIN, 5)

# each input check of the library that no other test reaches, with its error
INPUT_CHECKS = [
    ("to_text_of_a_non_expression", lambda: to_text(3), TypeError, "not an expression: 3"),
    ("odd_power_of_a_square_bound_variable",
     lambda: evaluate(parse_expression("y + 1"), {}, Fraction, {"y": Fraction(4)}),
     LookupError, "square-bound variable 'y' used with odd power"),
    ("inverse_in_a_reducible_step", lambda: _reducible(1).inverse(), ZeroDivisionError,
     "zero divisor in formal quadratic extension"),
    ("inverse_in_a_reducible_step_at_height_2", lambda: _reducible(2).inverse(),
     ZeroDivisionError, "zero divisor in formal quadratic extension"),
    ("unknown_generator", lambda: QQ.gen("x"), KeyError, "no generator named 'x' in Q"),
    ("coordinates_of_the_wrong_length", lambda: QQ.element((1, 2)), ValueError,
     "Q has 1 coordinates, not 2"),
    ("element_minus_none", lambda: QQ.one() - None, TypeError, "unsupported operand"),
    ("none_minus_element", lambda: None - QQ.one(), TypeError, "unsupported operand"),
    ("element_times_none", lambda: QQ.one() * None, TypeError, "unsupported operand"),
    ("element_over_none", lambda: QQ.one() / None, TypeError, "unsupported operand"),
    ("none_over_element", lambda: None / QQ.one(), TypeError, "unsupported operand"),
    ("pullback_of_degree_zero", lambda: pullback_half_marks(0, 0), ValueError,
     "cover degree must be >= 1"),
    ("forced_component_of_zero", lambda: forced_component(0, 3), ValueError,
     "arguments must be positive"),
    ("leading_coefficient_of_the_zero_function", ZERO_RF.leading_coefficient,
     ZeroFunctionError, "zero polynomial has no order"),
    ("place_of_ramification_zero", lambda: Place(QQ.zero(), 0), ValueError,
     "ramification index must be >= 1"),
    # from_terms with no terms is the zero series
    ("order_of_a_series_with_no_terms",
     lambda: PuiseuxSeries.from_terms(QQ, ORIGIN, {}, 5).order_at_zero(), ZeroFunctionError,
     "series is zero to precision"),
    ("leading_coefficient_of_the_zero_series", ZERO_SERIES.leading_coefficient,
     ZeroFunctionError, "series is zero to precision"),
    ("inverse_of_the_zero_series", ZERO_SERIES.inverse, PrecisionExhaustedError,
     "inverting a series that is zero to precision"),
    # a root of t at t = r would sit at t = r^2, another place
    ("square_root_of_an_odd_order_series",
     lambda: series_sqrt(t_function(QQ, ORIGIN).to_puiseux(5)), ValueError,
     "a series of odd order 1 has no square root at its place"),
    ("squareness_of_zero", lambda: is_square_local(ZERO_RF), ZeroFunctionError,
     "squareness of the zero function is undefined"),
    # x = 1 is a point of the base x = 1, where the cover factor x - 1 is zero
    ("cover_factor_vanishing_at_a_base_point",
     lambda: lift_along_cover(parse_system("x = 1\nw^2 = x - 1\n"), PointAssignment(
         ORIGIN, {"x": RationalFunction.constant(QQ, ORIGIN, 1)})),
     ZeroFunctionError, "cover factor vanishes at the point"),
    # the blank and comment lines are skipped, and counted
    ("system_line_without_an_equation", lambda: parse_system("# a comment\n\nx = 1\ny\n"),
     ClaimSyntaxError, "line 4, column 1: expected '=' or '!= 0'"),
    ("unknown_mode", lambda: verify_point(parse_system("x = t"), PointAssignment(ORIGIN, {}),
                                          mode="fast"), ValueError, "unknown mode 'fast'"),
    ("case_predicates_not_a_partition", _sweep_over_broken_predicates, AssertionError,
     "case predicates not a partition at {'e': 1, 'vu': '-12/1', 'vx': '-12/1', 'hits': 8}"),
    ("series_binding_in_exact_mode", _series_binding_in_exact_mode, ValueError,
     "exact mode needs exact bindings; 'x' is a series"),
]


@pytest.mark.parametrize("check, error, message", [row[1:] for row in INPUT_CHECKS],
                         ids=[row[0] for row in INPUT_CHECKS])
def test_each_input_check_fires(check, error, message):
    with pytest.raises(error) as raised:
        check()
    assert message in str(raised.value)
