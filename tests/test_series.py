import random
from fractions import Fraction

import pytest

from localpoints.errors import PlaceMismatchError, ZeroFunctionError
from localpoints.field_tower import QQ, adjoin_quadratic, is_square
from localpoints.series import (
    Place,
    PuiseuxSeries,
    RationalFunction,
    is_square_local,
    r_function,
    series_sqrt,
    t_function,
)


ORIGIN = Place.finite(QQ.zero(), 1)


def rf(coeffs, den=None, place=ORIGIN, tower=QQ):
    num = tuple(tower.coerce(c) for c in coeffs)
    d = tuple(tower.coerce(c) for c in den) if den else (tower.one(),)
    return RationalFunction(tower, place, num, d)


def test_rf_division_simplifies_exactly():
    # (1 + r - 2r^2)/(1 - r) = 1 + 2r
    place = Place.finite(QQ.zero(), 3)
    f = rf([1, 1, -2], place=place)
    g = rf([1, -1], place=place)
    assert f / g == rf([1, 2], place=place)


def test_rf_mul_inverse_and_sub_roundtrip():
    rng = random.Random(3)
    place = Place.finite(QQ.zero(), 2)
    for _ in range(50):
        num = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))]
        den = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))] + [Fraction(1)]
        f = rf(num, den, place=place)
        if f.is_zero():
            continue
        assert f * (1 / f) == rf([1], place=place)
        assert (f - f).is_zero()


def test_rf_negation_skips_the_gcd(monkeypatch):
    from localpoints import series

    f = rf([1, 2, 3], [1, -1, 5])
    expected_negation, expected_one_minus = rf([-1, -2, -3], [1, -1, 5]), rf([0, -3, 2], [1, -1, 5])
    calls = []
    pgcd = series._pgcd
    monkeypatch.setattr(series, "_pgcd", lambda *args: calls.append(args) or pgcd(*args))
    negated = -f
    assert len(calls) == 0
    one_minus = 1 - f
    assert len(calls) == 1
    # the same normal forms as through the constructor
    assert (negated.num, negated.den) == (expected_negation.num, expected_negation.den)
    assert (one_minus.num, one_minus.den) == (expected_one_minus.num, expected_one_minus.den)


def test_rf_place_mismatch_rejected():
    f = rf([1], place=Place.finite(QQ.zero(), 2))
    g = rf([1], place=Place.finite(QQ.zero(), 3))
    with pytest.raises(PlaceMismatchError):
        f + g


def test_order_at_zero():
    place = Place.finite(QQ.zero(), 2)
    f = rf([0, 0, 1, 0, 0, 0, -1], place=place)  # r^2 - r^6
    assert f.order_at_zero() == 2
    assert f.valuation() == 1
    assert rf([1], [0, 0, 0, 1]).order_at_zero() == -3
    with pytest.raises(ZeroFunctionError):
        rf([]).order_at_zero()


def test_order_of_golden_cover_factor_is_one():
    # u^2*t^2 - t with t = -alpha + r^2 and u = 1/sqrt(-alpha) + r has order 1,
    # i.e. valuation 1/2 in t + alpha
    base = adjoin_quadratic(QQ, "alpha", -1, -1)
    tower = adjoin_quadratic(base, "beta", 0, base.gen("alpha"))
    alpha = tower.gen("alpha")
    beta = tower.gen("beta")
    place = Place.finite(-alpha, 2)
    t = t_function(tower, place)
    r = r_function(tower, place)
    u = RationalFunction.constant(tower, place, 1 / beta) + r
    g = u * u * t * t - t
    assert g.order_at_zero() == 1
    assert g.valuation() == Fraction(1, 2)


def test_ramify_scales_order():
    f = rf([0, 1])  # t = r at e=1
    assert f.ramify(2) == rf([0, 0, 1], place=Place.finite(QQ.zero(), 2))
    g = rf([1, 2])
    assert g.ramify(3) == rf([1, 0, 0, 2], place=Place.finite(QQ.zero(), 3))
    rng = random.Random(5)
    for _ in range(40):
        num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))]
        f = rf(num + [Fraction(1)], [Fraction(rng.randint(1, 3)), Fraction(1)])
        k = rng.randint(1, 4)
        assert f.ramify(k).order_at_zero() == k * f.order_at_zero()


def test_ramify_is_multiplicative():
    rng = random.Random(9)
    for _ in range(30):
        f = rf([Fraction(rng.randint(-4, 4)) for _ in range(3)] + [Fraction(1)])
        g = rf([Fraction(rng.randint(-4, 4)) for _ in range(2)] + [Fraction(1)])
        assert (f * g).ramify(3) == f.ramify(3) * g.ramify(3)


def test_to_puiseux_geometric_series():
    f = rf([1], [1, -1])  # 1/(1-r)
    s = f.to_puiseux(4)
    assert s.lead == 0
    assert [c.coords[0] for c in s.coeffs] == [1, 1, 1, 1]
    assert s.precision == 4


def test_to_puiseux_exact_polynomial_result():
    f = rf([1, 1, -2], [1, -1])
    s = f.to_puiseux(4)
    assert s.lead == 0
    assert [c.coords[0] for c in s.coeffs] == [1, 2]


def test_to_puiseux_laurent_tail():
    f = rf([1], [0, 1])  # 1/r
    s = f.to_puiseux(3)
    assert s.lead == -1
    assert len(s.coeffs) == 1


def test_series_mul_of_half_powers():
    place = Place.finite(QQ.zero(), 2)
    root_t = PuiseuxSeries.from_terms(QQ, place, {1: 1})  # r = t^(1/2)
    product = root_t * root_t
    assert product.lead == 2
    assert product.valuation() == 1


def test_series_div_and_cancellation():
    one = PuiseuxSeries.constant(QQ, ORIGIN, 1, 10)
    denom = PuiseuxSeries.from_terms(QQ, ORIGIN, {0: 1, 1: -1}, 10)
    geo = one / denom
    assert [c.coords[0] for c in geo.coeffs] == [1] * 10
    f = PuiseuxSeries.from_terms(QQ, ORIGIN, {0: 2, 3: -5}, 12)
    assert (f + (-f)).is_zero()
    assert (f - f).precision == 12


def test_backend_agreement_randomized():
    rng = random.Random(17)
    place = Place.finite(QQ.zero(), 1)
    for _ in range(200):
        fnum = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        fden = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 3))] + [Fraction(1)]
        gnum = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        gden = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 3))] + [Fraction(1)]
        f = rf(fnum, fden, place=place)
        g = rf(gnum, gden, place=place)
        fs, gs = f.to_puiseux(20), g.to_puiseux(20)
        assert (f + g).to_puiseux(20).matches(fs + gs)
        assert (f - g).to_puiseux(20).matches(fs - gs)
        assert (f * g).to_puiseux(20).matches(fs * gs)
        if not g.is_zero():
            assert (f / g).to_puiseux(20).matches(fs / gs)


def test_valuation_additivity_randomized():
    rng = random.Random(23)
    for _ in range(100):
        f = rf(
            [0] * rng.randint(0, 3) + [Fraction(rng.randint(1, 4))],
            [Fraction(1)] if rng.random() < 0.5 else [0, 0, Fraction(1)],
        )
        g = rf([0] * rng.randint(0, 2) + [Fraction(rng.randint(1, 4)), Fraction(2)])
        assert (f * g).order_at_zero() == f.order_at_zero() + g.order_at_zero()


def test_sqrt_of_one_plus_two_r():
    f = PuiseuxSeries.from_terms(QQ, ORIGIN, {0: 1, 1: 2}, 12)
    root, tower = series_sqrt(f)
    assert tower == QQ
    assert root.coefficient(0) == QQ.one()
    assert root.coefficient(1) == QQ.one()
    assert root.coefficient(2) == QQ.rational(Fraction(-1, 2))
    assert root.coefficient(3) == QQ.rational(Fraction(1, 2))
    assert (root * root).matches(f)


def test_sqrt_of_even_monomial():
    f = PuiseuxSeries.from_terms(QQ, ORIGIN, {2: 1}, 10)
    root, tower = series_sqrt(f)
    assert tower == QQ
    assert root.lead == 1
    assert (root * root).matches(f)


def test_sqrt_of_minus_t_extends_tower_and_ramifies():
    minus_t = PuiseuxSeries.from_terms(QQ, ORIGIN, {1: -1}, 20)
    root, tower = series_sqrt(minus_t)
    assert tower.height == 1
    imaginary = tower.gen(tower.generator_names[0])
    assert imaginary * imaginary == tower.rational(-1)
    assert root.place.e == 2
    assert root.lead == 1
    assert root.leading_coefficient() == imaginary
    # i*r squared is exactly -r^2 = -t
    assert (root * root).matches(minus_t.ramify(2)._lift(tower))


def test_sqrt_roundtrip_randomized():
    rng = random.Random(31)
    for _ in range(100):
        lead = 2 * rng.randint(-3, 3)
        terms = {lead: Fraction(rng.randint(1, 5)) ** 2}
        for offset in range(1, rng.randint(2, 6)):
            terms[lead + offset] = Fraction(rng.randint(-5, 5))
        f = PuiseuxSeries.from_terms(QQ, ORIGIN, terms, lead + 15)
        root, _ = series_sqrt(f)
        assert (root * root).matches(f)


def test_is_square_local_parity():
    place = Place.finite(QQ.zero(), 2)
    t = t_function(QQ, place)  # r^2
    assert is_square_local(t).kind == "yes"
    t_unramified = t_function(QQ, ORIGIN)
    assert is_square_local(t_unramified).kind == "no"
    assert is_square_local(t_unramified).order == 1


def test_is_square_local_exact_mode():
    minus_one = rf([-1])
    check = is_square_local(minus_one, mode="exact")
    assert check.kind == "no"
    four = rf([4])
    assert is_square_local(four, mode="exact").kind == "yes"
    base = adjoin_quadratic(QQ, "alpha", -1, -1)
    tower = adjoin_quadratic(base, "beta", 0, base.gen("alpha"))
    two = RationalFunction.constant(tower, Place.finite(tower.zero(), 1), 2)
    assert is_square_local(two, mode="exact").kind == "undecided"
    assert is_square(tower, tower.rational(2)).kind == "undecided"


def test_squareness_dichotomy_over_c():
    rng = random.Random(37)
    r = r_function(QQ, ORIGIN)
    for _ in range(100):
        f = rf(
            [0] * rng.randint(0, 3) + [Fraction(rng.randint(1, 5))],
            [Fraction(rng.randint(1, 3))] + [0] * rng.randint(0, 2) + [Fraction(1)],
        )
        plain = is_square_local(f).kind == "yes"
        shifted = is_square_local(r * f).kind == "yes"
        assert plain != shifted


def test_golden_cover_factor_not_square_over_c():
    base = adjoin_quadratic(QQ, "alpha", -1, -1)
    tower = adjoin_quadratic(base, "beta", 0, base.gen("alpha"))
    alpha = tower.gen("alpha")
    beta = tower.gen("beta")
    for n in (1, 2):
        place = Place.finite(-alpha, 2 * n)
        t = t_function(tower, place)
        r = r_function(tower, place)
        u = 1 / beta + r
        g = u * u * t * t - t
        check = is_square_local(g)
        assert check.kind == "no"
        assert check.order == 1
