import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localpoints.errors import NotAPrefixError, PlaceMismatchError, ZeroFunctionError
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

# the golden tower Q(alpha, beta): alpha^2 - alpha - 1 = 0 and beta^2 = -alpha
_GOLDEN_BASE = adjoin_quadratic(QQ, "alpha", -1, -1)
GOLDEN_TOWER = adjoin_quadratic(_GOLDEN_BASE, "beta", 0, _GOLDEN_BASE.gen("alpha"))

GENERATED_CLAIMS = Path(__file__).resolve().parent / "data" / "generated_points_seed1.txt"

# (_pgcd calls, _pdivmod calls, certificate calls, certificate hits) of the
# exact run of the height-2 claim gen_0006_h2 ((2, 8, 4, 2) while a failed
# certificate always ran _pgcd and then divided both operands by the gcd;
# both failures are pairs where one operand divides the other, so now each
# takes one division)
GEN_0006_H2_WORK = (0, 2, 4, 2)

# (_pgcd calls, _pdivmod calls) of each golden_nonlift_n* run ((2, 13) to
# (2, 20) while solve_square gcd-reduced lhs/g, whose order and expansion are
# all it reads)
GOLDEN_NONLIFT_WORK = (0, 0)

# height-1 field_tower._mul calls of one golden_nonlift_n1 run (12,418 while
# every product above height 1 took three sub-products, 3,632 while
# is_square_local divided for a leading coefficient it did not read, 3,602
# while series_sqrt took Newton steps, 2,274 while a cross-cancel whose
# operands divide one another ran _pgcd and two more divisions, 2,228 while
# solve_square gcd-reduced lhs/g, 1,957 while solve_square took a root the
# claim never read, 87 while solve_square multiplied lhs/g out as a pair, 71
# while a product by a monomial c*r^k ran the full convolution)
GOLDEN_NONLIFT_N1_H1_MULS = 64

# (_convolve calls, calls with a monomial operand c*r^k) of one pass over the
# claims of GENERATED_CLAIMS, per mode ((183, 175) exact and (266, 234)
# truncated while a product by a monomial ran the full convolution)
GENERATED_CONVOLUTIONS = {"exact": (8, 0), "truncated": (32, 0)}

# (series_sqrt calls, _series_quotient calls) of one run of each builtin that
# decides a local square (2 of each per golden_nonlift_n* while solve_square
# expanded each quotient and took its root; the claim reads only the quotient's
# order).  Only a lift claim takes a root: the one it prints and checks, from
# the expansions of the cover factor and of the square bound to w.
SERIES_ROOTS = {
    **{f"golden_nonlift_n{n}": (0, 0) for n in range(1, 6)},
    "k3_cover_two_forms_obstructed": (0, 0),
    "k3_lift_sqrt_t": (1, 2),
    "k3_lift_infinity": (1, 2),
}


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
    # a coprimality proof is the modular certificate, then a division and _pgcd if it fails
    calls, gcds = [], []
    certificate, pgcd = series._coprime_mod_p, series._pgcd
    monkeypatch.setattr(series, "_coprime_mod_p", lambda *args: calls.append(args) or certificate(*args))
    monkeypatch.setattr(series, "_pgcd", lambda *args: gcds.append(args) or pgcd(*args))
    negated = -f
    assert (len(calls), len(gcds)) == (0, 0)
    one_minus = 1 - f
    assert (len(calls), len(gcds)) == (1, 0)
    # the same normal forms as through the constructor
    assert (negated.num, negated.den) == (expected_negation.num, expected_negation.den)
    assert (one_minus.num, one_minus.den) == (expected_one_minus.num, expected_one_minus.den)


def test_rf_product_and_quotient_prove_coprimality_in_the_cross_cancels_only(monkeypatch):
    from localpoints import series

    f, g = rf([1, 2, 3], [1, -1, 5]), rf([2, -1, 4], [3, 1, 1])
    expected_product = rf([2, 3, 8, 5, 12], [3, -2, 15, 4, 5])
    expected_quotient = rf([3, 7, 12, 5, 3], [2, -3, 15, -9, 20])
    proofs, gcds = [], []
    certificate, pgcd = series._coprime_mod_p, series._pgcd
    monkeypatch.setattr(series, "_coprime_mod_p", lambda *a: proofs.append(a) or certificate(*a))
    monkeypatch.setattr(series, "_pgcd", lambda *a: gcds.append(a) or pgcd(*a))
    product = f * g
    assert (len(proofs), len(gcds)) == (2, 0)
    quotient = f / g
    # one proof per cross-cancel, both settled by the modular certificate, and
    # none on the result
    assert (len(proofs), len(gcds)) == (4, 0)
    assert (product.num, product.den) == (expected_product.num, expected_product.den)
    assert (quotient.num, quotient.den) == (expected_quotient.num, expected_quotient.den)


def test_one_height_two_claim_runs_a_pinned_number_of_gcds(monkeypatch):
    from localpoints import builtin_registry, load_claim_file, run_claim, series

    registry = load_claim_file(str(GENERATED_CLAIMS), builtin_registry())
    gcds, divisions, certified = [], [], []
    pgcd, pdivmod, certificate = series._pgcd, series._pdivmod, series._coprime_mod_p
    monkeypatch.setattr(series, "_pgcd", lambda *a: gcds.append(a) or pgcd(*a))
    monkeypatch.setattr(series, "_pdivmod", lambda *a: divisions.append(a) or pdivmod(*a))
    monkeypatch.setattr(
        series, "_coprime_mod_p", lambda *a: certified.append(certificate(*a)) or certified[-1]
    )
    report = run_claim("gen_0006_h2", registry)
    assert report.verdict == "pass"
    assert {a[2].tower.height for a in divisions} == {2}
    work = (len(gcds), len(divisions), len(certified), certified.count(True))
    assert work == GEN_0006_H2_WORK


@pytest.mark.parametrize("n", range(1, 6))
def test_golden_claims_run_a_pinned_number_of_gcds(monkeypatch, n):
    from localpoints import builtin_registry, run_claim, series

    registry = builtin_registry()
    gcds, divisions = [], []
    pgcd, pdivmod = series._pgcd, series._pdivmod
    monkeypatch.setattr(series, "_pgcd", lambda *a: gcds.append(a) or pgcd(*a))
    monkeypatch.setattr(series, "_pdivmod", lambda *a: divisions.append(a) or pdivmod(*a))
    assert run_claim(f"golden_nonlift_n{n}", registry).verdict == "pass"
    assert (len(gcds), len(divisions)) == GOLDEN_NONLIFT_WORK


@pytest.mark.parametrize("name", SERIES_ROOTS,
                         ids=lambda name: name.removeprefix("golden_nonlift_n"))
def test_golden_claims_take_a_pinned_number_of_series_roots(monkeypatch, name):
    from localpoints import builtin_registry, claims, run_claim, series

    registry = builtin_registry()
    roots, quotients = [], []
    sqrt, quotient = series.series_sqrt, series._series_quotient
    # claims imports series_sqrt by name, so both modules' bindings are counted
    for module in (series, claims):
        monkeypatch.setattr(module, "series_sqrt", lambda *a: roots.append(a) or sqrt(*a))
    monkeypatch.setattr(series, "_series_quotient",
                        lambda *a: quotients.append(a) or quotient(*a))
    assert run_claim(name, registry).verdict == "pass"
    assert (len(roots), len(quotients)) == SERIES_ROOTS[name]


def test_one_golden_claim_runs_a_pinned_number_of_height_one_products(monkeypatch):
    from localpoints import builtin_registry, field_tower, run_claim

    registry = builtin_registry()
    heights = []
    mul = field_tower._mul
    monkeypatch.setattr(field_tower, "_mul",
                        lambda a, b, levels, k: heights.append(k) or mul(a, b, levels, k))
    assert run_claim("golden_nonlift_n1", registry).verdict == "pass"
    assert heights.count(1) == GOLDEN_NONLIFT_N1_H1_MULS


@pytest.mark.parametrize("mode", GENERATED_CONVOLUTIONS)
def test_generated_claims_run_a_pinned_number_of_convolutions(monkeypatch, mode):
    from localpoints import load_claim_file, run_all, series

    registry = load_claim_file(str(GENERATED_CLAIMS), {})
    monomial_operands = []
    convolve = series._convolve

    def monomial(p):
        return bool(p) and bool(p[-1]) and not any(p[:-1])

    def counted(p, q, size, tower):
        monomial_operands.append(monomial(p) or monomial(q))
        return convolve(p, q, size, tower)

    monkeypatch.setattr(series, "_convolve", counted)
    reports, _ = run_all(registry, mode=mode, precision=40)
    assert [report.verdict for report in reports] == ["pass"] * 10
    work = (len(monomial_operands), sum(monomial_operands))
    assert work == GENERATED_CONVOLUTIONS[mode]


def test_rf_zero_denominator_is_rejected_after_trimming():
    one, zero = QQ.one(), QQ.zero()
    for num in ((one,), (zero,)):
        with pytest.raises(ZeroDivisionError, match="rational function with zero denominator"):
            RationalFunction(QQ, ORIGIN, num, (zero,))


def test_rf_equality_compares_normal_forms():
    f = rf([1, 2, 3], [1, -1, 5])
    assert f == rf([2, 4, 6], [2, -2, 10])
    assert f == rf([1, 3, 5, 3], [1, 0, 4, 5])  # times (1 + r)/(1 + r)
    assert f != rf([1, 2, 3], [1, -1, 4])
    assert rf([6], [2]) == 3 and 3 == rf([6], [2]) and rf([6], [2]) != 2
    tower = adjoin_quadratic(QQ, "i", 0, 1)
    i = tower.gen("i")
    assert RationalFunction.constant(tower, ORIGIN, i * i) == -1
    assert RationalFunction.constant(tower, ORIGIN, 2) == rf([2])
    assert f.__eq__("f") is NotImplemented
    assert f != rf([1, 2, 3], [1, -1, 5], place=Place.finite(QQ.zero(), 2))
    other = adjoin_quadratic(QQ, "s", 0, -2)
    # constants with rational values compare by value over any towers; other
    # values over towers where neither is a prefix of the other are refused
    one, other_one = (RationalFunction.constant(k, ORIGIN, 1) for k in (tower, other))
    assert one == other_one and not one != other_one
    with pytest.raises(NotAPrefixError):
        RationalFunction.constant(tower, ORIGIN, i) != other_one


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


def _towers():
    """Q, Q(i) and Q(i, j) with j^2 = i + 2: tower heights 0, 1 and 2."""
    with_i = adjoin_quadratic(QQ, "i", 0, 1)
    return [QQ, with_i, adjoin_quadratic(with_i, "j", 0, -(with_i.gen("i") + 2))]


def _random_poly(rng, tower, degree):
    """A polynomial of the given degree with small coefficients, some of them 0."""
    def element():
        return tower.element(tuple(
            Fraction(rng.choice([0, 0, 1, -1, 2, -3]), rng.randint(1, 3)) for _ in range(tower.dim)
        ))

    lead = tower.zero()
    while lead.is_zero():
        lead = element()
    return tuple(element() for _ in range(degree)) + (lead,)


def _random_pair(rng, tower, planted):
    """An unreduced numerator and denominator, with a common factor when planted."""
    from localpoints.series import _pmul

    num = _random_poly(rng, tower, rng.randint(0, 3))
    den = _random_poly(rng, tower, rng.randint(0, 3))
    if planted:
        factor = _random_poly(rng, tower, rng.randint(1, 2))
        num, den = _pmul(num, factor, tower.zero()), _pmul(den, factor, tower.zero())
    return num, den


def test_rf_results_are_in_normal_form_and_match_the_constructor():
    from localpoints.field_tower import embed
    from localpoints.series import _pembed, _pgcd, _pmul, _pneg, _psum

    rng = random.Random(41)
    towers = _towers()
    top = towers[-1]
    for n in range(60):
        tower = towers[n % 3]
        zero, one = tower.zero(), tower.one()
        place = Place.finite(zero, rng.randint(1, 3))
        f_num, f_den = _random_pair(rng, tower, planted=n % 2 == 0)
        g_num, g_den = _random_pair(rng, tower, planted=n % 4 < 2)
        f = RationalFunction(tower, place, f_num, f_den)
        g = RationalFunction(tower, place, g_num, g_den)

        def mul(p, q):
            return _pmul(p, q, zero)

        def power(p, k):
            out = (one,)
            for _ in range(k):
                out = mul(out, p)
            return out

        k = rng.randint(1, 3)
        cases = [
            (f * g, place, mul(f_num, g_num), mul(f_den, g_den)),
            (f / g, place, mul(f_num, g_den), mul(f_den, g_num)),
            (f + g, place, _psum(mul(f_num, g_den), mul(g_num, f_den), 1), mul(f_den, g_den)),
            (f - g, place, _psum(mul(f_num, g_den), mul(g_num, f_den), -1), mul(f_den, g_den)),
            (-f, place, _pneg(f_num), f_den),
            (f ** k, place, power(f_num, k), power(f_den, k)),
            (f ** -k, place, power(f_den, k), power(f_num, k)),
            (f - f, place, (), (one,)),
        ]
        # embedding into the taller tower, directly and through a mixed product
        lifted = Place.finite(top.zero(), place.e)
        scalar = embed(g.den[0], top)
        cases.append((f._lift(top), lifted, _pembed(f_num, top), _pembed(f_den, top)))
        cases.append((f * RationalFunction.constant(top, lifted, scalar), lifted,
                      _pmul(_pembed(f_num, top), (scalar,), top.zero()), _pembed(f_den, top)))
        for result, result_place, raw_num, raw_den in cases:
            result_zero = result.tower.zero()
            assert result.den[-1] == result.tower.one()
            if result.num:
                assert len(_pgcd(result.num, result.den, result_zero)) == 1
            else:
                assert result.den == (result.tower.one(),)
            expected = RationalFunction(result.tower, result_place, raw_num, raw_den)
            assert (result.num, result.den) == (expected.num, expected.den)
            assert result.place == expected.place


def test_coprimality_certificate_never_certifies_a_common_factor():
    from localpoints.series import _coprime_mod_p, _pgcd, _pmul

    rng = random.Random(43)
    towers = _towers()
    coprime = certified = 0
    for n in range(500):
        tower = towers[n % 3]
        num, den = (_random_poly(rng, tower, rng.randint(1, 3)) for _ in range(2))
        if n % 2 == 0:
            factor = _random_poly(rng, tower, rng.randint(1, 2))
            num, den = _pmul(num, factor, tower.zero()), _pmul(den, factor, tower.zero())
        gcd_is_one = len(_pgcd(num, den, tower.zero())) == 1
        says_coprime = _coprime_mod_p(num, den, tower.zero())
        assert gcd_is_one or not says_coprime
        coprime += gcd_is_one
        certified += says_coprime
    # and it settles nearly every coprime pair without Euclid's algorithm
    assert coprime > 200 and certified >= 0.95 * coprime


def test_operands_that_divide_one_another_cancel_in_one_division(monkeypatch):
    from localpoints import series

    pgcd, pdivmod, pmul = series._pgcd, series._pdivmod, series._pmul
    certificate = series._coprime_mod_p
    gcds, divisions, certificates = [], [], []
    monkeypatch.setattr(series, "_pgcd", lambda *a: gcds.append(a) or pgcd(*a))
    monkeypatch.setattr(series, "_pdivmod", lambda *a: divisions.append(a) or pdivmod(*a))
    monkeypatch.setattr(series, "_coprime_mod_p",
                        lambda *a: certificates.append(a) or certificate(*a))

    def with_two_terms(rng, tower, degree):
        # a monomial operand takes the power-of-r shortcut, not a division
        while True:
            p = _random_poly(rng, tower, degree)
            if sum(1 for a in p if a) > 1:
                return p

    def reference(tower, place, num, den):
        # the normal form through the monic gcd and a division of each operand by it
        g = pgcd(num, den, tower.zero())
        return RationalFunction._coprime(tower, place, pdivmod(num, g, tower.zero())[0],
                                         pdivmod(den, g, tower.zero())[0])

    def work(make):
        gcds.clear()
        divisions.clear()
        certificates.clear()
        made = make()
        return made, (len(gcds), len(divisions))

    rng = random.Random(28)
    towers = _towers()
    for n in range(36):
        tower = towers[n % 3]
        zero = tower.zero()
        place = Place.finite(zero, 1)
        shorter = with_two_terms(rng, tower, rng.randint(1, 3))
        # a constant cofactor gives operands of equal length, num = c*den
        longer = pmul(shorter, _random_poly(rng, tower, n // 3 % 3), zero)
        for num, den in ((shorter, longer), (longer, shorter)):
            expected = reference(tower, place, num, den)
            # num/1 times 1/den, and num/1 over den/1: one cross-cancel each
            top, bottom = (RationalFunction.from_coeffs(tower, place, list(p)) for p in (num, den))
            inverse = bottom ** -1
            # num = c*den cancels to c/1 with no certificate and no division
            proportional = len(num) == len(den)
            for make in (lambda: RationalFunction(tower, place, num, den),
                         lambda: top * inverse, lambda: top / bottom):
                made, counts = work(make)
                assert counts == ((0, 0) if proportional else (0, 1))
                assert len(certificates) == (0 if proportional else 1)
                assert (made.num, made.den) == (expected.num, expected.den)

    # a proper common factor still goes on to Euclid's algorithm
    for tower in towers:
        zero = tower.zero()
        place = Place.finite(zero, 1)
        factor = with_two_terms(rng, tower, 2)
        num = pmul(factor, tuple(map(tower.coerce, (1, 1))), zero)
        den = pmul(factor, tuple(map(tower.coerce, (2, 1))), zero)
        made, counts = work(lambda: RationalFunction(tower, place, num, den))
        assert counts[0] == 1
        expected = reference(tower, place, num, den)
        assert (made.num, made.den) == (expected.num, expected.den)


def test_coprimality_certificate_falls_back_when_the_reduction_fails():
    from localpoints.field_tower import FieldTower, TowerStep, _residue_map
    from localpoints.series import _coprime_mod_p, _cross_cancel

    prime = _residue_map(QQ)[0]

    def p(*coeffs):
        return tuple(QQ.coerce(c) for c in coeffs)

    # coprime, but a coefficient is not p-integral, or a leading one vanishes mod p
    assert not _coprime_mod_p(p(1, Fraction(1, prime)), p(2, 1), QQ.zero())
    assert not _coprime_mod_p(p(1, prime), p(2, 1), QQ.zero())
    assert _coprime_mod_p(p(1, prime + 1), p(2, 1), QQ.zero())
    # x^2 = 0 has no root with a nonzero discriminant mod any prime: no residue map
    degenerate = FieldTower((TowerStep("z", (Fraction(0),), (Fraction(0),)),))
    assert _residue_map(degenerate) is None
    one, two = degenerate.one(), degenerate.rational(2)
    assert not _coprime_mod_p((one, one), (two, one), degenerate.zero())
    assert _cross_cancel((one, one), (two, one), degenerate.zero()) == ((one, one), (two, one))


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


def test_a_power_of_a_negative_lead_series_knows_what_its_product_knows():
    # a power starts from its base, not from the constant one, which would know
    # only 10 - 4 = 6 terms of x^2 = one * (x * x)
    x = PuiseuxSeries.from_terms(QQ, ORIGIN, {-2: 1, 0: 3}, 10)
    assert (x ** 2).precision == (x * x).precision == 8
    assert (x ** 2).matches(x * x)
    assert not (x ** 2).matches(x * x + PuiseuxSeries.from_terms(QQ, ORIGIN, {7: 1}, 10))
    assert (x ** 0).precision == 10


def test_only_a_zeroth_power_builds_the_constant_one(monkeypatch):
    f = 1 + r_function(QQ, ORIGIN)
    built = []
    constant = RationalFunction._constant
    monkeypatch.setattr(RationalFunction, "_constant",
                        lambda self, value: built.append(value) or constant(self, value))
    powers = [f ** k for k in (1, 2, 5, 8)]
    assert built == []
    one = f ** 0
    assert built == [1]
    monkeypatch.undo()
    assert one == 1
    assert powers == [f, f * f, f * f * f * f * f, (f * f) * (f * f) * (f * f) * (f * f)]


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
    root = series_sqrt(f)
    assert root.tower == QQ
    assert root.coefficient(0) == QQ.one()
    assert root.coefficient(1) == QQ.one()
    assert root.coefficient(2) == QQ.rational(Fraction(-1, 2))
    assert root.coefficient(3) == QQ.rational(Fraction(1, 2))
    assert (root * root).matches(f)


def test_sqrt_of_even_monomial():
    f = PuiseuxSeries.from_terms(QQ, ORIGIN, {2: 1}, 10)
    root = series_sqrt(f)
    assert root.tower == QQ
    assert root.lead == 1
    assert (root * root).matches(f)


def test_sqrt_of_minus_t_extends_tower_and_ramifies():
    # at the ramified place t = r^2, -t is -r^2: its root i*r adjoins i and stays there
    place = Place.finite(QQ.zero(), 2)
    minus_t = -t_function(QQ, place).to_puiseux(20)
    root = series_sqrt(minus_t)
    tower = root.tower
    assert tower.height == 1
    imaginary = tower.gen(tower.generator_names[0])
    assert imaginary * imaginary == tower.rational(-1)
    assert root.place == place
    assert root.lead == 1
    assert root.leading_coefficient() == imaginary
    assert (root * root).matches(minus_t._lift(tower))


def test_sqrt_of_minus_alpha_stays_in_the_golden_tower():
    base = adjoin_quadratic(QQ, "alpha", -1, -1)
    tower = adjoin_quadratic(base, "beta", 0, base.gen("alpha"))
    place = Place.finite(tower.zero(), 1)
    minus_alpha = PuiseuxSeries.constant(tower, place, -tower.gen("alpha"), 10)
    root = series_sqrt(minus_alpha)
    assert root.tower == tower
    assert root.lead == 0
    assert root.leading_coefficient() == tower.gen("beta")
    assert (root * root).matches(minus_alpha)


def test_sqrt_roundtrip_randomized():
    rng = random.Random(31)
    for height, tower in enumerate(_towers()):
        place = Place.finite(tower.zero(), 1)

        def coefficient(low):
            return tower.element([Fraction(rng.randint(low, 5)) for _ in range(tower.dim)])

        for _ in range(100 if height == 0 else 25):
            # an even lead; over Q a square leading coefficient, above it one whose root
            # the result may have to adjoin
            lead = 2 * rng.randint(-3, 3)
            terms = {lead: Fraction(rng.randint(1, 5)) ** 2 if height == 0 else coefficient(1)}
            for offset in range(1, rng.randint(2, 6)):
                terms[lead + offset] = coefficient(-5)
            f = PuiseuxSeries.from_terms(tower, place, terms, lead + 15)
            root = series_sqrt(f)
            assert (root.place, root.lead, root.precision) == (place, lead // 2,
                                                               f.precision - lead // 2)
            assert (root * root).matches(f._lift(root.tower))


def test_a_square_root_takes_one_dot_per_known_term_past_the_first(monkeypatch):
    from localpoints import series

    calls = []
    dot = series._dot
    monkeypatch.setattr(series, "_dot", lambda *args: calls.append(args) or dot(*args))
    for tower in _towers():
        place = Place.finite(tower.zero(), 1)
        for lead, precision in ((0, 1), (0, 2), (2, 9), (-4, 16)):
            f = PuiseuxSeries.from_terms(tower, place, {lead: 2, lead + 1: -1}, precision)
            calls.clear()
            series_sqrt(f)
            assert len(calls) == precision - lead - 1


@pytest.mark.parametrize("height", [0, 2])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_series_has_a_root_at_its_place_exactly_when_it_is_a_local_square(height, data):
    tower = QQ if height == 0 else GOLDEN_TOWER
    lead = data.draw(st.integers(-6, 6))
    coords = _sparse(data, tower.dim, st.integers(1, 6), forced=0)
    precision = lead + len(coords) + data.draw(st.integers(0, 4))
    place = Place.finite(tower.zero(), data.draw(st.integers(1, 3)))
    f = PuiseuxSeries(tower, place, lead, _elements(tower, coords), precision)
    if is_square_local(f).kind == "no":
        with pytest.raises(ValueError, match=f"odd order {lead} has no square root"):
            series_sqrt(f)
        return
    root = series_sqrt(f)
    assert root.place == f.place
    assert (root * root).matches(f._lift(root.tower))


def test_is_square_local_parity():
    place = Place.finite(QQ.zero(), 2)
    t = t_function(QQ, place)  # r^2
    assert is_square_local(t).kind == "yes"
    t_unramified = t_function(QQ, ORIGIN)
    assert is_square_local(t_unramified).kind == "no"
    assert is_square_local(t_unramified).order == 1


def test_is_square_local_exact_mode():
    # squareness in the coefficient tower itself: an even order, and a leading
    # coefficient that is_square finds to be a square there
    def exact(f):
        even = is_square_local(f).kind == "yes"
        return "yes" if even and is_square(f.tower, f.leading_coefficient()).kind == "yes" else "no"

    minus_one = rf([-1])
    assert is_square_local(minus_one).kind == "yes"
    assert exact(minus_one) == "no"
    four = rf([4])
    assert exact(four) == "yes"
    base = adjoin_quadratic(QQ, "alpha", -1, -1)
    tower = adjoin_quadratic(base, "beta", 0, base.gen("alpha"))
    two = RationalFunction.constant(tower, Place.finite(tower.zero(), 1), 2)
    assert exact(two) == "no"
    assert is_square(tower, tower.rational(2)).kind == "no"


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


# -- one multiply-accumulate per coefficient, against the per-term loops ---------


def _pmul_oracle(p, q, zero):
    if not p or not q:
        return ()
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def _series_mul_oracle(a, b):
    precision = min(a.precision + b.lead, b.precision + a.lead)
    lead = a.lead + b.lead
    size = precision - lead
    out = [a.tower.zero()] * size
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            if i + j < size:
                out[i + j] = out[i + j] + ca * cb
    return PuiseuxSeries(a.tower, a.place, lead, tuple(out), precision)


def _series_quotient_oracle(num, den, nterms, zero):
    inv0 = den[0].inverse()
    out = []
    for k in range(nterms):
        acc = num[k] if k < len(num) else zero
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[j] * out[k - j]
        out.append(acc * inv0)
    return tuple(out)


def _raw(coeffs):
    return [(c.nums, c.den) for c in coeffs]


def _kernel_cases():
    """(tower, longest length): heights 0-2, the tallest with shorter inputs."""
    return list(zip(_towers(), (80, 80, 30)))


def test_pmul_matches_the_per_term_loop():
    from localpoints.series import _pmul

    rng = random.Random(808)
    for tower, longest in _kernel_cases():
        zero = tower.zero()
        for length in (1, 2, 5, longest // 2, longest):
            p = _random_poly(rng, tower, length - 1)
            q = _random_poly(rng, tower, rng.randint(0, longest - 1))
            assert _raw(_pmul(p, q, zero)) == _raw(_pmul_oracle(p, q, zero))
            assert _pmul(p, (), zero) == ()


def test_series_product_truncates_at_its_size_like_the_per_term_loop():
    rng = random.Random(909)
    for tower, longest in _kernel_cases():
        place = Place.finite(tower.zero(), 1)
        for precision in (3, longest // 2, longest):
            for _ in range(2):
                a = PuiseuxSeries(tower, place, rng.randint(-3, 3),
                                  _random_poly(rng, tower, rng.randint(0, precision)), precision)
                b = PuiseuxSeries(tower, place, rng.randint(-3, 3),
                                  _random_poly(rng, tower, rng.randint(0, precision)),
                                  precision + rng.randint(0, 5))
                got, expected = a * b, _series_mul_oracle(a, b)
                assert (got.lead, got.precision) == (expected.lead, expected.precision)
                assert _raw(got.coeffs) == _raw(expected.coeffs)


def test_series_quotient_matches_the_per_term_recurrence():
    from localpoints.series import _series_quotient

    rng = random.Random(707)
    for tower, longest in _kernel_cases():
        zero = tower.zero()
        for nterms in (1, 2, longest // 2, longest):
            num = _random_poly(rng, tower, rng.randint(0, nterms + 2))
            den = _random_poly(rng, tower, rng.randint(0, 6))[::-1]  # den[0] != 0
            if rng.random() < 0.5:
                den = den + _random_poly(rng, tower, nterms)
            got = _series_quotient(num, den, nterms, zero)
            assert len(got) == nterms
            assert _raw(got) == _raw(_series_quotient_oracle(num, den, nterms, zero))


def test_constants_and_coordinates_skip_the_constructor_with_the_same_result():
    from localpoints.series import _trim

    for tower in _towers():
        zero, one = tower.zero(), tower.one()
        top = tower.gen(tower.generator_names[-1]) if tower.height else tower.rational(3)
        quarter = tower.rational(Fraction(-3, 4))
        for place in (Place.finite(zero, 2), Place.finite(top + 1, 3), Place.at_infinity(2)):
            monomial = (zero,) * place.e + (one,)
            if place.is_infinity:
                t_parts = ((one,), monomial)
            else:
                t_parts = ((place.center,) + monomial[1:], (one,))
            cases = [
                (RationalFunction.constant(tower, place, 0), (zero,), (one,)),
                (RationalFunction.constant(tower, place, Fraction(-3, 4)), (quarter,), (one,)),
                (RationalFunction.constant(tower, place, top), (top,), (one,)),
                (RationalFunction.constant(tower, place, 0), (), (one,)),
                (RationalFunction.from_coeffs(tower, place, [1, 0, top, 0, 0]),
                 (one, zero, top, zero, zero), (one,)),
                (RationalFunction.from_coeffs(tower, place, [0, 0]), (zero, zero), (one,)),
                (r_function(tower, place), (zero, one), (one,)),
                (t_function(tower, place), *t_parts),
            ]
            for made, num, den in cases:
                expected = RationalFunction(tower, place, num, den)
                assert type(made.num) is tuple and type(made.den) is tuple
                assert made.num == _trim(list(made.num))
                assert (_raw(made.num), _raw(made.den)) == (_raw(expected.num), _raw(expected.den))


# -- sparse kernels against a Fraction-coordinate schoolbook reference --------------


def _constant_towers():
    """Heights 0-2 whose step constants have denominators: a^2 = a/2 + 5/3 and
    b^2 = -(a/3)*b + (2a + 1)/5."""
    with_a = adjoin_quadratic(QQ, "a", Fraction(-1, 2), Fraction(-5, 3))
    a = with_a.gen("a")
    return [QQ, with_a, adjoin_quadratic(with_a, "b", a / 3, -(2 * a + 1) / 5)]


CONSTANT_TOWERS = _constant_towers()


def _ref_mul(steps, x, y):
    """x * y on Fraction coordinates, reducing theta^2 = -b*theta - c step by step."""
    if not steps:
        return (x[0] * y[0],)
    below, step = steps[:-1], steps[-1]
    half = len(x) // 2
    x0, x1, y0, y1 = x[:half], x[half:], y[:half], y[half:]
    hh = _ref_mul(below, x1, y1)
    lo = _ref_combine(_ref_mul(below, x0, y0), _ref_mul(below, step.c, hh), -1)
    hi = _ref_combine(_ref_combine(_ref_mul(below, x0, y1), _ref_mul(below, x1, y0), 1),
                      _ref_mul(below, step.b, hh), -1)
    return lo + hi


def _ref_combine(x, y, sign):
    return tuple(u + sign * v for u, v in zip(x, y))


def _ref_trim(p):
    while p and not any(p[-1]):
        p.pop()
    return p


def _ref_products(steps, p, q, size):
    out = [(Fraction(0),) * (1 << len(steps))] * size
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            if i + j < size:
                out[i + j] = _ref_combine(out[i + j], _ref_mul(steps, x, y), 1)
    return out


def _ref_sum(p, q, sign, zero):
    size = max(len(p), len(q))
    p, q = p + [zero] * (size - len(p)), q + [zero] * (size - len(q))
    return _ref_trim([_ref_combine(x, y, sign) for x, y in zip(p, q)])


def _ref_divmod(tower, p, q):
    steps = tower.steps
    inv_lead = tower.element(q[-1]).inverse().coords
    rem = list(p)
    quot = [(Fraction(0),) * tower.dim] * max(0, len(p) - len(q) + 1)
    for shift in range(len(p) - len(q), -1, -1):
        factor = _ref_mul(steps, rem[shift + len(q) - 1], inv_lead)
        quot[shift] = factor
        for j, y in enumerate(q):
            rem[shift + j] = _ref_combine(rem[shift + j], _ref_mul(steps, factor, y), -1)
    return _ref_trim(quot), _ref_trim(rem)


def _ref_quotient(tower, num, den, nterms):
    steps = tower.steps
    inv0 = tower.element(den[0]).inverse().coords
    out = []
    for k in range(nterms):
        acc = num[k] if k < len(num) else (Fraction(0),) * tower.dim
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = _ref_combine(acc, _ref_mul(steps, den[j], out[k - j]), -1)
        out.append(_ref_mul(steps, acc, inv0))
    return out


def _sparse(data, dim, lengths, forced=None):
    """Fraction-coordinate coefficients, at least half of them zero, each nonzero one with
    denominators of its own; the index forced (0 or -1) is nonzero."""
    n = data.draw(lengths)
    flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    nonzero = [i for i in range(n) if flags[i]][:n // 2 - (forced is not None)]
    if forced is not None:
        nonzero.append(forced % n)
    coordinate = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
    vector = st.tuples(*[coordinate] * dim).filter(any)
    zero = (Fraction(0),) * dim
    return [data.draw(vector) if i in nonzero else zero for i in range(n)]


def _elements(tower, coords):
    return tuple(tower.element(c) for c in coords)


@pytest.mark.parametrize("height", [0, 1, 2])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sparse_kernels_match_the_fraction_schoolbook(height, data):
    from localpoints.series import _convolve, _pdivmod, _pmul, _psum, _series_quotient

    tower = CONSTANT_TOWERS[height]
    steps, dim, zero = tower.steps, tower.dim, tower.zero()
    fraction_zero = (Fraction(0),) * dim
    p, q = (_sparse(data, dim, st.integers(0, 8)) for _ in range(2))
    ep, eq = _elements(tower, p), _elements(tower, q)

    def same(got, expected):
        assert _raw(got) == _raw(_elements(tower, expected))

    full = len(p) + len(q) - 1
    same(_pmul(ep, eq, zero), _ref_trim(_ref_products(steps, p, q, max(full, 0))))
    # a nonzero constant factor scales a polynomial, trimmed as every Poly is
    constant, trimmed = _sparse(data, dim, st.just(2), forced=0)[:1], _ref_trim(list(q))
    same(_pmul(_elements(tower, constant), _elements(tower, trimmed), zero),
         _ref_products(steps, constant, trimmed, len(trimmed)))
    if full > 1:
        size = data.draw(st.integers(1, full - 1))
        got = _convolve(ep, eq, size, tower)
        assert len(got) == size
        same(got, _ref_products(steps, p, q, size))
    same(_psum(ep, eq, 1), _ref_sum(p, q, 1, fraction_zero))
    same(_psum(ep, eq, -1), _ref_sum(p, q, -1, fraction_zero))

    # series sums: p and q at leads and precisions of their own, and a zero series,
    # whose lead is its precision
    place = Place.finite(zero, 1)
    specs = []
    for coords in (p, q, []):
        lead = data.draw(st.integers(-3, 3))
        precision = lead + data.draw(st.integers(0 if coords else -3, 10))
        if not coords:
            lead = precision
        specs.append((lead, coords, precision,
                      PuiseuxSeries(tower, place, lead, _elements(tower, coords), precision)))
    for (a_lead, a, a_prec, x), (b_lead, b, b_prec, y) in itertools.product(specs, repeat=2):
        lead, precision = min(a_lead, b_lead), min(a_prec, b_prec)
        size = precision - lead
        padded = [([fraction_zero] * (at - lead) + coords)[:size]
                  for at, coords in ((a_lead, a), (b_lead, b))]
        for sign, total in ((1, x + y), (-1, x - y)):
            assert total.precision == precision
            expected = _ref_sum(*padded, sign, fraction_zero)
            same([total.coefficient(k) for k in range(lead, precision)],
                 expected + [fraction_zero] * (size - len(expected)))

    divisor = _sparse(data, dim, st.integers(2, 6), forced=-1)
    quot, rem = _pdivmod(ep, _elements(tower, divisor), zero)
    ref_quot, ref_rem = _ref_divmod(tower, p, divisor)
    same(quot, ref_quot)
    same(rem, ref_rem)

    den = _sparse(data, dim, st.integers(2, 8), forced=0)
    nterms = data.draw(st.integers(1, 10))
    same(_series_quotient(ep, _elements(tower, den), nterms, zero),
         _ref_quotient(tower, p, den, nterms))


@pytest.mark.parametrize("height", [0, 1, 2])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_monomial_factor_shifts_the_other_as_the_convolution_does(height, data):
    from localpoints import series

    tower = CONSTANT_TOWERS[height]
    zero = tower.zero()
    # c*r^k, and q with zeros of its own: possibly empty, all zero or untrimmed
    k = data.draw(st.integers(0, 4))
    monomial = (zero,) * k + _elements(tower, _sparse(data, tower.dim, st.just(1), forced=0))
    q = _elements(tower, _sparse(data, tower.dim, st.integers(0, 8)))
    expected = series._trim(series._convolve(monomial, q, len(monomial) + len(q) - 1, tower))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_convolve", None)  # a shift runs no convolution
        assert _raw(series._pmul(monomial, q, zero)) == _raw(expected)
        assert _raw(series._pmul(q, monomial, zero)) == _raw(expected)


@pytest.mark.parametrize("height", [0, 1, 2])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_series_times_a_one_coefficient_series_is_the_convolution(height, data):
    from localpoints import series

    tower = CONSTANT_TOWERS[height]
    place = Place.finite(tower.zero(), 1)

    def drawn(lengths):
        lead = data.draw(st.integers(-3, 3))
        coeffs = _elements(tower, _sparse(data, tower.dim, lengths, forced=0))
        return PuiseuxSeries(tower, place, lead, coeffs, lead + data.draw(st.integers(1, 10)))

    a, b = drawn(st.integers(1, 8)), drawn(st.just(1))
    precision = min(a.precision + b.lead, b.precision + a.lead)
    lead = a.lead + b.lead
    size = min(precision - lead, len(a.coeffs))
    expected = PuiseuxSeries(tower, place, lead,
                             tuple(series._convolve(a.coeffs, b.coeffs, size, tower)), precision)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_convolve", None)  # a scaling runs no convolution
        products = (a * b, b * a)
    for product in products:
        assert (product.lead, product.precision) == (expected.lead, expected.precision)
        assert _raw(product.coeffs) == _raw(expected.coeffs)


@pytest.mark.parametrize("height", [0, 1, 2])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_pair_equal_up_to_a_constant_cancels_to_it_with_no_proof(height, data):
    from localpoints import series

    tower = CONSTANT_TOWERS[height]
    steps, zero = tower.steps, tower.zero()
    # den has nonzero coefficients below its leading one, so it is no monomial
    den = (_sparse(data, tower.dim, st.just(1), forced=0)
           + _sparse(data, tower.dim, st.integers(1, 6), forced=-1))
    c = _sparse(data, tower.dim, st.just(1), forced=0)[0]
    num = _elements(tower, [_ref_mul(steps, c, d) for d in den])
    den = _elements(tower, den)
    certificates, divisions = [], []
    certificate, pdivmod = series._coprime_mod_p, series._pdivmod
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_coprime_mod_p", lambda *a: certificates.append(a) or certificate(*a))
        patch.setattr(series, "_pdivmod", lambda *a: divisions.append(a) or pdivmod(*a))
        cancelled = series._cross_cancel(num, den, zero)
        assert (certificates, divisions) == ([], [])
        # num + 1 = c*den + 1 is not a constant multiple of den
        shifted = series._cross_cancel((num[0] + 1,) + num[1:], den, zero)
    assert _raw(cancelled[0]) == _raw([tower.element(c)])
    assert _raw(cancelled[1]) == _raw([tower.one()])
    assert len(shifted[1]) > 1


def test_products_multiply_only_nonzero_pairs(monkeypatch):
    from localpoints import series

    tower = CONSTANT_TOWERS[1]
    place = Place.finite(tower.zero(), 3)
    r = r_function(tower, place)
    f, g = (1 + r ** 3) ** 2, 2 + r ** 6
    fs, gs = f.to_puiseux(7), g.to_puiseux(7)
    products = []
    tower_mul = series._mul
    monkeypatch.setattr(series, "_mul", lambda *args: products.append(args) or tower_mul(*args))
    # 1 + 2r^3 + r^6 times 2 + r^6: six nonzero pairs of the 49 dense ones
    assert f * g == rf([2, 0, 0, 4, 0, 0, 3, 0, 0, 2, 0, 0, 1], place=place, tower=tower)
    assert len(products) == 6
    # truncated below r^7, a row stops at the precision: (0, 0), (0, 6), (3, 0), (6, 0)
    products.clear()
    assert [c.coords[0] for c in (fs * gs).coeffs] == [2, 0, 0, 4, 0, 0, 3]
    assert len(products) == 4


def test_a_constant_times_the_zero_polynomial_is_empty_whatever_the_constant():
    from localpoints.series import _pmul, _pscale

    for tower in CONSTANT_TOWERS:
        zero, one = tower.zero(), tower.one()
        two = one + one
        assert _pmul((one,), (zero,), zero) == _pmul((two,), (zero,), zero) == ()
        assert _pscale((two, zero), one) == (two,)


def test_a_quotient_by_a_constant_runs_no_recurrence(monkeypatch):
    from localpoints import series

    tower = CONSTANT_TOWERS[2]
    a, b = tower.gen("a"), tower.gen("b")
    zero = tower.zero()
    num, den = (a, zero, b, zero, a * b), (a + 2, zero, zero)
    steps = []
    dot = series._dot
    monkeypatch.setattr(series, "_dot", lambda *args: steps.append(args) or dot(*args))
    for nterms in (1, 4, 7):
        got = series._series_quotient(num, den, nterms, zero)
        expected = _ref_quotient(tower, [c.coords for c in num], [c.coords for c in den], nterms)
        assert _raw(got) == _raw(_elements(tower, expected))
    assert steps == []
    # a den with a second nonzero coefficient takes one _dot per output coefficient
    series._series_quotient(num, (a + 2, zero, b), 7, zero)
    assert len(steps) == 7
