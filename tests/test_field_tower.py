import math
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localpoints.errors import NotAPrefixError
from localpoints.field_tower import (
    QQ,
    AlreadySplit,
    FieldElement,
    FieldTower,
    TowerStep,
    adjoin_quadratic,
    embed,
    is_square,
)


def golden_tower() -> FieldTower:
    tower = adjoin_quadratic(QQ, "alpha", -1, -1)
    assert isinstance(tower, FieldTower)
    return tower


def gauss_tower() -> FieldTower:
    tower = adjoin_quadratic(QQ, "i", 0, 1)
    assert isinstance(tower, FieldTower)
    return tower


def golden_sqrt_tower() -> FieldTower:
    base = golden_tower()
    tower = adjoin_quadratic(base, "beta", 0, base.gen("alpha"))
    assert isinstance(tower, FieldTower)
    return tower


def golden_towers_to_height_three() -> list[FieldTower]:
    """Q, Q(alpha), Q(alpha, beta) and Q(alpha, beta, gamma) with gamma^2 = beta."""
    tall = golden_sqrt_tower()
    top = adjoin_quadratic(tall, "gamma", 0, -tall.gen("beta"))
    assert isinstance(top, FieldTower)
    return [QQ, golden_tower(), tall, top]


def test_adjoin_golden_ratio_relation():
    tower = golden_tower()
    alpha = tower.gen("alpha")
    assert alpha * alpha == alpha + 1


def test_adjoin_imaginary_unit_relation():
    tower = gauss_tower()
    i = tower.gen("i")
    assert i * i == tower.rational(-1)


def test_adjoin_split_quadratic_returns_root():
    result = adjoin_quadratic(QQ, "s", 0, -4)
    assert isinstance(result, AlreadySplit)
    assert result.witness == QQ.rational(2) or result.witness == QQ.rational(-2)
    assert result.witness * result.witness == QQ.rational(4)


def test_adjoin_name_collision_rejected():
    tower = golden_tower()
    with pytest.raises(ValueError):
        adjoin_quadratic(tower, "alpha", 0, 1)


def test_rational_arithmetic():
    assert QQ.rational(Fraction(1, 3)) + Fraction(1, 6) == QQ.rational(Fraction(1, 2))


def test_golden_inverse():
    tower = golden_tower()
    alpha = tower.gen("alpha")
    assert 1 / alpha == alpha - 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.zero().inverse()


def test_minimal_polynomial_holds_in_nested_tower():
    tower = golden_sqrt_tower()
    alpha = tower.gen("alpha")
    beta = tower.gen("beta")
    assert beta * beta == -alpha
    assert alpha * alpha == alpha + 1


def test_embed_is_identity_on_values():
    tower = golden_tower()
    half = QQ.rational(Fraction(1, 2))
    assert embed(half, tower) == tower.rational(Fraction(1, 2))


def test_embed_preserves_minimal_polynomial():
    base = golden_tower()
    tall = golden_sqrt_tower()
    alpha = embed(base.gen("alpha"), tall)
    assert alpha * alpha == alpha + 1


def test_embed_rejects_non_prefix():
    gauss = gauss_tower()
    golden = golden_tower()
    with pytest.raises(NotAPrefixError):
        embed(gauss.gen("i"), golden)
    # == answers across towers where neither is a prefix of the other
    assert gauss.gen("i") != golden.gen("alpha") and not gauss.gen("i") == golden.gen("alpha")


def test_is_square_rationals():
    check = is_square(QQ, Fraction(4, 9))
    assert check.kind == "yes"
    assert check.witness * check.witness == QQ.rational(Fraction(4, 9))
    assert is_square(QQ, -1).kind == "no"
    assert is_square(QQ, 0).kind == "yes"


def test_is_square_on_a_step_with_zero_discriminant():
    # e^2 = 0: a rational a = X has no X/d candidate, only the root of X
    tower = FieldTower((TowerStep("e", (0,), (0,)),))
    check = is_square(tower, 4)
    assert check.kind == "yes"
    assert check.witness * check.witness == tower.rational(4)


def test_is_square_quadratic_extension():
    tower = golden_tower()
    alpha = tower.gen("alpha")
    check = is_square(tower, alpha * alpha)
    assert check.kind == "yes"
    assert check.witness * check.witness == alpha * alpha
    # -1 stays a non-square in the real golden field
    assert is_square(tower, tower.rational(-1)).kind == "no"
    # 1/alpha = alpha - 1 is not a square (negative in one real embedding)
    assert is_square(tower, 1 / alpha).kind == "no"


def test_is_square_decided_at_height_two():
    tower = golden_sqrt_tower()
    alpha, beta = tower.gen("alpha"), tower.gen("beta")
    assert is_square(tower, tower.rational(2)).kind == "no"
    assert is_square(tower, -alpha).witness == beta
    assert is_square(tower, 5).witness == 2 * alpha - 1


@pytest.mark.parametrize("height", [2, 3])
def test_is_square_randomized_roundtrip_above_height_one(height):
    rng = random.Random(100 + height)
    tower = golden_towers_to_height_three()[height]
    for _ in range(200):
        w = _random_element(rng, tower)
        check = is_square(tower, w * w)
        assert check.kind == "yes"
        assert check.witness * check.witness == w * w


def test_twice_a_square_is_no_square_at_height_two():
    # 2 is not a square in Q(alpha, beta), so neither is 2*w^2 for any w != 0
    rng = random.Random(17)
    tower = golden_sqrt_tower()
    for _ in range(200):
        w = _random_element(rng, tower, nonzero=True)
        assert is_square(tower, 2 * w * w).kind == "no"


def test_adjoin_root_of_minus_alpha_is_already_split():
    tower = golden_sqrt_tower()
    beta = tower.gen("beta")
    result = adjoin_quadratic(tower, "g", 0, tower.gen("alpha"))
    assert isinstance(result, AlreadySplit)
    assert result.witness in (beta, -beta)


def _random_element(rng, tower, nonzero=False):
    while True:
        coords = tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(tower.dim)
        )
        element = FieldElement(tower, coords)
        if not nonzero or not element.is_zero():
            return element


def test_field_axioms_randomized():
    rng = random.Random(20_26)
    towers = [QQ, golden_tower(), gauss_tower(), golden_sqrt_tower()]
    for tower in towers:
        for _ in range(250):
            a = _random_element(rng, tower, nonzero=True)
            b = _random_element(rng, tower, nonzero=True)
            c = _random_element(rng, tower)
            assert (a * b) / a == b
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_is_square_against_bruteforce_oracle():
    # every p/q with small numerator and denominator, squared, must come back yes
    rng = random.Random(7)
    for _ in range(200):
        value = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        check = is_square(QQ, value * value)
        assert check.kind == "yes"
        assert check.witness.coords[0] == abs(value)
    # and "no" answers really have no small witness
    for numerator in range(-8, 9):
        for denominator in range(1, 9):
            value = Fraction(numerator, denominator)
            if is_square(QQ, value).kind == "no":
                for p in range(-16, 17):
                    for q in range(1, 13):
                        assert Fraction(p, q) ** 2 != value


def test_is_square_quadratic_randomized_roundtrip():
    rng = random.Random(11)
    tower = golden_tower()
    for _ in range(200):
        w = _random_element(rng, tower)
        check = is_square(tower, w * w)
        assert check.kind == "yes"
        assert check.witness * check.witness == w * w


def test_is_square_quadratic_no_answers_have_no_small_witness():
    tower = golden_tower()
    grid = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    candidates = [tower.element((p, q)) for p in grid for q in grid]
    targets = [tower.element((x, y)) for x in grid[::3] for y in grid[::3]]
    for a in targets:
        if a.is_zero():
            continue
        if is_square(tower, a).kind == "no":
            for w in candidates:
                assert w * w != a


def test_is_square_agrees_with_enumeration_oracle_across_towers():
    # forward enumeration: square everything small and expect "yes" on each
    # value so produced, in several different quadratic fields
    towers = [
        golden_tower(),
        gauss_tower(),
        adjoin_quadratic(QQ, "s2", 0, -2),  # root of 2
        adjoin_quadratic(QQ, "m3", 0, 3),  # root of -3
    ]
    for tower in towers:
        assert isinstance(tower, FieldTower)
        seen = set()
        for p_num in range(-6, 7):
            for q_num in range(-6, 7):
                for den in (1, 2, 3):
                    w = tower.element((Fraction(p_num, den), Fraction(q_num, den)))
                    square = w * w
                    if square.coords in seen:
                        continue
                    seen.add(square.coords)
                    check = is_square(tower, square)
                    assert check.kind == "yes", (tower, square)
                    assert check.witness * check.witness == square


def test_embed_is_ring_homomorphism():
    rng = random.Random(13)
    base = golden_tower()
    tall = golden_sqrt_tower()
    for _ in range(100):
        a = _random_element(rng, base)
        b = _random_element(rng, base)
        assert embed(a * b, tall) == embed(a, tall) * embed(b, tall)
        assert embed(a + b, tall) == embed(a, tall) + embed(b, tall)


def test_element_str_renders_generators():
    tower = golden_sqrt_tower()
    alpha = tower.gen("alpha")
    beta = tower.gen("beta")
    assert str(alpha + 1) == "1 + alpha"
    assert "alpha*beta" in str(alpha * beta)


# -- reference oracle: the per-coordinate Fraction arithmetic on TowerSteps ----


def _coords_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _coords_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _coords_mul(a, b, steps):
    if not steps:
        return (a[0] * b[0],)
    half = len(a) // 2
    sub = steps[:-1]
    bq, cq = steps[-1].b, steps[-1].c
    a_lo, a_hi = a[:half], a[half:]
    b_lo, b_hi = b[:half], b[half:]
    lolo = _coords_mul(a_lo, b_lo, sub)
    hihi = _coords_mul(a_hi, b_hi, sub)
    cross = _coords_add(_coords_mul(a_lo, b_hi, sub), _coords_mul(a_hi, b_lo, sub))
    # theta^2 = -b*theta - c
    lo = _coords_sub(lolo, _coords_mul(cq, hihi, sub))
    hi = _coords_sub(cross, _coords_mul(bq, hihi, sub))
    return lo + hi


def _coords_inv(a, steps):
    if not any(a):
        raise ZeroDivisionError("division by zero field element")
    if not steps:
        return (1 / a[0],)
    half = len(a) // 2
    sub = steps[:-1]
    bq, cq = steps[-1].b, steps[-1].c
    lo, hi = a[:half], a[half:]
    norm = _coords_add(
        _coords_sub(_coords_mul(lo, lo, sub), _coords_mul(bq, _coords_mul(lo, hi, sub), sub)),
        _coords_mul(cq, _coords_mul(hi, hi, sub), sub),
    )
    inv_norm = _coords_inv(norm, sub)
    conj_lo = _coords_sub(lo, _coords_mul(bq, hi, sub))
    neg_hi = tuple(-x for x in hi)
    return _coords_mul(conj_lo, inv_norm, sub) + _coords_mul(neg_hi, inv_norm, sub)


def fractional_towers() -> list[FieldTower]:
    """Heights 0-3 with non-integral step constants, so D_k != 1 at every level."""
    t1 = adjoin_quadratic(QQ, "u", Fraction(1, 2), Fraction(1, 3))
    assert isinstance(t1, FieldTower)
    u = t1.gen("u")
    t2 = adjoin_quadratic(t1, "v", u / 3 + Fraction(1, 5), 2 * u / 7 - Fraction(1, 2))
    assert isinstance(t2, FieldTower)
    u, v = t2.gen("u"), t2.gen("v")
    t3 = adjoin_quadratic(t2, "w", v / 2 + Fraction(1, 3), u * v / 5 + Fraction(2, 3))
    assert isinstance(t3, FieldTower)
    return [QQ, t1, t2, t3]


def fractional_rational_step_towers() -> list[FieldTower]:
    """Non-integral rational b and c above a fractional level, where S_{k-1} != 1."""
    t1 = fractional_towers()[1]
    t2 = adjoin_quadratic(t1, "v", Fraction(1, 5), Fraction(1, 7))
    assert isinstance(t2, FieldTower)
    t3 = adjoin_quadratic(t2, "w", Fraction(2, 3), Fraction(5, 11))
    assert isinstance(t3, FieldTower)
    return [t2, t3]


def prime_denominator_towers() -> list[FieldTower]:
    """Steps whose c, then b, has the first residue-prime candidate as denominator."""
    from localpoints.field_tower import _RESIDUE_PRIME_CANDIDATES, _is_prime

    first = next(p for p in _RESIDUE_PRIME_CANDIDATES if _is_prime(p))
    t1 = adjoin_quadratic(QQ, "s", 0, Fraction(-2, first))
    assert isinstance(t1, FieldTower)
    t2 = adjoin_quadratic(t1, "v", t1.gen("s") / first, -3)
    assert isinstance(t2, FieldTower)
    return [t1, t2]


def _assert_canonical(element):
    assert len(element.nums) == element.tower.dim
    assert all(type(x) is int for x in element.nums)
    assert element.den > 0
    if element.is_zero():
        assert element.den == 1
    else:
        assert math.gcd(*element.nums, element.den) == 1


@pytest.mark.parametrize(
    "towers", [fractional_towers, fractional_rational_step_towers, golden_towers_to_height_three]
)
def test_mul_and_inverse_match_fraction_oracle(towers):
    rng = random.Random(4242)
    for tower in towers():
        for _ in range(60 if tower.height < 3 else 20):
            a = _random_element(rng, tower)
            b = _random_element(rng, tower)
            product = a * b
            _assert_canonical(product)
            assert product.coords == _coords_mul(a.coords, b.coords, tower.steps)
            three = (Fraction(3),) + (Fraction(0),) * (tower.dim - 1)
            assert (a ** 0).coords == tower.one().coords
            # an int on the left: __rsub__, and __rtruediv__ below
            assert (3 - a).coords == _coords_sub(three, a.coords)
            if not a.is_zero():
                inverse = a.inverse()
                _assert_canonical(inverse)
                assert inverse.coords == _coords_inv(a.coords, tower.steps)
                assert (3 / a).coords == _coords_mul(three, inverse.coords, tower.steps)
                square = _coords_mul(a.coords, a.coords, tower.steps)
                assert (a ** -2).coords == _coords_inv(square, tower.steps)
            _assert_canonical(a + b)
            _assert_canonical(a - b)
            _assert_canonical(-a)


# -- products above height one by which halves of the operands are zero ----------

_SHAPES = ("lower half zero", "upper half zero", "sparse", "dense")


_F = Fraction
# the steps of fractional_towers, fractional_rational_step_towers and
# golden_towers_to_height_three, as (name, b, c)
_LITERAL_STEPS = (
    (("u", (_F(1, 2),), (_F(1, 3),)), ("v", (_F(1, 5), _F(1, 3)), (_F(-1, 2), _F(2, 7))),
     ("w", (_F(1, 3), 0, _F(1, 2), 0), (_F(2, 3), 0, 0, _F(1, 5)))),
    (("u", (_F(1, 2),), (_F(1, 3),)), ("v", (_F(1, 5), 0), (_F(1, 7), 0)),
     ("w", (_F(2, 3), 0, 0, 0), (_F(5, 11), 0, 0, 0))),
    (("alpha", (-1,), (-1,)), ("beta", (0, 0), (0, 1)), ("gamma", (0, 0, 0, 0), (0, 0, -1, 0))),
)


@cache
def _towers_at(height):
    """The three towers of _LITERAL_STEPS cut to this height, built with no field
    arithmetic, so a faulty product cannot break their construction."""
    def step(name, b, c):
        return TowerStep(name, tuple(map(Fraction, b)), tuple(map(Fraction, c)))

    return tuple(FieldTower(tuple(step(*s) for s in steps[:height])) for steps in _LITERAL_STEPS)


def test_the_literal_towers_are_the_adjoined_ones():
    built = (fractional_towers(), [None, None] + fractional_rational_step_towers(),
             golden_towers_to_height_three())
    for height in (2, 3):
        assert _towers_at(height) == tuple(towers[height] for towers in built)


def _shaped(data, tower, shape):
    """Fraction coordinates with the given half zero, with zeros scattered through
    them (sparse), or with no zero coordinate at all (dense)."""
    coordinate = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
    if shape == "dense":
        coordinate = coordinate.filter(bool)
    coords = [data.draw(coordinate) for _ in range(tower.dim)]
    half = tower.dim // 2
    if shape == "lower half zero":
        coords[:half] = [Fraction(0)] * half
    elif shape == "upper half zero":
        coords[half:] = [Fraction(0)] * half
    return tuple(coords)


@pytest.mark.parametrize("height", [2, 3])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_products_with_a_zero_half_match_the_fraction_oracle(height, data):
    # the top level multiplies only the nonzero half pairs, all four of them when
    # no half is zero; every pair of shapes, on each kind of tower
    tower = data.draw(st.sampled_from(_towers_at(height)))
    for shape_a in _SHAPES:
        a = tower.element(_shaped(data, tower, shape_a))
        if not a.is_zero():
            inverse = a.inverse()
            _assert_canonical(inverse)
            assert inverse.coords == _coords_inv(a.coords, tower.steps), shape_a
        for shape_b in _SHAPES:
            b = tower.element(_shaped(data, tower, shape_b))
            got = a * b
            _assert_canonical(got)
            assert got.coords == _coords_mul(a.coords, b.coords, tower.steps), (shape_a, shape_b)


def test_zero_is_canonical_and_cancellation_normalises():
    for tower in fractional_towers():
        zero = tower.element([Fraction(0)] * tower.dim)
        assert zero.nums == (0,) * tower.dim and zero.den == 1
        half = tower.rational(Fraction(1, 2))
        total = half + half
        assert total.nums == tower.one().nums and total.den == 1
        assert (half - half).den == 1


def test_equal_elements_hash_equal():
    rng = random.Random(99)
    towers = fractional_towers()
    for low, high in zip(towers, towers[1:]):
        for _ in range(30):
            a = _random_element(rng, low)
            # the same value from scaled-up Fractions, and through embed
            scaled = FieldElement(low, tuple(Fraction(3 * q.numerator, 3 * q.denominator)
                                             for q in a.coords))
            assert a == scaled and hash(a) == hash(scaled)
            lifted = embed(a, high)
            direct = FieldElement(high, a.coords + (Fraction(0),) * (high.dim - low.dim))
            assert lifted == direct and hash(lifted) == hash(direct)
            assert embed(a * a, high) == lifted * lifted


@pytest.mark.parametrize(
    "towers", [fractional_towers, fractional_rational_step_towers, golden_towers_to_height_three,
               prime_denominator_towers]
)
def test_residue_map_is_a_ring_map_onto_f_p(towers):
    from localpoints.field_tower import _residue_map

    rng = random.Random(77)
    for tower in towers():
        p, monomials = _residue_map(tower)
        assert p > 1 << 30 and math.gcd(p, math.prod(range(2, 1000))) == 1
        # deterministic: a tower with the same steps picks the same prime and roots
        assert _residue_map(FieldTower(tower.steps)) == (p, monomials)
        # every step's root satisfies its polynomial under the roots below it, and
        # its constants are p-integral: a prime dividing a denominator is passed over
        for k, step in enumerate(tower.steps):
            assert all(q.denominator % p for q in step.b + step.c)
            below = monomials[: 1 << k]
            b, c = (sum(q.numerator * pow(q.denominator, -1, p) * m for q, m in zip(v, below))
                    for v in (step.b, step.c))
            root = monomials[1 << k]
            assert (root * root + b * root + c) % p == 0

        def image(a):
            return sum(x * m for x, m in zip(a.nums, monomials)) * pow(a.den, -1, p) % p

        for _ in range(30):
            a, b = _random_element(rng, tower), _random_element(rng, tower)
            assert image(a * b) == image(a) * image(b) % p
            assert image(a + b) == (image(a) + image(b)) % p
            if not a.is_zero() and image(a):
                assert image(a.inverse()) * image(a) % p == 1


# -- the fused multiply-accumulate against the per-term sum it replaces ----------


def _dot_oracle(tower, xs, ys):
    total = tower.zero()
    for x, y in zip(xs, ys):
        total = total + x * y
    return total


def _element_over(rng, tower, den):
    """A random element whose coordinates all have denominator den before reduction."""
    return FieldElement(tower, tuple(Fraction(rng.randint(-9, 9), den) for _ in range(tower.dim)))


@pytest.mark.parametrize(
    "towers", [fractional_towers, fractional_rational_step_towers, golden_towers_to_height_three]
)
def test_dot_matches_the_sum_of_products(towers):
    from localpoints.field_tower import _dot

    rng = random.Random(1010)
    for tower in towers():
        assert _dot(tower, (), ()) == tower.zero()
        for n in range(40 if tower.height < 3 else 15):
            length = rng.randint(1, 6)
            # zero entries, one shared denominator, pairwise coprime denominators
            kind = n % 3
            primes = iter([5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])

            def entry():
                if kind == 0 and rng.random() < 0.4:
                    return tower.zero()
                return _element_over(rng, tower, 6 if kind == 1 else next(primes))

            xs = [entry() for _ in range(length)]
            ys = [entry() for _ in range(length)]
            got = _dot(tower, xs, ys)
            _assert_canonical(got)
            expected = _dot_oracle(tower, xs, ys)
            assert (got.nums, got.den) == (expected.nums, expected.den)
        # a sum that cancels is the canonical zero
        a = _random_element(rng, tower, nonzero=True)
        b = _random_element(rng, tower, nonzero=True)
        cancelled = _dot(tower, [a, a], [b, -b])
        assert (cancelled.nums, cancelled.den) == (tower.zero().nums, 1)
