from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from localpoints.orbifold import (
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
)


def curve(genus, multiplicities):
    return OrbifoldCurve.from_multiplicities(genus, multiplicities)


def test_degree_examples():
    assert degree(curve(0, [2, 2, 2, 2, 2])) == Fraction(1, 2)
    assert degree(curve(0, [2, 2, 2, 2])) == 0
    assert degree(curve(1, [])) == 0
    assert degree(curve(0, [INF, INF, 2])) == Fraction(1, 2)


def test_degree_additive_in_marks():
    base = curve(1, [2, 3])
    extended = curve(1, [2, 3, 5])
    assert degree(extended) - degree(base) == 1 - Fraction(1, 5)
    with_inf = curve(1, [2, 3, INF])
    assert degree(with_inf) - degree(base) == 1


def _fraction_degree(curve):
    """The degree summed in Fractions, one mark at a time."""
    total = Fraction(2 * curve.genus - 2)
    for m in curve.multiplicities:
        total += 1 if m is INF else 1 - Fraction(1, m)
    return total


def test_degree_matches_the_fraction_sum_on_the_sweep():
    # every base curve of perturbation_sweep, with 0, 1 and 2 infinite marks
    assert degree(curve(0, [])) == _fraction_degree(curve(0, [])) == -2
    assert degree(curve(1, [INF, INF])) == _fraction_degree(curve(1, [INF, INF])) == 2
    checked = 0
    for genus in range(3):
        for size in range(7):
            for finite in combinations_with_replacement(range(1, 11), size):
                expected = _fraction_degree(curve(genus, finite))
                for n_inf in range(3):  # an infinite mark adds exactly 1
                    one = curve(genus, [*finite, *[INF] * n_inf])
                    assert degree(one) == expected + n_inf, one
                    checked += 1
    assert checked == 3 * 24024


def test_general_type_examples():
    assert is_general_type(curve(0, [2, 2, 2, 2, 2]))
    assert not is_general_type(curve(0, [2, 2, 2, 2]))
    assert is_general_type(curve(2, []))


def test_pullback_half_marks():
    five = pullback_half_marks(0, 5)
    assert degree(five) == Fraction(1, 2)
    assert is_general_type(five)
    one_genus_one = pullback_half_marks(1, 1)
    assert degree(one_genus_one) == Fraction(1, 2)
    assert is_general_type(one_genus_one)
    assert degree(pullback_half_marks(0, 1)) == Fraction(-3, 2)
    assert not is_general_type(pullback_half_marks(0, 1))


def test_pullback_threshold_and_degree_formula():
    for d in range(1, 51):
        assert is_general_type(pullback_half_marks(0, d)) == (d >= 5)
        for genus in range(0, 4):
            assert degree(pullback_half_marks(genus, d)) == 2 * genus - 2 + Fraction(d, 2)
    # genus one: every degree is general type
    for d in range(1, 51):
        assert is_general_type(pullback_half_marks(1, d))


def test_from_multiplicities_matches_the_constructor():
    for genus, multiplicities in [(0, []), (2, [3, 3, INF, 1]), (1, (2,) * 7)]:
        marks = tuple((f"p{i}", m) for i, m in enumerate(multiplicities, start=1))
        built = curve(genus, multiplicities)
        assert built == OrbifoldCurve(genus, marks) == curve(genus, iter(multiplicities))
        assert hash(built) == hash(OrbifoldCurve(genus, marks))
    bad = [(-1, [2])] + [(0, [2, m, 3]) for m in (0, -2, 2.5, "2", None, [2])]
    for genus, multiplicities in bad:
        marks = tuple((f"p{i}", m) for i, m in enumerate(multiplicities, start=1))
        with pytest.raises(ValueError) as from_constructor:
            OrbifoldCurve(genus, marks)
        with pytest.raises(ValueError) as from_list:
            curve(genus, multiplicities)
        assert str(from_list.value) == str(from_constructor.value)


def test_perturb_finite():
    perturbed = perturb_finite(curve(0, [INF, INF, 2]))
    assert perturbed.multiplicities == (7, 7, 2)
    assert degree(perturbed) == Fraction(3, 14)
    genus_one = perturb_finite(curve(1, [INF]))
    assert genus_one.multiplicities == (7,)
    assert degree(genus_one) == Fraction(6, 7)
    unchanged = perturb_finite(curve(0, [2, 3]))
    assert unchanged.multiplicities == (2, 3)
    with pytest.raises(ValueError):
        perturb_finite(curve(0, [INF]), replacement=1)


def test_perturbation_preserves_general_type_on_sweep():
    # genus <= 2, up to six finite marks with multiplicities <= 10, up to six
    # infinite marks: positive degree stays positive after replacing inf by 7
    for genus in range(3):
        for size in range(7):
            for finite in combinations_with_replacement(range(1, 11), size):
                base = Fraction(2 * genus - 2) + sum(1 - Fraction(1, m) for m in finite)
                for n_inf in range(7):
                    before = base + n_inf
                    if before > 0:
                        after = base + n_inf * Fraction(6, 7)
                        assert after > 0, (genus, finite, n_inf)


def test_profile_stats_examples():
    assert profile_stats(MultiplicityProfile((2, 3))) == (2, 1, 1)
    assert profile_stats(MultiplicityProfile((4, 6))) == (4, 2, 2)
    assert profile_stats(MultiplicityProfile((1,))) == (1, 1, 1)


def test_profile_validation():
    with pytest.raises(ValueError):
        MultiplicityProfile(())
    with pytest.raises(ValueError):
        MultiplicityProfile((0, 2))


def test_semigroup_contains_examples():
    assert not semigroup_contains(MultiplicityProfile((2, 5)), 3)
    assert semigroup_contains(MultiplicityProfile((2, 3)), 7)
    for a in range(1, 11):
        assert semigroup_contains(MultiplicityProfile((a,)), a)
    assert semigroup_contains(MultiplicityProfile((2, 3)), 0)


def _bruteforce_contains(gens, m):
    frontier = {0}
    for a in gens:
        frontier = {s + a * k for s in frontier for k in range(m // a + 1) if s + a * k <= m}
    return m in frontier


def test_semigroup_agrees_with_bruteforce():
    for a in range(1, 11):
        for b in range(a, 11):
            profile = MultiplicityProfile((a, b))
            for m in range(61):
                assert semigroup_contains(profile, m) == _bruteforce_contains((a, b), m), (
                    a,
                    b,
                    m,
                )


def test_forced_component_examples():
    assert forced_component(2, 3)
    assert not forced_component(2, 4)
    assert forced_component(3, 5)


def test_forced_component_matches_semigroup_enumeration():
    # for a <= 8 and a < m < 2a, no generator set with minimum a avoiding
    # (a, m] can reach m
    for a in range(2, 9):
        for m in range(a + 1, 2 * a):
            assert forced_component(a, m)
            candidates = [a] + [c for c in range(m + 1, m + 6)]
            for size in range(1, 4):
                for extra in combinations_with_replacement(candidates[1:], size - 1):
                    gens = (a,) + extra
                    assert not semigroup_contains(MultiplicityProfile(gens), m)
        # outside the window membership can hold
        assert not forced_component(a, 2 * a)
        assert semigroup_contains(MultiplicityProfile((a,)), 2 * a)
