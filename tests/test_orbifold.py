import copy
import pickle
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest

from localpoints import orbifold
from localpoints.claims import builtin_registry, run_claim
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
    semigroup_members,
)


curve = OrbifoldCurve


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


class _Mark(int):
    """An int subclass, which the one-test fast path hands to the full check."""


def test_the_constructor_checks_each_mark_with_one_message():
    good = [(0, []), (2, [3, 3, INF, 1]), (1, (2,) * 7), (0, [2, True, 3]), (1, [_Mark(5), 2]),
            (0, [10**399 + 7, INF])]
    for genus, multiplicities in good:
        built = OrbifoldCurve(genus, multiplicities)
        assert built.genus == genus and built.multiplicities == tuple(multiplicities)
        again = OrbifoldCurve(genus, iter(multiplicities))
        assert built == again == OrbifoldCurve.from_multiplicities(genus, multiplicities)
        assert hash(built) == hash(again)
    with pytest.raises(ValueError, match="^genus must be nonnegative$"):
        OrbifoldCurve(-1, [2])
    # a labelled (name, m) pair is no mark
    for m in (0, -2, 2.5, "2", None, [2], ("p1", 2)):
        with pytest.raises(ValueError) as refused:
            OrbifoldCurve(0, [2, m, 3])
        assert str(refused.value) == f"multiplicity must be a positive integer or inf, got {m!r}"
    # degree and perturb_finite know an infinite mark only as `m is INF`
    built = curve(0, [INF, INF, 2])
    for copied in (copy.deepcopy(built), pickle.loads(pickle.dumps(built)),
                   curve(0, [copy.copy(INF), pickle.loads(pickle.dumps(INF)), 2])):
        assert copied == built and str(copied) == "(genus 0; [inf, inf, 2])"
        assert all(m is INF for m in copied.multiplicities[:2])
        assert degree(copied) == degree(built) == Fraction(1, 2)
        assert perturb_finite(copied).multiplicities == (7, 7, 2)


def test_perturb_finite():
    perturbed = perturb_finite(curve(0, [INF, INF, 2]))
    assert perturbed.multiplicities == (7, 7, 2)
    assert degree(perturbed) == Fraction(3, 14)
    genus_one = perturb_finite(curve(1, [INF]))
    assert genus_one.multiplicities == (7,)
    assert degree(genus_one) == Fraction(6, 7)
    unchanged = perturb_finite(curve(0, [2, 3]))
    assert unchanged.multiplicities == (2, 3)


def _perturbation_case(genus, n_inf):
    """The boundary curve of the perturbation_sweep case a curve falls in."""
    if genus >= 2:
        return "(genus 2; [])"
    if n_inf == 0:
        return "(genus 0; [2, 3, 7])"
    if genus == 1:
        return "(genus 1; [inf])"
    return {1: "(genus 0; [2, 3, inf])", 2: "(genus 0; [2, inf, inf])"}.get(
        n_inf, "(genus 0; [inf, inf, inf])")


def test_perturbation_preserves_general_type_on_sweep():
    # the perturbation_sweep proof against brute force: genus <= 2, up to six finite
    # marks <= 10, up to six infinite marks, each replaced by what perturb_finite puts
    # in.  Positive degree stays positive, and over the curves of positive degree each
    # case's least D - n/m is the bound the claim proves, so every bound is attained
    m = perturb_finite(curve(0, [INF])).multiplicities[0]
    least = {}
    for genus in range(3):
        for size in range(7):
            for finite in combinations_with_replacement(range(1, 11), size):
                base = Fraction(2 * genus - 2) + sum(1 - Fraction(1, a) for a in finite)
                for n_inf in range(7):
                    before = base + n_inf
                    if before > 0:
                        after = base + n_inf * (1 - Fraction(1, m))
                        assert after > 0, (genus, finite, n_inf)
                        case = _perturbation_case(genus, n_inf)
                        least[case] = min(least.get(case, after), after)
    evidence = run_claim("perturbation_sweep", builtin_registry()).evidence
    assert least == {case["curve"]: Fraction(case["bound"]) for case in evidence["cases"]}


def test_the_least_mark_sums_of_the_perturbation_proof():
    # S, the sum of 1 - 1/a over finite marks a, on up to four marks <= 12: its least
    # positive value is 1/2, its least above 1 is 7/6 at (2, 3), and its least above 2
    # is Hurwitz's 2 + 1/42 at (2, 3, 7)
    sums = {sum((1 - Fraction(1, a) for a in marks), Fraction(0))
            for size in range(5) for marks in combinations_with_replacement(range(1, 13), size)}
    assert min(s for s in sums if s > 0) == Fraction(1, 2)
    assert min(s for s in sums if s > 1) == Fraction(7, 6)
    assert min(s for s in sums if s > 2) == 2 + Fraction(1, 42)


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


def _bruteforce_sums(gens, bound):
    """Every nonnegative combination of gens up to bound."""
    frontier = {0}
    for a in gens:
        frontier = {s + a * k for s in frontier for k in range(bound // a + 1)
                    if s + a * k <= bound}
    return frontier


def test_semigroup_agrees_with_bruteforce():
    # one to three generators, repeats allowed, and generators above m
    for size in range(1, 4):
        for gens in combinations_with_replacement(range(1, 13), size):
            profile, sums = MultiplicityProfile(gens), _bruteforce_sums(gens, 150)
            for m in range(151):
                assert semigroup_contains(profile, m) == (m in sums), (gens, m)


def test_semigroup_contains_rejects_negatives_and_answers_large_m_fast():
    with pytest.raises(ValueError, match="nonnegative"):
        semigroup_contains(MultiplicityProfile((2, 3)), -1)
    start = time.perf_counter()
    assert semigroup_contains(MultiplicityProfile((2, 3)), 10**5)
    assert not semigroup_contains(MultiplicityProfile((2,)), 10**5 + 1)
    assert time.perf_counter() - start < 0.5


def test_semigroup_members_of_two_coprime_generators_follow_sylvester():
    # <a, b> with gcd 1 misses (a - 1)(b - 1)/2 integers, the largest ab - a - b
    for a in range(1, 11):
        for b in range(a + 1, 11):
            if gcd(a, b) == 1:
                bound = a * b
                gaps = set(range(bound + 1)) - semigroup_members(MultiplicityProfile((a, b)),
                                                                 bound)
                assert len(gaps) == (a - 1) * (b - 1) // 2, (a, b)
                assert max(gaps, default=-1) == a * b - a - b, (a, b)


def test_semigroup_members_agree_with_semigroup_contains():
    for size in range(1, 4):
        for gens in combinations_with_replacement(range(1, 11), size):
            profile = MultiplicityProfile(gens)
            assert semigroup_members(profile, 60) == {
                m for m in range(61) if semigroup_contains(profile, m)}, gens


def test_semigroup_facts_builds_one_bitset_per_pair(monkeypatch):
    calls = []

    def counted(profile, bound, reachable=orbifold._reachable):
        calls.append(profile.generators)
        return reachable(profile, bound)

    monkeypatch.setattr(orbifold, "_reachable", counted)
    assert run_claim("semigroup_facts", builtin_registry()).verdict == "pass"
    pairs = [(a, b) for a in range(1, 11) for b in range(a, 11)]
    # 12 spot checks, then one bitset for each of the 55 pairs
    assert len(calls) == 12 + 55
    assert calls[12:] == pairs


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
