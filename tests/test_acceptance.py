"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from localpoints.claims import DEFAULT_SEED, builtin_registry, run_claim
from localpoints.field_tower import QQ, FieldElement, adjoin_quadratic
from localpoints.orbifold import (
    MultiplicityProfile,
    forced_component,
    profile_stats,
    semigroup_contains,
)
from localpoints.series import Place, PuiseuxSeries, RationalFunction, series_sqrt
from localpoints.variety import parse_system, print_system


@pytest.fixture(scope="module")
def registry():
    return builtin_registry()


def _announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_point_sqrt_t(registry):
    report = run_claim("point_sqrt_t", registry)
    assert report.verdict == "pass"
    assert [eq["status"] for eq in report.evidence["equations"]] == [
        "exact_zero",
        "exact_zero",
    ]
    assert [iq["status"] for iq in report.evidence["inequations"]] == [
        "nonzero",
        "nonzero",
    ]
    assert report.wall_time < 1.0
    _announce(1, "point_sqrt_t")


def test_criterion_02_point_cbrt_t(registry):
    report = run_claim("point_cbrt_t", registry)
    assert report.verdict == "pass"
    assert all(eq["status"] == "exact_zero" for eq in report.evidence["equations"])
    assert report.evidence["simplification_identity"] == "exact"
    # the identity itself, once more as a standalone exact equality
    place = Place.finite(QQ.zero(), 3)
    lhs = RationalFunction.from_coeffs(QQ, place, [1, 1, -2]) / RationalFunction.from_coeffs(
        QQ, place, [1, -1]
    )
    assert lhs == RationalFunction.from_coeffs(QQ, place, [1, 2])
    assert report.wall_time < 1.0
    _announce(2, "point_cbrt_t")


def test_criterion_03_point_q_family(registry):
    total = 0.0
    for q in (3, 5, 7, 9):
        report = run_claim(f"point_q_family_q{q}", registry)
        assert report.verdict == "pass", q
        assert all(eq["status"] == "exact_zero" for eq in report.evidence["equations"])
        total += report.wall_time
    assert total < 5.0
    _announce(3, "point_q_family q in {3,5,7,9}")


def test_criterion_04_point_infinity(registry):
    report = run_claim("point_infinity", registry)
    assert report.verdict == "pass"
    assert all(eq["status"] == "exact_zero" for eq in report.evidence["equations"])
    assert "1/r^1" in report.evidence["place"]
    assert report.wall_time < 1.0
    _announce(4, "point_infinity")


def test_criterion_05_golden_nonlift(registry):
    total = 0.0
    for n in range(1, 6):
        report = run_claim(f"golden_nonlift_n{n}", registry)
        assert report.verdict == "pass", n
        # (a) the cover factor has order exactly 1, i.e. valuation 1/(2n)
        assert report.evidence["orders"]["cover_factor"] == 1
        assert report.evidence["cover_factor_valuation"] == str(Fraction(1, 2 * n))
        # (b) both equation left-hand sides have order exactly 1 and the
        # quotients are squares with explicit witnesses
        assert report.evidence["orders"]["lhs_1"] == 1
        assert report.evidence["orders"]["lhs_2"] == 1
        for label in ("y", "z"):
            assert report.evidence["square_witnesses"][label]["result"] == "witness"
            assert report.evidence["square_witnesses"][label]["quotient_order"] == 0
        # (c) both double-cover forms obstruct with odd-order certificates
        assert report.evidence["plain_cover"] == {"result": "obstructed", "order": 1}
        assert report.evidence["twisted_cover"] == {"result": "obstructed", "order": 3}
        total += report.wall_time
    assert total < 5.0
    _announce(5, "golden_nonlift n in {1..5}")


def test_criterion_06_k3_lifts(registry):
    sqrt_t = run_claim("k3_lift_sqrt_t", registry)
    assert sqrt_t.verdict == "pass"
    # w^2 + t = 0 exactly: the cover equation verifies with zero residual
    assert all(eq["status"] == "exact_zero" for eq in sqrt_t.evidence["equations"])
    assert sqrt_t.evidence["lift"] == "lifts"
    assert sqrt_t.evidence["witness_order"] == 1  # w = i * t^(1/2)
    assert sqrt_t.evidence["witness_square_matches"] is True
    infinity = run_claim("k3_lift_infinity", registry)
    assert infinity.verdict == "pass"
    # w^2 - (t^2 - t) = 0 exactly at the infinite place
    assert all(eq["status"] == "exact_zero" for eq in infinity.evidence["equations"])
    assert infinity.evidence["lift"] == "lifts"
    assert infinity.evidence["witness_square_matches"] is True
    assert sqrt_t.wall_time + infinity.wall_time < 1.0
    _announce(6, "k3_lift_sqrt_t and k3_lift_infinity")


def test_criterion_07_case_partition(registry):
    report = run_claim("lemma91_case_partition", registry)
    assert report.verdict == "pass"
    assert report.evidence["grid_points"] == 6 * 25 * 25
    assert report.evidence["violations"] == []
    _announce(7, "lemma91_case_partition")


def test_criterion_08_square_lift_property(registry):
    report = run_claim("lemma91_property", registry, samples=500, seed=DEFAULT_SEED)
    assert report.verdict == "pass"
    assert report.evidence["samples"] == 500
    assert report.evidence["counterexamples"] == []
    assert report.evidence["hypothesis_hits"] > 0
    assert report.wall_time < 30.0
    _announce(8, "lemma91_property (500 samples)")


def test_criterion_09_general_type_threshold(registry):
    report = run_claim("orbifold_gt_threshold", registry)
    assert report.verdict == "pass"
    assert report.evidence["failures"] == []
    assert report.wall_time < 1.0
    _announce(9, "orbifold_gt_threshold")


def test_criterion_10_semigroup_and_index_facts(registry):
    index_report = run_claim("index_facts", registry)
    assert index_report.verdict == "pass"
    assert profile_stats(MultiplicityProfile((2, 3))) == (2, 1, 1)
    assert forced_component(2, 3) is True
    semigroup_report = run_claim("semigroup_facts", registry)
    assert semigroup_report.verdict == "pass"
    # DP against brute-force enumeration on all 1- and 2-element generator
    # sets from {1..10}, membership up to 60
    def oracle(gens, m):
        frontier = {0}
        for a in gens:
            frontier = {s + a * k for s in frontier for k in range(m // a + 1) if s + a * k <= m}
        return m in frontier

    elapsed = index_report.wall_time + semigroup_report.wall_time
    for a in range(1, 11):
        for b in range(a, 11):
            gens = (a,) if a == b else (a, b)
            profile = MultiplicityProfile(gens)
            for m in range(61):
                assert semigroup_contains(profile, m) == oracle(gens, m)
    assert elapsed < 5.0
    _announce(10, "semigroup and index facts")


def test_criterion_11_perturbation_sweep(registry):
    report = run_claim("perturbation_sweep", registry)
    assert report.verdict == "pass"
    assert report.evidence["violations"] == []
    assert report.evidence["replacement"] == 7
    assert report.wall_time < 10.0
    _announce(11, "perturbation_sweep")


def _random_element(rng, tower, nonzero=False):
    while True:
        coords = tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(tower.dim)
        )
        element = FieldElement(tower, coords)
        if not nonzero or not element.is_zero():
            return element


def test_criterion_12_library_property_suites(registry):
    rng = random.Random(DEFAULT_SEED)
    golden = adjoin_quadratic(QQ, "alpha", -1, -1)
    gauss = adjoin_quadratic(QQ, "i", 0, 1)
    tall = adjoin_quadratic(golden, "beta", 0, golden.gen("alpha"))

    # field axioms: 1000 random triples per tower
    for tower in (QQ, golden, gauss, tall):
        for _ in range(1000):
            a = _random_element(rng, tower, nonzero=True)
            b = _random_element(rng, tower, nonzero=True)
            c = _random_element(rng, tower)
            assert (a * b) / a == b
            assert a + b == b + a and a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

    # square-root roundtrip: 100 random even-order series
    origin = Place.finite(QQ.zero(), 1)
    for _ in range(100):
        lead = 2 * rng.randint(-3, 3)
        terms = {lead: Fraction(rng.randint(1, 5)) ** 2}
        for offset in range(1, rng.randint(2, 6)):
            terms[lead + offset] = Fraction(rng.randint(-5, 5))
        series = PuiseuxSeries.from_terms(QQ, origin, terms, lead + 15)
        root = series_sqrt(series)
        assert (root * root).matches(series)

    # backend agreement: 200 random rational-function pairs
    for _ in range(200):
        def _rf():
            num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
            den = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 3))] + [
                Fraction(1)
            ]
            return RationalFunction.from_coeffs(QQ, origin, num) / (
                RationalFunction.from_coeffs(QQ, origin, den)
            )

        f, g = _rf(), _rf()
        fs, gs = f.to_puiseux(20), g.to_puiseux(20)
        assert (f + g).to_puiseux(20).matches(fs + gs)
        assert (f * g).to_puiseux(20).matches(fs * gs)
        if not g.is_zero():
            assert (f / g).to_puiseux(20).matches(fs / gs)

    # parser roundtrip on the full builtin corpus
    corpus = 0
    for claim in registry.values():
        if claim.system is not None:
            system = claim.system
            assert parse_system(print_system(system), system.tower) == system
            corpus += 1
    assert corpus >= 10
    _announce(12, "library property suites")
