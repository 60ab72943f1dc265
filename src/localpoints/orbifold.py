"""Orbifold curves, fibre multiplicity profiles, and the semigroup calculus.

An orbifold curve is a genus and the multiplicities of its marked points,
each in {1, 2, ...} or infinity; its degree is 2g - 2 + sum(1 - 1/m) with an
infinite mark contributing 1.  A multiplicity profile holds the component
multiplicities of a degenerate fibre; its nonnegative integer combinations
are the degrees over which local points can exist.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .records import Record


class _InfiniteMultiplicity:
    """Distinguished infinite mark, not an integer sentinel."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = _InfiniteMultiplicity()


def _check_marks(values) -> None:
    """Each mark is a positive int or INF: one test per plain positive int."""
    for m in values:
        if type(m) is int and m >= 1 or m is INF:
            continue
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"multiplicity must be a positive integer or inf, got {m!r}")


class OrbifoldCurve(Record):
    __slots__ = _fields = ("genus", "multiplicities")

    def __init__(self, genus: int, multiplicities) -> None:
        multiplicities = tuple(multiplicities)
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        _check_marks(multiplicities)
        self.genus = genus
        self.multiplicities = multiplicities

    @classmethod
    def from_multiplicities(cls, genus: int, multiplicities) -> OrbifoldCurve:
        return cls(genus, multiplicities)

    def __str__(self) -> str:
        inside = ", ".join(str(m) for m in self.multiplicities)
        return f"(genus {self.genus}; [{inside}])"


def degree(curve: OrbifoldCurve) -> Fraction:
    """2g - 2 + sum of (1 - 1/m); an infinite mark contributes exactly 1.

    Exact: with L the lcm of the finite marks (1 when there are none), the
    sum is the integer (2g - 2 + n) L - sum of L/m over n marks, over L.
    """
    marks = curve.multiplicities
    finite = [m for m in marks if m is not INF]
    common = lcm(*finite)
    numerator = (2 * curve.genus - 2 + len(marks)) * common
    return Fraction(numerator - sum(map(common.__floordiv__, finite)), common)


def is_general_type(curve: OrbifoldCurve) -> bool:
    return degree(curve) > 0


def pullback_half_marks(genus: int, cover_degree: int) -> OrbifoldCurve:
    """Orbifold base for a pullback unramified over the marked point:
    d marks of multiplicity two on a genus-g curve.

    That the marks have multiplicity exactly two is an input fact about the
    fibration being pulled back, consumed here as an axiom.
    """
    if cover_degree < 1:
        raise ValueError("cover degree must be >= 1")
    return OrbifoldCurve(genus, [2] * cover_degree)


def perturb_finite(curve: OrbifoldCurve, replacement: int = 7) -> OrbifoldCurve:
    """Replace every infinite multiplicity by a finite one (default 7).

    Support and finite multiplicities are unchanged, so the result is a
    finite perturbation of the input.
    """
    if replacement < 2:
        raise ValueError("replacement multiplicity must be >= 2 to stay an orbifold mark")
    marks = [replacement if m is INF else m for m in curve.multiplicities]
    return OrbifoldCurve(curve.genus, marks)


class MultiplicityProfile(Record):
    __slots__ = _fields = ("generators",)

    def __init__(self, generators: tuple[int, ...]) -> None:
        if not generators:
            raise ValueError("a profile needs at least one multiplicity")
        for a in generators:
            if not isinstance(a, int) or a < 1:
                raise ValueError(f"multiplicities are positive integers, got {a!r}")
        self.generators = generators

    def __str__(self) -> str:
        return "[" + ", ".join(str(a) for a in sorted(self.generators)) + "]"


def profile_stats(profile: MultiplicityProfile) -> tuple[int, int, int]:
    """(inf-multiplicity, gcd-multiplicity, index).

    The index equals the gcd of the multiplicities; the fibre is inf-multiple
    iff the minimum is >= 2 and divisible iff the gcd is >= 2.
    """
    gcd_mult = gcd(*profile.generators)
    return min(profile.generators), gcd_mult, gcd_mult


def semigroup_contains(profile: MultiplicityProfile, m: int) -> bool:
    """Is m a nonnegative integer combination of the generators?"""
    if m < 0:
        raise ValueError("membership is asked of nonnegative integers")
    # bit k of reachable says k is a combination of the generators so far; the
    # shifts by a, 2a, 4a, ... <= m add every multiple of a up to m
    mask = (1 << (m + 1)) - 1
    reachable = 1
    for a in profile.generators:
        shift = a
        while shift <= m:
            reachable |= (reachable << shift) & mask
            shift <<= 1
    return bool(reachable >> m & 1)


def forced_component(a: int, m: int) -> bool:
    """With minimal multiplicity a and a local point of degree m, must a
    component of multiplicity m itself be present?

    True exactly when a < m < 2a: in that window m cannot be a nontrivial
    combination of multiplicities that are all >= a.  The existence of the
    degree-m local point is the caller's premise, not checked here.
    """
    if a < 1 or m < 1:
        raise ValueError("arguments must be positive")
    return a < m < 2 * a
