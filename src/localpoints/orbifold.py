"""Orbifold curves, fibre multiplicity profiles, and the semigroup calculus.

An orbifold curve is a genus plus marked points with multiplicities in
{1, 2, ...} or infinity; its degree is 2g - 2 + sum(1 - 1/m) with an infinite
mark contributing 1.  A multiplicity profile holds the component
multiplicities of a degenerate fibre; its nonnegative integer combinations
are the degrees over which local points can exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


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

Multiplicity = int | _InfiniteMultiplicity


def _check_multiplicity(m: Multiplicity) -> None:
    if isinstance(m, _InfiniteMultiplicity):
        return
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"multiplicity must be a positive integer or inf, got {m!r}")


@lru_cache(maxsize=64)
def _labels(count: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(1, count + 1))


@dataclass(frozen=True)
class OrbifoldCurve:
    genus: int
    marks: tuple[tuple[str, Multiplicity], ...]

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        labels = [label for label, _ in self.marks]
        if len(set(labels)) != len(labels):
            raise ValueError("mark labels must be distinct")
        for _, m in self.marks:
            _check_multiplicity(m)

    @classmethod
    def from_multiplicities(cls, genus: int, multiplicities) -> OrbifoldCurve:
        """The curve with marks p1, p2, ... of these multiplicities.

        The labels are distinct by construction, so this checks only the genus
        and the marks, with the constructor's checks and messages.
        """
        values = tuple(multiplicities)
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        for m in values:
            _check_multiplicity(m)
        curve = object.__new__(cls)
        object.__setattr__(curve, "genus", genus)
        object.__setattr__(curve, "marks", tuple(zip(_labels(len(values)), values)))
        return curve

    @property
    def multiplicities(self) -> tuple[Multiplicity, ...]:
        return tuple(m for _, m in self.marks)

    def __str__(self) -> str:
        inside = ", ".join(str(m) for m in self.multiplicities)
        return f"(genus {self.genus}; [{inside}])"


def degree(curve: OrbifoldCurve) -> Fraction:
    """2g - 2 + sum of (1 - 1/m); an infinite mark contributes exactly 1.

    Exact: with L the lcm of the finite marks (1 when there are none), the
    sum is the integer (2g - 2 + n) L - sum of L/m over n marks, over L.
    """
    finite = [m for _, m in curve.marks if not isinstance(m, _InfiniteMultiplicity)]
    common = lcm(*finite)
    numerator = (2 * curve.genus - 2 + len(curve.marks)) * common
    return Fraction(numerator - sum(common // m for m in finite), common)


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
    return OrbifoldCurve.from_multiplicities(genus, [2] * cover_degree)


def perturb_finite(curve: OrbifoldCurve, replacement: int = 7) -> OrbifoldCurve:
    """Replace every infinite multiplicity by a finite one (default 7).

    Support and finite multiplicities are unchanged, so the result is a
    finite perturbation of the input.
    """
    if replacement < 2:
        raise ValueError("replacement multiplicity must be >= 2 to stay an orbifold mark")
    marks = tuple(
        (label, replacement if isinstance(m, _InfiniteMultiplicity) else m)
        for label, m in curve.marks
    )
    return OrbifoldCurve(curve.genus, marks)


@dataclass(frozen=True)
class MultiplicityProfile:
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("a profile needs at least one multiplicity")
        for a in self.generators:
            if not isinstance(a, int) or a < 1:
                raise ValueError(f"multiplicities are positive integers, got {a!r}")

    def __str__(self) -> str:
        return "[" + ", ".join(str(a) for a in sorted(self.generators)) + "]"


def profile_stats(profile: MultiplicityProfile) -> tuple[int, int, int]:
    """(inf-multiplicity, gcd-multiplicity, index).

    The index equals the gcd of the multiplicities; the fibre is inf-multiple
    iff the minimum is >= 2 and divisible iff the gcd is >= 2.
    """
    inf_mult = min(profile.generators)
    gcd_mult = 0
    for a in profile.generators:
        gcd_mult = gcd(gcd_mult, a)
    return inf_mult, gcd_mult, gcd_mult


def semigroup_contains(profile: MultiplicityProfile, m: int) -> bool:
    """Is m a nonnegative integer combination of the generators?"""
    if m < 0:
        raise ValueError("membership is asked of nonnegative integers")
    reachable = [False] * (m + 1)
    reachable[0] = True
    for k in range(1, m + 1):
        for a in profile.generators:
            if a <= k and reachable[k - a]:
                reachable[k] = True
                break
    return reachable[m]


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
