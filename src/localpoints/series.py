"""Rational functions and truncated Puiseux series in one ramified local parameter.

Everything lives at a place: the substitution t = c + r^e (or t = 1/r^e at
infinity) turns fractional powers of t into integer powers of the parameter r.
The RationalFunction backend is exact and authoritative; PuiseuxSeries is the
truncated backend used for square-root expansions and sampling.  Both derive
from _Local and share one set of polynomial and power-series helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NotAPrefixError,
    PlaceMismatchError,
    PrecisionExhaustedError,
    ZeroFunctionError,
)
from .field_tower import (
    AlreadySplit,
    FieldElement,
    FieldTower,
    _power,
    adjoin_quadratic,
    embed,
    is_square,
)

DEFAULT_PRECISION = 40

Poly = tuple[FieldElement, ...]

Scalar = FieldElement | Fraction | int


# -- dense polynomial helpers (coefficients in one tower, index = degree) ------


def _trim(p: list[FieldElement]) -> Poly:
    while p and p[-1].is_zero():
        p.pop()
    return tuple(p)


def _padd(p: Poly, q: Poly, zero: FieldElement) -> Poly:
    out = [zero] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] = out[i] + a
    for i, a in enumerate(q):
        out[i] = out[i] + a
    return _trim(out)


def _pneg(p: Poly) -> Poly:
    return tuple(-a for a in p)


def _psub(p: Poly, q: Poly, zero: FieldElement) -> Poly:
    return _padd(p, _pneg(q), zero)


def _pmul(p: Poly, q: Poly, zero: FieldElement) -> Poly:
    if not p or not q:
        return ()
    if len(p) == 1:
        return _pscale(q, p[0])
    if len(q) == 1:
        return _pscale(p, q[0])
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _trim(out)


def _pscale(p: Poly, scalar: FieldElement) -> Poly:
    return _trim([a * scalar for a in p])


def _pdivmod(p: Poly, q: Poly, zero: FieldElement) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [zero] * max(0, len(p) - len(q) + 1)
    inv_lead = q[-1].inverse()
    for shift in range(len(p) - len(q), -1, -1):
        factor = rem[shift + len(q) - 1] * inv_lead
        if factor.is_zero():
            continue
        quot[shift] = factor
        for j, b in enumerate(q):
            rem[shift + j] = rem[shift + j] - factor * b
    return _trim(quot), _trim(rem)


def _pgcd(p: Poly, q: Poly, zero: FieldElement) -> Poly:
    while q:
        # keeping the divisor monic stops coefficient blow-up along the way
        q = _pscale(q, q[-1].inverse())
        _, rem = _pdivmod(p, q, zero)
        p, q = q, rem
    if p:
        p = _pscale(p, p[-1].inverse())
    return p


def _porder(p: Poly) -> int:
    for i, a in enumerate(p):
        if not a.is_zero():
            return i
    raise ZeroFunctionError("zero polynomial has no order")


def _pramify(p: Poly, k: int, zero: FieldElement) -> Poly:
    if not p or k == 1:
        return p
    out = [zero] * ((len(p) - 1) * k + 1)
    for i, a in enumerate(p):
        out[i * k] = a
    return tuple(out)


def _pembed(p: Poly, target: FieldTower) -> Poly:
    return tuple(embed(a, target) for a in p)


def _cross_cancel(num: Poly, den: Poly, zero: FieldElement) -> tuple[Poly, Poly]:
    """num and den, both divided by their monic gcd."""
    if len(num) < 2 or len(den) < 2:
        return num, den
    if any(sum(1 for a in p if not a.is_zero()) == 1 for p in (num, den)):
        # against a monomial the gcd is a power of r
        shift = min(_porder(num), _porder(den))
        return num[shift:], den[shift:]
    g = _pgcd(num, den, zero)
    if len(g) > 1:
        num, _ = _pdivmod(num, g, zero)
        den, _ = _pdivmod(den, g, zero)
    return num, den


def _series_quotient(num: Poly, den: Poly, nterms: int, zero: FieldElement) -> Poly:
    """The first nterms coefficients of the power series num/den, for den[0] != 0."""
    inv0 = den[0].inverse()
    out: list[FieldElement] = []
    for k in range(nterms):
        acc = num[k] if k < len(num) else zero
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[j] * out[k - j]
        out.append(acc * inv0)
    return tuple(out)


def _terms(p: Poly, exponent: int) -> list[str]:
    """The nonzero terms of p as text, p[0] being the coefficient of r^exponent."""
    parts = []
    for i, a in enumerate(p, start=exponent):
        if a.is_zero():
            continue
        coeff = str(a)
        if "+" in coeff or "-" in coeff[1:] or " " in coeff:
            coeff = f"({coeff})"
        if i == 0:
            parts.append(coeff)
        else:
            power = "r" if i == 1 else f"r^{i}"
            parts.append(power if coeff == "1" else f"{coeff}*{power}")
    return parts


def _pstr(p: Poly) -> str:
    return " + ".join(_terms(p, 0)) if p else "0"


# -- places --------------------------------------------------------------------


@dataclass(frozen=True)
class Place:
    """Substitution t = center + r^e, or t = 1/r^e when center is None."""

    center: FieldElement | None
    e: int = 1

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError("ramification index must be >= 1")

    @classmethod
    def finite(cls, center: FieldElement, e: int = 1) -> Place:
        return cls(center, e)

    @classmethod
    def at_infinity(cls, e: int = 1) -> Place:
        return cls(None, e)

    @property
    def is_infinity(self) -> bool:
        return self.center is None

    def ramified(self, k: int) -> Place:
        return Place(self.center, self.e * k)

    def same_locus(self, other: Place) -> bool:
        if self.e != other.e or self.is_infinity != other.is_infinity:
            return False
        if self.is_infinity:
            return True
        return self.center == other.center

    def __str__(self) -> str:
        if self.is_infinity:
            return f"t = 1/r^{self.e}"
        return f"t = {self.center} + r^{self.e}"


def _check_place(a: _Local, b: _Local) -> None:
    if not a.place.same_locus(b.place):
        raise PlaceMismatchError(f"places differ: {a.place} vs {b.place}")


def _join_tower(a: FieldTower, b: FieldTower) -> FieldTower:
    if a is b:
        return a
    if a.is_prefix_of(b):
        return b
    if b.is_prefix_of(a):
        return a
    raise NotAPrefixError(f"towers {a!r} and {b!r} are incomparable")


class _Local:
    """Base of RationalFunction and PuiseuxSeries: a value in a tower at a place.

    It owns what does not depend on the representation: coercion into a taller
    tower (_lift) and onto a common tower and place (_pair), the reflected
    operators, powers, the valuation, truth and repr.  A subclass supplies the
    constructor hooks _embedded (the same value over a taller tower) and
    _constant (a constant of its own tower, place and precision), together with
    is_zero, order_at_zero and the arithmetic itself.
    """

    __slots__ = ("tower", "place")

    tower: FieldTower
    place: Place

    def _lift(self, tower: FieldTower):
        if tower == self.tower:
            return self
        place = self.place
        if place.center is not None:
            place = Place(embed(place.center, tower), place.e)
        return self._embedded(tower, place)

    def _pair(self, other):
        if not isinstance(other, type(self)):
            tower = (
                _join_tower(self.tower, other.tower)
                if isinstance(other, FieldElement)
                else self.tower
            )
            lifted = self._lift(tower)
            return lifted, lifted._constant(other)
        tower = _join_tower(self.tower, other.tower)
        a, b = self._lift(tower), other._lift(tower)
        _check_place(a, b)
        return a, b

    def __rsub__(self, other: Scalar):
        return (-self) + other

    def __rtruediv__(self, other: Scalar):
        return self._constant(other) / self

    def _reciprocal(self):
        return 1 / self

    def __pow__(self, exponent: int):
        base = self
        if exponent < 0:
            base, exponent = self._reciprocal(), -exponent
        return _power(base, exponent, base._constant(1))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def valuation(self) -> Fraction:
        return Fraction(self.order_at_zero(), self.place.e)

    def __repr__(self) -> str:
        return f"<{self} at {self.place}>"


# -- exact backend ---------------------------------------------------------------


class RationalFunction(_Local):
    """Exact quotient of polynomials in the local parameter r.

    Normal form: numerator and denominator coprime, denominator monic.
    """

    __slots__ = ("num", "den")

    def __init__(self, tower: FieldTower, place: Place, num: Poly, den: Poly) -> None:
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        num = _trim(list(num))
        den = _trim(list(den))
        if num:
            shift = min(_porder(num), _porder(den))
            num, den = _cross_cancel(num[shift:], den[shift:], tower.zero())
            scale = den[-1].inverse()
            num = _pscale(num, scale)
            den = _pscale(den, scale)
        else:
            den = (tower.one(),)
        self.tower = tower
        self.place = place
        self.num = num
        self.den = den

    # -- constructors ----------------------------------------------------------

    @classmethod
    def constant(cls, tower: FieldTower, place: Place, value: Scalar) -> RationalFunction:
        return cls(tower, place, (tower.coerce(value),), (tower.one(),))

    @classmethod
    def zero(cls, tower: FieldTower, place: Place) -> RationalFunction:
        return cls(tower, place, (), (tower.one(),))

    @classmethod
    def from_coeffs(
        cls, tower: FieldTower, place: Place, coeffs: list[Scalar]
    ) -> RationalFunction:
        return cls(tower, place, tuple(tower.coerce(c) for c in coeffs), (tower.one(),))

    def is_zero(self) -> bool:
        return not self.num

    # -- constructor hooks -------------------------------------------------------

    def _embedded(self, tower: FieldTower, place: Place) -> RationalFunction:
        return RationalFunction(tower, place, _pembed(self.num, tower), _pembed(self.den, tower))

    def _constant(self, value: Scalar) -> RationalFunction:
        return RationalFunction.constant(self.tower, self.place, value)

    # -- arithmetic ---------------------------------------------------------------

    def _sum(self, other: RationalFunction | Scalar, combine) -> RationalFunction:
        a, b = self._pair(other)
        zero = a.tower.zero()
        if a.den == b.den:
            return RationalFunction(a.tower, a.place, combine(a.num, b.num, zero), a.den)
        num = combine(_pmul(a.num, b.den, zero), _pmul(b.num, a.den, zero), zero)
        return RationalFunction(a.tower, a.place, num, _pmul(a.den, b.den, zero))

    def __add__(self, other: RationalFunction | Scalar) -> RationalFunction:
        return self._sum(other, _padd)

    __radd__ = __add__

    def __sub__(self, other: RationalFunction | Scalar) -> RationalFunction:
        return self._sum(other, _psub)

    def __neg__(self) -> RationalFunction:
        # -num/den is already in normal form: build it without __init__'s gcd
        negated = object.__new__(RationalFunction)
        negated.tower, negated.place = self.tower, self.place
        negated.num, negated.den = _pneg(self.num), self.den
        return negated

    def __mul__(self, other: RationalFunction | Scalar) -> RationalFunction:
        a, b = self._pair(other)
        zero = a.tower.zero()
        # cancel across the two fractions first so the final gcd stays small
        num_a, den_b = _cross_cancel(a.num, b.den, zero)
        num_b, den_a = _cross_cancel(b.num, a.den, zero)
        return RationalFunction(
            a.tower, a.place, _pmul(num_a, num_b, zero), _pmul(den_a, den_b, zero)
        )

    __rmul__ = __mul__

    def __truediv__(self, other: RationalFunction | Scalar) -> RationalFunction:
        a, b = self._pair(other)
        if b.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        zero = a.tower.zero()
        num_a, num_b = _cross_cancel(a.num, b.num, zero)
        den_a, den_b = _cross_cancel(a.den, b.den, zero)
        return RationalFunction(
            a.tower, a.place, _pmul(num_a, den_b, zero), _pmul(den_a, num_b, zero)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RationalFunction, FieldElement, Fraction, int)):
            return NotImplemented
        try:
            a, b = self._pair(other)
        except (NotAPrefixError, PlaceMismatchError):
            return False
        zero = a.tower.zero()
        return _psub(_pmul(a.num, b.den, zero), _pmul(b.num, a.den, zero), zero) == ()

    def __hash__(self) -> int:
        return hash((self.tower, self.num, self.den))

    # -- local data ----------------------------------------------------------------

    def order_at_zero(self) -> int:
        """Order of vanishing at r = 0; the t-adic valuation is this over e."""
        if self.is_zero():
            raise ZeroFunctionError("the zero function has no order")
        return _porder(self.num) - _porder(self.den)

    def leading_coefficient(self) -> FieldElement:
        return self.num[_porder(self.num)] / self.den[_porder(self.den)]

    def ramify(self, k: int) -> RationalFunction:
        """Substitute r -> r^k, multiplying every order by k."""
        if k < 1:
            raise ValueError("ramification factor must be >= 1")
        zero = self.tower.zero()
        return RationalFunction(
            self.tower,
            self.place.ramified(k),
            _pramify(self.num, k, zero),
            _pramify(self.den, k, zero),
        )

    def to_puiseux(self, precision: int = DEFAULT_PRECISION) -> PuiseuxSeries:
        """Expand at r = 0, agreeing with the exact function modulo r^precision."""
        if self.is_zero():
            return PuiseuxSeries.zero(self.tower, self.place, precision)
        a = _porder(self.num)
        b = _porder(self.den)
        lead = a - b
        nterms = precision - lead
        if nterms <= 0:
            return PuiseuxSeries.zero(self.tower, self.place, precision)
        coeffs = _series_quotient(self.num[a:], self.den[b:], nterms, self.tower.zero())
        return PuiseuxSeries(self.tower, self.place, lead, coeffs, precision)

    def __str__(self) -> str:
        if self.den == (self.tower.one(),):
            return _pstr(self.num)
        return f"({_pstr(self.num)}) / ({_pstr(self.den)})"


def r_function(tower: FieldTower, place: Place) -> RationalFunction:
    """The local parameter r as a rational function."""
    return RationalFunction(tower, place, (tower.zero(), tower.one()), (tower.one(),))


def t_function(tower: FieldTower, place: Place) -> RationalFunction:
    """The global coordinate t expanded at the place: center + r^e, or 1/r^e."""
    one = tower.one()
    zero = tower.zero()
    monomial = tuple([zero] * place.e + [one])
    if place.is_infinity:
        return RationalFunction(tower, place, (one,), monomial)
    center = embed(place.center, tower)
    num = [zero] * (place.e + 1)
    num[0] = center
    num[place.e] = one
    return RationalFunction(tower, place, tuple(num), (one,))


# -- truncated backend -----------------------------------------------------------


class PuiseuxSeries(_Local):
    """Truncated Laurent series in r, known modulo r^precision.

    coeffs[0] is nonzero unless the series is zero to precision (empty coeffs,
    in which case lead == precision by convention).
    """

    __slots__ = ("lead", "coeffs", "precision")

    def __init__(
        self,
        tower: FieldTower,
        place: Place,
        lead: int,
        coeffs: Poly,
        precision: int,
    ) -> None:
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            lead += 1
        if lead + len(coeffs) > precision:
            coeffs = coeffs[: max(0, precision - lead)]
        self.tower = tower
        self.place = place
        self.coeffs = _trim(coeffs)
        self.lead = lead if self.coeffs else precision
        self.precision = precision

    @classmethod
    def zero(cls, tower: FieldTower, place: Place, precision: int = DEFAULT_PRECISION) -> PuiseuxSeries:
        return cls(tower, place, precision, (), precision)

    @classmethod
    def constant(
        cls, tower: FieldTower, place: Place, value: Scalar, precision: int = DEFAULT_PRECISION
    ) -> PuiseuxSeries:
        return cls(tower, place, 0, (tower.coerce(value),), precision)

    @classmethod
    def from_terms(
        cls,
        tower: FieldTower,
        place: Place,
        terms: dict[int, Scalar],
        precision: int = DEFAULT_PRECISION,
    ) -> PuiseuxSeries:
        if not terms:
            return cls.zero(tower, place, precision)
        lead = min(terms)
        top = max(terms)
        coeffs = [tower.zero()] * (top - lead + 1)
        for exponent, value in terms.items():
            coeffs[exponent - lead] = tower.coerce(value)
        return cls(tower, place, lead, tuple(coeffs), precision)

    def is_zero(self) -> bool:
        return not self.coeffs

    def order_at_zero(self) -> int:
        if self.is_zero():
            raise ZeroFunctionError("series is zero to precision")
        return self.lead

    def leading_coefficient(self) -> FieldElement:
        if self.is_zero():
            raise ZeroFunctionError("series is zero to precision")
        return self.coeffs[0]

    def coefficient(self, exponent: int) -> FieldElement:
        if exponent >= self.precision:
            raise PrecisionExhaustedError(f"coefficient of r^{exponent} beyond precision")
        index = exponent - self.lead
        if 0 <= index < len(self.coeffs):
            return self.coeffs[index]
        return self.tower.zero()

    def truncate(self, precision: int) -> PuiseuxSeries:
        precision = min(precision, self.precision)
        return PuiseuxSeries(self.tower, self.place, self.lead, self.coeffs, precision)

    # -- constructor hooks ----------------------------------------------------------

    def _embedded(self, tower: FieldTower, place: Place) -> PuiseuxSeries:
        return PuiseuxSeries(tower, place, self.lead, _pembed(self.coeffs, tower), self.precision)

    def _constant(self, value: Scalar) -> PuiseuxSeries:
        return PuiseuxSeries.constant(self.tower, self.place, value, self.precision)

    # -- arithmetic -------------------------------------------------------------------

    def __add__(self, other: PuiseuxSeries | Scalar) -> PuiseuxSeries:
        a, b = self._pair(other)
        precision = min(a.precision, b.precision)
        if a.is_zero() and b.is_zero():
            return PuiseuxSeries.zero(a.tower, a.place, precision)
        lead = min(a.lead, b.lead)
        size = precision - lead
        zero = a.tower.zero()
        out = [zero] * size
        for series in (a, b):
            for i, coeff in enumerate(series.coeffs):
                pos = series.lead + i - lead
                if pos < size:
                    out[pos] = out[pos] + coeff
        return PuiseuxSeries(a.tower, a.place, lead, tuple(out), precision)

    __radd__ = __add__

    def __neg__(self) -> PuiseuxSeries:
        return PuiseuxSeries(self.tower, self.place, self.lead, _pneg(self.coeffs), self.precision)

    def __sub__(self, other: PuiseuxSeries | Scalar) -> PuiseuxSeries:
        a, b = self._pair(other)
        return a + (-b)

    def __mul__(self, other: PuiseuxSeries | Scalar) -> PuiseuxSeries:
        a, b = self._pair(other)
        precision = min(a.precision + b.lead, b.precision + a.lead)
        if a.is_zero() or b.is_zero():
            return PuiseuxSeries.zero(a.tower, a.place, precision)
        lead = a.lead + b.lead
        if precision <= lead:
            raise PrecisionExhaustedError("product has no known coefficients")
        size = precision - lead
        zero = a.tower.zero()
        out = [zero] * size
        for i, ca in enumerate(a.coeffs):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b.coeffs):
                if i + j < size:
                    out[i + j] = out[i + j] + ca * cb
        return PuiseuxSeries(a.tower, a.place, lead, tuple(out), precision)

    __rmul__ = __mul__

    def inverse(self) -> PuiseuxSeries:
        if self.is_zero():
            raise PrecisionExhaustedError("inverting a series that is zero to precision")
        coeffs = _series_quotient(
            (self.tower.one(),), self.coeffs, self.precision - self.lead, self.tower.zero()
        )
        return PuiseuxSeries(
            self.tower, self.place, -self.lead, coeffs, self.precision - 2 * self.lead
        )

    # for a negative lead, 1/self would know fewer terms than the inverse does
    _reciprocal = inverse

    def __truediv__(self, other: PuiseuxSeries | Scalar) -> PuiseuxSeries:
        a, b = self._pair(other)
        if b.is_zero():
            raise PrecisionExhaustedError("division by a series that is zero to precision")
        precision = min(a.precision - b.lead, b.precision - 2 * b.lead + a.lead)
        if a.is_zero():
            return PuiseuxSeries.zero(a.tower, a.place, precision)
        lead = a.lead - b.lead
        nterms = precision - lead
        if nterms <= 0:
            raise PrecisionExhaustedError("quotient has no known coefficients")
        coeffs = _series_quotient(a.coeffs, b.coeffs, nterms, a.tower.zero())
        return PuiseuxSeries(a.tower, a.place, lead, coeffs, precision)

    def ramify(self, k: int) -> PuiseuxSeries:
        """Substitute r -> r^k; lossless on truncated series."""
        if k < 1:
            raise ValueError("ramification factor must be >= 1")
        zero = self.tower.zero()
        return PuiseuxSeries(
            self.tower,
            self.place.ramified(k),
            self.lead * k,
            _pramify(self.coeffs, k, zero),
            self.precision * k,
        )

    def matches(self, other: PuiseuxSeries) -> bool:
        """Agreement of all coefficients known to both series."""
        a, b = self._pair(other)
        precision = min(a.precision, b.precision)
        low = min(
            a.lead if not a.is_zero() else precision,
            b.lead if not b.is_zero() else precision,
        )
        for exponent in range(low, precision):
            if a.coefficient(exponent) != b.coefficient(exponent):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (
            self.tower == other.tower
            and self.place.same_locus(other.place)
            and self.lead == other.lead
            and self.coeffs == other.coeffs
            and self.precision == other.precision
        )

    def __hash__(self) -> int:
        return hash((self.tower, self.lead, self.coeffs, self.precision))

    def __str__(self) -> str:
        return " + ".join(_terms(self.coeffs, self.lead) + [f"O(r^{self.precision})"])


# -- square roots and local squareness ---------------------------------------------


def _fresh_root_name(tower: FieldTower) -> str:
    k = 1
    while f"rt{k}" in tower.generator_names:
        k += 1
    return f"rt{k}"


def series_sqrt(f: PuiseuxSeries) -> tuple[PuiseuxSeries, FieldTower]:
    """Square root of a truncated series by Newton iteration.

    Odd leading order doubles the ramification first; a leading coefficient
    that is not a known square gets its root adjoined to the tower.  Returns
    the root together with the (possibly extended) tower.
    """
    if f.is_zero():
        raise ZeroFunctionError("square root of a series that is zero to precision")
    if f.lead % 2:
        f = f.ramify(2)
    half_lead = f.lead // 2
    tower = f.tower
    lead_coeff = f.coeffs[0]

    # Newton on the unit part stays in the original tower; only the root of the
    # leading coefficient may live in an extension.  Iterates are exact
    # polynomials, so each step can widen its working precision; the number of
    # correct terms doubles per step.
    relative = f.precision - f.lead
    inv_lead = lead_coeff.inverse()
    unit = PuiseuxSeries(tower, f.place, 0, _pscale(f.coeffs, inv_lead), relative)
    precisions: list[int] = []
    p = relative
    while p > 1:
        precisions.append(p)
        p = (p + 1) // 2
    g = PuiseuxSeries.constant(tower, f.place, 1, 1)
    for p in reversed(precisions):
        widened = PuiseuxSeries(tower, f.place, 0, g.coeffs, p)
        g = (widened + unit.truncate(p) / widened) * Fraction(1, 2)

    check = is_square(tower, lead_coeff)
    if check.kind == "yes":
        root_of_lead = check.witness
    else:
        extended = adjoin_quadratic(tower, _fresh_root_name(tower), 0, -lead_coeff)
        assert not isinstance(extended, AlreadySplit)
        tower = extended
        g = g._lift(tower)
        root_of_lead = tower.gen(tower.generator_names[-1])
    result = PuiseuxSeries(
        tower,
        f.place,
        half_lead,
        _pscale(g.coeffs, root_of_lead),
        half_lead + relative,
    )
    return result, tower


@dataclass(frozen=True)
class LocalSquareCheck:
    """Squareness verdict in the local field, with the valuation certificate."""

    kind: str  # "yes" | "no" | "undecided"
    order: int
    lead: FieldElement


def is_square_local(
    f: RationalFunction | PuiseuxSeries, mode: str = "over_c"
) -> LocalSquareCheck:
    """Squareness of a nonzero local element.

    over_c: squares are exactly the even-order elements (the residue field is
    algebraically closed).  exact: even order and a leading coefficient that is
    a square in the coefficient tower; undecidable leading coefficients
    propagate as "undecided".
    """
    if mode not in ("over_c", "exact"):
        raise ValueError(f"unknown squareness mode {mode!r}")
    if f.is_zero():
        raise ZeroFunctionError("squareness of the zero function is undefined")
    order = f.order_at_zero()
    lead = f.leading_coefficient()
    if order % 2:
        return LocalSquareCheck("no", order, lead)
    if mode == "over_c":
        return LocalSquareCheck("yes", order, lead)
    check = is_square(f.tower, lead)
    return LocalSquareCheck(check.kind, order, lead)
