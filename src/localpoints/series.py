"""Rational functions and truncated Puiseux series in one ramified local parameter.

Everything lives at a place: the substitution t = c + r^e (or t = 1/r^e at
infinity) turns fractional powers of t into integer powers of the parameter r.
A value never leaves its place: the RationalFunction backend is exact and
authoritative; PuiseuxSeries is the truncated backend, used for truncated-mode
evaluation and for the square roots of even-order series (series_sqrt).  Both
derive from _Local and share one set of polynomial and power-series helpers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (
    PlaceMismatchError,
    PrecisionExhaustedError,
    ZeroFunctionError,
)
from .field_tower import (
    FieldElement,
    FieldTower,
    Nums,
    _dot,
    _is_one,
    _join_tower,
    _mul,
    _normal,
    _power,
    _residue_map,
    _sum,
    adjoin_quadratic,
    embed,
)
from .records import Record

DEFAULT_PRECISION = 40

Poly = tuple[FieldElement, ...]

Scalar = FieldElement | Fraction | int


# -- dense polynomial helpers (coefficients in one tower, index = degree) ------


def _trim(p: list[FieldElement]) -> Poly:
    while p and p[-1].is_zero():
        p.pop()
    return tuple(p)


def _psum(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign*q, for sign 1 or -1: a copy of the longer operand, into which only
    the nonzero coefficients of the other are added."""
    if len(p) < len(q):
        # p + sign*q = (sign*q) + p
        p, q, sign = (q if sign == 1 else _pneg(q)), p, 1
    out = list(p)
    for i, a in enumerate(q):
        if any(a.nums):
            b = out[i]
            if any(b.nums):
                out[i] = _sum(b, a, sign)
            else:
                out[i] = a if sign == 1 else -a
    return _trim(out)


def _pneg(p: Poly) -> Poly:
    return tuple(-a for a in p)


def _pmul(p: Poly, q: Poly, zero: FieldElement) -> Poly:
    """p * q: _convolve's sparse products, one normalisation per output coefficient."""
    if not p or not q:
        return ()
    if len(p) == 1:
        return _pscale(q, p[0])
    if len(q) == 1:
        return _pscale(p, q[0])
    return _trim(_convolve(p, q, len(p) + len(q) - 1, zero.tower))


def _integer_terms(p: Poly, size: int, height: int) -> tuple[list[tuple[int, int | Nums]], int]:
    """([(i, v), ...], d): the nonzero coefficients p[i] = v/d of p[:size] over one
    common denominator d, the layout of FLINT's fmpq_poly; v is an int at height 0,
    else an integer vector."""
    p = p[:size]
    den = lcm(*[a.den for a in p])  # a zero coefficient has den 1
    if not height:
        return [(i, a.nums[0] * (den // a.den)) for i, a in enumerate(p) if a.nums[0]], den
    return [(i, a.nums if a.den == den else [x * (den // a.den) for x in a.nums])
            for i, a in enumerate(p) if any(a.nums)], den


def _convolve(p: Poly, q: Poly, size: int, tower: FieldTower) -> list[FieldElement]:
    """The coefficients k < size of p * q.

    Each factor is brought to one common denominator, and only pairs of
    nonzero coefficients are multiplied, as integer vectors (field_tower._mul,
    a plain int product at height 0), into the integer sum of their slot
    i + j; a row stops at the first j with i + j >= size.  Each slot is then
    normalised once.
    """
    levels = tower._levels
    height = len(levels)
    p_terms, p_den = _integer_terms(p, size, height)
    q_terms, q_den = _integer_terms(q, size, height)
    den = tower._scale * p_den * q_den
    zero = tower._zero
    if not height:
        sums = [0] * size
        for i, x in p_terms:
            for j, y in q_terms:
                if i + j >= size:
                    break
                sums[i + j] += x * y
        return [_normal(tower, [s], den) if s else zero for s in sums]
    acc: list[list[int] | None] = [None] * size
    for i, x in p_terms:
        for j, y in q_terms:
            slot = i + j
            if slot >= size:
                break
            v = _mul(x, y, levels, height)
            s = acc[slot]
            acc[slot] = v if s is None else [a + b for a, b in zip(s, v)]
    return [zero if s is None else _normal(tower, s, den) for s in acc]


def _pscale(p: Poly, scalar: FieldElement) -> Poly:
    """scalar * p, trimmed, multiplying only the nonzero coefficients."""
    if _is_one(scalar):
        return p if not p or any(p[-1].nums) else _trim(list(p))
    return _trim([a * scalar if any(a.nums) else a for a in p])


def _pdivmod(p: Poly, q: Poly, zero: FieldElement) -> tuple[Poly, Poly]:
    """(quotient, remainder) of p by nonzero q: each step subtracts factor * b per nonzero b."""
    rem = list(p)
    quot = [zero] * max(0, len(p) - len(q) + 1)
    inv_lead = q[-1].inverse()
    top = len(q) - 1
    terms = [(j, b) for j, b in enumerate(q) if any(b.nums)]
    for shift in range(len(p) - len(q), -1, -1):
        factor = rem[shift + top] * inv_lead
        if factor.is_zero():
            continue
        quot[shift] = factor
        for j, b in terms:
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


def _pembed(p: Poly, target: FieldTower) -> Poly:
    return tuple(embed(a, target) for a in p)


def _residues(p: Poly, prime: int, monomials: tuple[int, ...]) -> list[int] | None:
    """The image of p in F_prime[r] under a tower's residue map, or None.

    None when prime divides a coefficient's den or the leading coefficient maps to 0.
    """
    out = []
    for a in p:
        den = a.den % prime
        if not den:
            return None
        out.append(sum(x * m for x, m in zip(a.nums, monomials)) * pow(den, -1, prime) % prime)
    return out if out[-1] else None


def _coprime_mod_p(num: Poly, den: Poly, zero: FieldElement) -> bool:
    """True only if num and den are coprime; False means "not shown", not "common factor".

    Brown's certificate (W. S. Brown, JACM 18(4), 1971): map both into F_p[r]
    by the tower's residue map.  When both leading coefficients survive, the
    roots of a monic common factor over the tower are roots of num over its
    leading coefficient, a monic polynomial over the ring the map is defined
    on.  So its coefficients are integral over that ring, the map extends to
    them (into a finite extension of F_p), and the factor's image divides
    both images.  Images coprime in F_p[r] therefore prove num and den coprime.
    """
    residue = _residue_map(zero.tower)
    if residue is None:
        return False
    f, g = (_residues(poly, *residue) for poly in (num, den))
    if f is None or g is None:
        return False
    prime = residue[0]
    while g:
        # f <- f mod g
        inv_lead = pow(g[-1], -1, prime)
        while len(f) >= len(g):
            factor = f.pop() * inv_lead % prime
            shift = len(f) - len(g) + 1
            for j, b in enumerate(g[:-1]):
                f[shift + j] = (f[shift + j] - factor * b) % prime
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) == 1


def _cross_cancel(num: Poly, den: Poly, zero: FieldElement) -> tuple[Poly, Poly]:
    """num and den divided by a common factor that leaves them coprime, up to
    one constant they share; only their ratio is defined.

    A monomial operand cancels a power of r; otherwise the modular certificate
    (_coprime_mod_p) proves most pairs coprime.  When it fails, the longer
    operand is divided by the shorter one once.  A zero remainder makes the
    shorter one the gcd, up to a constant, and the quotient is the answer;
    otherwise Euclid's algorithm goes on from that remainder (Knuth, TAOCP
    vol. 2, 4.6.1) and both operands are divided by the gcd.
    """
    if len(num) < 2 or len(den) < 2:
        return num, den
    if not any(any(a.nums) for a in num[:-1]) or not any(any(a.nums) for a in den[:-1]):
        # one of them has no nonzero coefficient below its leading one: against
        # a monomial the gcd is a power of r
        shift = min(_porder(num), _porder(den))
        return num[shift:], den[shift:]
    if _coprime_mod_p(num, den, zero):
        return num, den
    swapped = len(num) < len(den)
    longer, shorter = (den, num) if swapped else (num, den)
    quot, rem = _pdivmod(longer, shorter, zero)
    if not rem:
        one = (zero.tower.one(),)
        return (one, quot) if swapped else (quot, one)
    g = _pgcd(shorter, rem, zero)
    if len(g) > 1:
        num, _ = _pdivmod(num, g, zero)
        den, _ = _pdivmod(den, g, zero)
    return num, den


def _series_quotient(num: Poly, den: Poly, nterms: int, zero: FieldElement) -> Poly:
    """The first nterms coefficients of the power series num/den, for den[0] != 0.

    Each out[k] = num[k]/den[0] - sum(den[j]/den[0] * out[k - j], j >= 1) is
    one multiply-accumulate (field_tower._dot), so one normalisation.  The
    pairs (j, -den[j]/den[0]) are worked out once, for the nonzero den[j] only.
    With none, den is a constant: the quotient is num/den[0], padded with zeros.
    """
    tower = zero.tower
    inv0 = den[0].inverse()
    shifts = [j for j in range(1, len(den)) if any(den[j].nums)]
    if not shifts:
        head = _pscale(num[:nterms], inv0)
        return head + (zero,) * (nterms - len(head))
    factors = [-(den[j] * inv0) for j in shifts]
    out: list[FieldElement] = []
    used = 0  # the shifts j <= k
    for k in range(nterms):
        if used < len(shifts) and shifts[used] <= k:
            used += 1
        first = num[k] if k < len(num) else zero
        out.append(_dot(tower, [first, *factors[:used]],
                        [inv0, *[out[k - j] for j in shifts[:used]]]))
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


class Place(Record):
    """Substitution t = center + r^e, or t = 1/r^e when center is None."""

    __slots__ = _fields = ("center", "e")

    def __init__(self, center: FieldElement | None, e: int = 1) -> None:
        if e < 1:
            raise ValueError("ramification index must be >= 1")
        self.center = center
        self.e = e

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

    def __str__(self) -> str:
        if self.is_infinity:
            return f"t = 1/r^{self.e}"
        return f"t = {self.center} + r^{self.e}"


def _check_place(a: _Local, b: _Local) -> None:
    if a.place is not b.place and a.place != b.place:
        raise PlaceMismatchError(f"places differ: {a.place} vs {b.place}")


class _Local:
    """Base of RationalFunction and PuiseuxSeries: a value in a tower at a place.

    It owns what does not depend on the representation: coercion into a taller
    tower (_lift) and onto a common tower and place (_pair), + and - and the
    reflected operators, powers, the valuation, truth and repr.  A subclass
    supplies the constructor hooks _embedded (the same value over a taller
    tower) and _constant (a constant of its own tower, place and precision),
    together with is_zero, order_at_zero and the arithmetic itself: _sum
    (self + sign*other), negation, products and quotients.
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

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other: Scalar):
        return (-self) + other

    def __rtruediv__(self, other: Scalar):
        return self._constant(other) / self

    def _reciprocal(self):
        return 1 / self

    def __pow__(self, exponent: int):
        if exponent == 0:
            return self._constant(1)
        return _power(self._reciprocal() if exponent < 0 else self, abs(exponent))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def valuation(self) -> Fraction:
        return Fraction(self.order_at_zero(), self.place.e)

    def __repr__(self) -> str:
        return f"<{self} at {self.place}>"


# -- exact backend ---------------------------------------------------------------


def _monic(num: Poly, den: Poly, one: FieldElement) -> tuple[Poly, Poly]:
    """num/den with den made monic, for coprime num and nonzero den; 0 is 0/1."""
    if not num:
        return num, (one,)
    lead = den[-1]
    if _is_one(lead):
        return num, den
    scale = lead.inverse()
    return _pscale(num, scale), _pscale(den, scale)


class RationalFunction(_Local):
    """Exact quotient of polynomials in the local parameter r.

    Normal form: numerator and denominator coprime, denominator monic.  It is
    unique, so equality and hashing compare num and den.  The constructor
    proves coprimality in _cross_cancel: a modular certificate, then, when
    it fails, one division of the longer operand by the shorter and Euclid's
    algorithm from its remainder unless that is zero.  The cancelled pair is
    right up to a constant they share, which _monic removes.  Results whose
    operands are already coprime skip the proof and come from _coprime,
    which only makes den monic: -f, f*g and f/g (after their
    cross-cancellations) and the embedding into a taller tower.  Their
    coprimality follows from Bezout: a coprime pair has u*num + v*den = 1,
    which survives a field extension, and products of pairwise coprime factors
    are coprime.  So do constants, from_coeffs, r and t: each denominator is 1,
    or a power of r against a unit numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, tower: FieldTower, place: Place, num: Poly, den: Poly) -> None:
        num = _trim(list(num))
        den = _trim(list(den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            shift = min(_porder(num), _porder(den))
            num, den = _cross_cancel(num[shift:], den[shift:], tower.zero())
        self.tower = tower
        self.place = place
        self.num, self.den = _monic(num, den, tower.one())

    @classmethod
    def _coprime(cls, tower: FieldTower, place: Place, num: Poly, den: Poly) -> RationalFunction:
        """num/den for trimmed, coprime num and nonzero den, without a gcd."""
        made = object.__new__(cls)
        made.tower, made.place = tower, place
        made.num, made.den = _monic(num, den, tower.one())
        return made

    # -- constructors ----------------------------------------------------------

    @classmethod
    def constant(cls, tower: FieldTower, place: Place, value: Scalar) -> RationalFunction:
        return cls._coprime(tower, place, _trim([tower.coerce(value)]), (tower.one(),))

    @classmethod
    def from_coeffs(
        cls, tower: FieldTower, place: Place, coeffs: list[Scalar]
    ) -> RationalFunction:
        return cls._coprime(tower, place, _trim([tower.coerce(c) for c in coeffs]),
                            (tower.one(),))

    def is_zero(self) -> bool:
        return not self.num

    # -- constructor hooks -------------------------------------------------------

    def _embedded(self, tower: FieldTower, place: Place) -> RationalFunction:
        return RationalFunction._coprime(
            tower, place, _pembed(self.num, tower), _pembed(self.den, tower)
        )

    def _constant(self, value: Scalar) -> RationalFunction:
        return RationalFunction.constant(self.tower, self.place, value)

    # -- arithmetic ---------------------------------------------------------------

    def _sum(self, other: RationalFunction | Scalar, sign: int) -> RationalFunction:
        a, b = self._pair(other)
        if a.den == b.den:
            return RationalFunction(a.tower, a.place, _psum(a.num, b.num, sign), a.den)
        zero = a.tower.zero()
        num = _psum(_pmul(a.num, b.den, zero), _pmul(b.num, a.den, zero), sign)
        return RationalFunction(a.tower, a.place, num, _pmul(a.den, b.den, zero))

    def __neg__(self) -> RationalFunction:
        return RationalFunction._coprime(self.tower, self.place, _pneg(self.num), self.den)

    def __mul__(self, other: RationalFunction | Scalar) -> RationalFunction:
        a, b = self._pair(other)
        zero = a.tower.zero()
        # once each numerator is cancelled against the other denominator, the
        # products are coprime (Knuth, TAOCP vol. 2, 4.5.1)
        num_a, den_b = _cross_cancel(a.num, b.den, zero)
        num_b, den_a = _cross_cancel(b.num, a.den, zero)
        return RationalFunction._coprime(
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
        return RationalFunction._coprime(
            a.tower, a.place, _pmul(num_a, den_b, zero), _pmul(den_a, num_b, zero)
        )

    def _value(self) -> FieldElement | int | None:
        """The value of a constant, else None."""
        if len(self.num) <= 1 and len(self.den) == 1:
            return self.num[0] if self.num else 0
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            if self.place != other.place:
                return False
            value = other._value()
            other = other if value is None else value
        elif not isinstance(other, (FieldElement, Fraction, int)):
            return NotImplemented
        value = self._value()
        if value is not None and not isinstance(other, RationalFunction):
            return value == other  # FieldElement's ==: rationals by value over any towers
        a, b = self._pair(other)
        return (a.num, a.den) == (b.num, b.den)

    def __hash__(self) -> int:
        # == lifts to a common tower and coerces scalars: a constant hashes as its value
        value = self._value()
        return hash((self.num, self.den) if value is None else value)

    # -- local data ----------------------------------------------------------------

    def order_at_zero(self) -> int:
        """Order of vanishing at r = 0; the t-adic valuation is this over e."""
        if self.is_zero():
            raise ZeroFunctionError("the zero function has no order")
        return _porder(self.num) - _porder(self.den)

    def leading_coefficient(self) -> FieldElement:
        return self.num[_porder(self.num)] / self.den[_porder(self.den)]

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
    return RationalFunction._coprime(tower, place, (tower.zero(), tower.one()), (tower.one(),))


def t_function(tower: FieldTower, place: Place) -> RationalFunction:
    """The global coordinate t expanded at the place: center + r^e, or 1/r^e."""
    one = tower.one()
    monomial = (tower.zero(),) * place.e + (one,)
    if place.is_infinity:
        return RationalFunction._coprime(tower, place, (one,), monomial)
    num = (embed(place.center, tower),) + monomial[1:]
    return RationalFunction._coprime(tower, place, num, (one,))


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

    # -- constructor hooks ----------------------------------------------------------

    def _embedded(self, tower: FieldTower, place: Place) -> PuiseuxSeries:
        return PuiseuxSeries(tower, place, self.lead, _pembed(self.coeffs, tower), self.precision)

    def _constant(self, value: Scalar) -> PuiseuxSeries:
        return PuiseuxSeries.constant(self.tower, self.place, value, self.precision)

    # -- arithmetic -------------------------------------------------------------------

    def _sum(self, other: PuiseuxSeries | Scalar, sign: int) -> PuiseuxSeries:
        """Both coefficient tuples padded to the lower lead and cut to the common
        precision, which no lead exceeds, then summed by _psum."""
        a, b = self._pair(other)
        precision = min(a.precision, b.precision)
        lead = min(a.lead, b.lead)
        zero = a.tower.zero()
        p, q = (((zero,) * (s.lead - lead) + s.coeffs)[:precision - lead] for s in (a, b))
        return PuiseuxSeries(a.tower, a.place, lead, _psum(p, q, sign), precision)

    def __neg__(self) -> PuiseuxSeries:
        return PuiseuxSeries(self.tower, self.place, self.lead, _pneg(self.coeffs), self.precision)

    def __mul__(self, other: PuiseuxSeries | Scalar) -> PuiseuxSeries:
        a, b = self._pair(other)
        precision = min(a.precision + b.lead, b.precision + a.lead)
        if a.is_zero() or b.is_zero():
            return PuiseuxSeries.zero(a.tower, a.place, precision)
        # a nonzero series has lead < precision, so precision - lead =
        # min(a.precision - a.lead, b.precision - b.lead) >= 1, here and in a quotient
        lead = a.lead + b.lead
        size = min(precision - lead, len(a.coeffs) + len(b.coeffs) - 1)
        out = _convolve(a.coeffs, b.coeffs, size, a.tower)
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
        coeffs = _series_quotient(a.coeffs, b.coeffs, precision - lead, a.tower.zero())
        return PuiseuxSeries(a.tower, a.place, lead, coeffs, precision)

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
            and self.place == other.place
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


def series_sqrt(f: PuiseuxSeries) -> PuiseuxSeries:
    """Square root of a truncated series of even order, at its place, one
    coefficient at a time.

    An odd order raises ValueError: over an algebraically closed residue field
    the squares at a place are its even-order elements (is_square_local).  A
    leading coefficient that is not a square in the tower gets its root
    adjoined to it.  The unit part g, with g^2 = u the series over its leading
    term, stays in the original tower: g_0 = 1 and
    2*g_k = u_k - sum(g_j * g_{k-j}, 0 < j < k) (Knuth, TAOCP vol. 2, 4.7),
    each g_k one multiply-accumulate (field_tower._dot) over the products with
    j < k - j, which the sum holds twice, and the middle square g_{k/2}^2 of an
    even k, which it holds once.  The root's tower is the input's, or that
    tower with the root of the leading coefficient adjoined.
    """
    if f.is_zero():
        raise ZeroFunctionError("square root of a series that is zero to precision")
    if f.lead % 2:
        raise ValueError(f"a series of odd order {f.lead} has no square root at its place")
    half_lead = f.lead // 2
    tower = f.tower
    relative = f.precision - f.lead
    zero = tower.zero()
    coeffs = f.coeffs + (zero,) * (relative - len(f.coeffs))
    lead_coeff = coeffs[0]
    half = tower.rational(Fraction(1, 2))
    scale = lead_coeff.inverse() * half  # u_k / 2 = coeffs[k] * scale
    g, minus = [tower.one()], [zero]  # g_j and -g_j, for j >= 1
    for k in range(1, relative):
        xs = [coeffs[k], *g[1:(k + 1) // 2]]
        ys = [scale, *minus[k - 1:k // 2:-1]]
        if not k % 2:
            xs.append(g[k // 2] * half)
            ys.append(minus[k // 2])
        g.append(_dot(tower, xs, ys))
        minus.append(-g[k])

    extended = adjoin_quadratic(tower, _fresh_root_name(tower), 0, -lead_coeff)
    if isinstance(extended, FieldElement):
        root_of_lead = extended
    else:
        tower = extended
        g = _pembed(g, tower)
        root_of_lead = tower.gen(tower.generator_names[-1])
    return PuiseuxSeries(tower, f.place, half_lead, _pscale(g, root_of_lead),
                         half_lead + relative)


class SquareOutcome(Record):
    """A local squareness verdict: its kind and the order it was decided from.

    The root of a square f, when one is wanted, is series_sqrt(f.to_puiseux(P)).
    """

    __slots__ = _fields = ("kind", "order")

    def __init__(self, kind: str, order: int) -> None:
        # "yes" | "no"; solve_square: "witness" | "nonsquare"; lifts: "lifts" | "obstructed"
        self.kind = kind
        self.order = order


def is_square_local(f: RationalFunction | PuiseuxSeries) -> SquareOutcome:
    """Squareness of a nonzero local element over an algebraically closed residue
    field: the squares are exactly the even-order elements.

    Whether the leading coefficient is a square in the tower itself is
    field_tower.is_square(f.tower, f.leading_coefficient()).
    """
    if f.is_zero():
        raise ZeroFunctionError("squareness of the zero function is undefined")
    order = f.order_at_zero()
    return SquareOutcome("no" if order % 2 else "yes", order)
