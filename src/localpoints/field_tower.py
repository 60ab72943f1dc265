"""Exact arithmetic in towers of quadratic extensions of the rationals.

A tower is a chain Q = K_0 < K_1 < ... < K_h where K_{i+1} = K_i[x]/(x^2 + b*x + c)
for b, c in K_i.  An element of K_h is 2^h integer numerators over one common
denominator, in the product basis of the adjoined generators, kept in lowest
terms with a positive denominator (the layout of FLINT's fmpq_poly and nf_elem).
Equal elements of one tower therefore have equal numerators and denominators.

Each tower turns its steps into integer form once.  For step k, with constants
b and c, D_k is their common denominator and D_k*b, D_k*c are integer vectors.
Products are computed on integer vectors, scaled by S_k = D_k * S_{k-1}^2
(S_0 = 1): with theta^2 = -b*theta - c,

    (a0 + a1*theta)(b0 + b1*theta) = (a0*b0 - c*a1*b1) + (a0*b1 + a1*b0 - b*a1*b1)*theta.

A level above the first multiplies only the half pairs that are both nonzero,
and reduces by theta^2 only when a1*b1 is among them.  A single multi-argument
gcd puts the result in lowest terms.  Inverses use the same recursion on the
norm against the conjugate root theta' = -b - theta.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .errors import NotAPrefixError
from .records import Record

Coords = tuple[Fraction, ...]
Nums = tuple[int, ...]


class TowerStep(NamedTuple):
    """One quadratic adjunction: a root of x^2 + b*x + c over the level below.

    b and c are stored as raw coordinate vectors at the height of that level.
    """

    name: str
    b: Coords
    c: Coords


# A step constant times the integer vectors of the level below: None when it is
# zero, an int m when it is rational (the product is then m * vector), else the
# integer vector D_k * constant.
_Constant = None | int | Nums


class _Level(NamedTuple):
    """Step k in integer form: theta^2 = -(b*theta + c) / D_k over K_{k-1}."""

    ds: int  # D_k * S_{k-1}
    b: _Constant
    c: _Constant


def _constant(coords: Coords, common: int, scale: int) -> _Constant:
    ints = [q.numerator * (common // q.denominator) for q in coords]
    if not any(ints):
        return None
    if not any(ints[1:]):
        # the vector (m, 0, ..., 0) times v is m * v / S_{k-1}
        return scale * ints[0]
    return tuple(ints)


def _times(const: _Constant, v: list[int], levels: tuple[_Level, ...], k: int) -> list[int]:
    """The integer vector p with const * v = p / S_k in K_k, for a nonzero constant."""
    if type(const) is int:
        return [const * x for x in v]
    return _mul(const, v, levels, k)


def _scaled_sub(ds: int, x: list[int], const: _Constant, y: list[int],
                levels: tuple[_Level, ...], k: int) -> list[int]:
    """ds * x - const * y, as integer vectors scaled like _times."""
    if const is None:
        return x if ds == 1 else [ds * u for u in x]
    return [ds * u - v for u, v in zip(x, _times(const, y, levels, k))]


def _mul(a: Nums | list[int], b: Nums | list[int], levels: tuple[_Level, ...], k: int) -> list[int]:
    """The integer vector p with a * b = p / S_k in K_k, for k >= 1."""
    ds, bq, cq = levels[k - 1]
    if k == 1:
        a0, a1 = a
        b0, b1 = b
        hh = a1 * b1
        lo = ds * a0 * b0 - (cq * hh if cq is not None else 0)
        hi = ds * (a0 * b1 + a1 * b0) - (bq * hh if bq is not None else 0)
        return [lo, hi]
    half = len(a) >> 1
    a0, a1, b0, b1 = a[:half], a[half:], b[:half], b[half:]
    sub = k - 1
    n0, n1, m0, m1 = any(a0), any(a1), any(b0), any(b1)
    zero = [0] * half
    lolo = _mul(a0, b0, levels, sub) if n0 and m0 else zero
    cross = _mul(a0, b1, levels, sub) if n0 and m1 else zero
    if n1 and m0:
        other = _mul(a1, b0, levels, sub)
        cross = [x + y for x, y in zip(cross, other)] if n0 and m1 else other
    if not (n1 and m1):
        product = lolo + cross
        return product if ds == 1 else [ds * x for x in product]
    hihi = _mul(a1, b1, levels, sub)
    return (_scaled_sub(ds, lolo, cq, hihi, levels, sub)
            + _scaled_sub(ds, cross, bq, hihi, levels, sub))


def _inv(v: Nums | list[int], levels: tuple[_Level, ...], k: int) -> tuple[list[int], int]:
    """(w, d) with 1/v = w/d in K_k, for a nonzero integer vector v; d may be negative."""
    if k == 0:
        return [1], v[0]
    content = gcd(*v)
    if content != 1:
        v = [x // content for x in v]
    ds, bq, cq = levels[k - 1]
    if k == 1:
        lo, hi = v
        norm = ds * lo * lo
        conj_lo = ds * lo
        if bq is not None:
            norm -= bq * lo * hi
            conj_lo -= bq * hi
        if cq is not None:
            norm += cq * hi * hi
        if not norm:
            raise ZeroDivisionError("zero divisor in formal quadratic extension")
        return [conj_lo, -ds * hi], content * norm
    half = len(v) >> 1
    lo, hi = v[:half], v[half:]
    sub = k - 1
    # norm (lo + hi*theta)(lo + hi*theta') = lo^2 - b*lo*hi + c*hi^2, times S_k
    norm = _scaled_sub(ds, _mul(lo, lo, levels, sub), bq, _mul(lo, hi, levels, sub), levels, sub)
    if cq is not None:
        norm = [x + y for x, y in zip(norm, _times(cq, _mul(hi, hi, levels, sub), levels, sub))]
    if not any(norm):
        raise ZeroDivisionError("zero divisor in formal quadratic extension")
    inv_norm, den = _inv(norm, levels, sub)
    # the conjugate (lo - b*hi) - hi*theta, times D_k * S_{k-1}
    conj_lo = _scaled_sub(ds, lo, bq, hi, levels, sub)
    conj_hi = [-ds * x for x in hi]
    return (_mul(conj_lo, inv_norm, levels, sub) + _mul(conj_hi, inv_norm, levels, sub),
            content * den)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 7, 61: exact for odd n < 4,759,123,141."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for base in (2, 7, 61):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the nonzero square a modulo the odd prime p (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while not q & 1:
        q, s = q >> 1, s + 1
    z = 2
    while pow(z, (p - 1) >> 1, p) != p - 1:
        z += 1
    c, x, t = pow(z, q, p), pow(a, (q + 1) >> 1, p), pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        x, c, t, s = x * b % p, b * b % p, t * b * b % p, i
    return x


def _rational_mod(q: Fraction, p: int) -> int | None:
    den = q.denominator % p
    return q.numerator * pow(den, -1, p) % p if den else None


def _residue_monomials(steps: tuple[TowerStep, ...], p: int) -> tuple[int, ...] | None:
    """Images mod p of the product-basis monomials under one root per step, or None.

    Step by step, under the roots already chosen below it, b and c must be
    p-integral and the discriminant b^2 - 4c a nonzero square mod p; the root
    is then (-b + sqrt(b^2 - 4c)) / 2.
    """
    monomials = [1]
    for step in steps:
        b, c = ([_rational_mod(q, p) for q in coords] for coords in (step.b, step.c))
        if None in b or None in c:
            return None
        b = sum(x * m for x, m in zip(b, monomials)) % p
        c = sum(x * m for x, m in zip(c, monomials)) % p
        disc = (b * b - 4 * c) % p
        if not disc or pow(disc, (p - 1) >> 1, p) != 1:
            return None
        root = (_sqrt_mod(disc, p) - b) * ((p + 1) >> 1) % p
        monomials += [m * root % p for m in monomials]
    return tuple(monomials)


# the odd candidates for a tower's residue prime, in search order (204 primes)
_RESIDUE_PRIME_CANDIDATES = range((1 << 30) + 1, (1 << 30) + 4096, 2)


class FieldTower:
    """Immutable tower of quadratic extensions of Q."""

    __slots__ = ("steps", "_levels", "_scale", "_zero", "_one", "_residue")

    def __init__(self, steps: tuple[TowerStep, ...] = ()) -> None:
        self.steps = steps
        levels = []
        scale = 1
        for step in steps:
            common = lcm(*(q.denominator for q in step.b + step.c))
            levels.append(_Level(common * scale, _constant(step.b, common, scale),
                                 _constant(step.c, common, scale)))
            scale = common * scale * scale
        self._levels = tuple(levels)
        self._scale = scale
        padding = (0,) * (self.dim - 1)
        self._zero = _element(self, (0,) + padding, 1)
        self._one = _element(self, (1,) + padding, 1)
        self._residue = None  # filled in by _residue_map

    @property
    def height(self) -> int:
        return len(self.steps)

    @property
    def dim(self) -> int:
        return 1 << len(self.steps)

    @property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(step.name for step in self.steps)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, FieldTower) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        if not self.steps:
            return "Q"
        return "Q(" + ", ".join(self.generator_names) + ")"

    def is_prefix_of(self, other: FieldTower) -> bool:
        return self.steps == other.steps[: len(self.steps)]

    # -- element constructors ------------------------------------------------

    def element(self, coords: Coords) -> FieldElement:
        return FieldElement(self, coords)

    def rational(self, value: Fraction | int) -> FieldElement:
        q = Fraction(value)
        return _element(self, (q.numerator,) + self._zero.nums[1:], q.denominator)

    def zero(self) -> FieldElement:
        return self._zero

    def one(self) -> FieldElement:
        return self._one

    def gen(self, name: str) -> FieldElement:
        for i, step in enumerate(self.steps):
            if step.name == name:
                nums = [0] * self.dim
                nums[1 << i] = 1
                return _element(self, tuple(nums), 1)
        raise KeyError(f"no generator named {name!r} in {self!r}")

    def coerce(self, value: FieldElement | Fraction | int) -> FieldElement:
        if isinstance(value, FieldElement):
            return embed(value, self)
        return self.rational(value)


def _power(base, exponent: int):
    """base**exponent by square and multiply, for exponent >= 1.

    The one square-and-multiply behind every ** of the package: field
    elements, rational functions and series.  It starts from base, so it
    makes no product with one; each caller makes its own one for exponent 0.
    """
    if exponent == 1:
        return base
    square = _power(base * base, exponent >> 1)
    return square * base if exponent & 1 else square


def _join_tower(a: FieldTower, b: FieldTower) -> FieldTower:
    """The taller of two towers, one a prefix of the other."""
    if a is b:
        return a
    if a.is_prefix_of(b):
        return b
    if b.is_prefix_of(a):
        return a
    raise NotAPrefixError(f"towers {a!r} and {b!r} are incomparable")


def _residue_map(tower: FieldTower) -> tuple[int, tuple[int, ...]] | None:
    """(p, monomials): a prime and a ring map onto F_p, or None when none was found.

    The map is defined on the elements nums/den with den prime to p, and
    sends one to the sum of nums[i] * monomials[i], over den, mod p.  Each
    tower chooses it once, deterministically: the first prime above 2^30
    where every step has a root (_residue_monomials), among the primes of
    _RESIDUE_PRIME_CANDIDATES.
    """
    if tower._residue is None:
        tower._residue = ()
        for p in _RESIDUE_PRIME_CANDIDATES:
            if _is_prime(p):
                monomials = _residue_monomials(tower.steps, p)
                if monomials is not None:
                    tower._residue = (p, monomials)
                    break
    return tower._residue or None


def _is_one(a: FieldElement) -> bool:
    return a.den == 1 and a.nums == a.tower._one.nums


def _element(tower: FieldTower, nums: Nums, den: int) -> FieldElement:
    """An element from numerators and a denominator already in lowest terms."""
    element = object.__new__(FieldElement)
    element.tower = tower
    element.nums = nums
    element.den = den
    return element


def _normal(tower: FieldTower, nums: list[int], den: int) -> FieldElement:
    """The element nums/den of tower, put in lowest terms with den > 0."""
    if den == 1:
        return _element(tower, tuple(nums), 1)
    divisor = gcd(*nums, den)
    if den < 0:
        divisor = -divisor
    if divisor != 1:
        nums = [x // divisor for x in nums]
        den //= divisor
    return _element(tower, tuple(nums), den)


def _dot(tower: FieldTower, xs, ys) -> FieldElement:
    """sum(x * y for x, y in zip(xs, ys)) in lowest terms, for elements of tower.

    The integer products are summed over the lcm of their denominators and
    normalised once, instead of once per product and once per addition.
    """
    levels = tower._levels
    k = len(levels)
    if not k:
        num, den = 0, 1
        for x, y in zip(xs, ys):
            p = x.nums[0] * y.nums[0]
            if p:
                d = x.den * y.den
                if den % d:
                    m = d // gcd(den, d)
                    num, den = num * m, den * m
                num += p * (den // d)
        return _normal(tower, [num], den) if num else tower._zero
    acc, den = None, 1
    for x, y in zip(xs, ys):
        if not (any(x.nums) and any(y.nums)):
            continue
        p = _mul(x.nums, y.nums, levels, k)
        d = x.den * y.den
        if den % d:
            m = d // gcd(den, d)
            den *= m
            if acc is not None:
                acc = [u * m for u in acc]
        m = den // d
        acc = [v * m for v in p] if acc is None else [u + v * m for u, v in zip(acc, p)]
    if acc is None:
        return tower._zero
    return _normal(tower, acc, tower._scale * den)


def _sum(a: FieldElement, b: FieldElement, sign: int) -> FieldElement:
    """a + sign*b for elements of one tower (sign is 1 or -1)."""
    ad, bd = a.den, b.den
    if ad == bd:
        return _normal(a.tower, [x + sign * y for x, y in zip(a.nums, b.nums)], ad)
    # as in Fraction addition: over lcm(ad, bd), only a factor of
    # g = gcd(ad, bd) can be common to all the numerators
    g = gcd(ad, bd)
    if g == 1:
        return _element(a.tower, tuple([x * bd + sign * y * ad for x, y in zip(a.nums, b.nums)]),
                        ad * bd)
    ad //= g
    nums = [x * (bd // g) + sign * y * ad for x, y in zip(a.nums, b.nums)]
    common = gcd(*nums, g)
    if common != 1:
        nums = [x // common for x in nums]
        bd //= common
    return _element(a.tower, tuple(nums), ad * bd)


class FieldElement:
    """An element nums/den of a tower; nums are the basis coordinates times den.

    Treat it as immutable: it is hashed, and towers share their zero and one.
    """

    __slots__ = ("tower", "nums", "den")

    tower: FieldTower
    nums: Nums
    den: int

    def __init__(self, tower: FieldTower, coords: Coords) -> None:
        coords = [Fraction(q) for q in coords]
        if len(coords) != tower.dim:
            raise ValueError(f"{tower!r} has {tower.dim} coordinates, not {len(coords)}")
        den = lcm(*(q.denominator for q in coords))
        self.tower = tower
        self.nums = tuple(q.numerator * (den // q.denominator) for q in coords)
        self.den = den

    @property
    def coords(self) -> Coords:
        """The coordinates in the product basis, as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _pair(self, other: FieldElement | Fraction | int) -> tuple[FieldElement, FieldElement]:
        if not isinstance(other, FieldElement):  # an int or a Fraction: callers check _known
            return self, self.tower.rational(other)
        if self.tower is other.tower:
            return self, other
        tower = _join_tower(self.tower, other.tower)
        return embed(self, tower), embed(other, tower)

    @staticmethod
    def _known(other: object) -> bool:
        return isinstance(other, (FieldElement, int, Fraction))

    def __add__(self, other: FieldElement | Fraction | int) -> FieldElement:
        if type(other) is FieldElement and other.tower is self.tower:
            return _sum(self, other, 1)
        if not self._known(other):
            return NotImplemented
        return _sum(*self._pair(other), 1)

    __radd__ = __add__

    def __sub__(self, other: FieldElement | Fraction | int) -> FieldElement:
        if type(other) is FieldElement and other.tower is self.tower:
            return _sum(self, other, -1)
        if not self._known(other):
            return NotImplemented
        return _sum(*self._pair(other), -1)

    def __rsub__(self, other: Fraction | int) -> FieldElement:
        if not self._known(other):
            return NotImplemented
        return (-self) + other

    def __neg__(self) -> FieldElement:
        return _element(self.tower, tuple(-x for x in self.nums), self.den)

    def __mul__(self, other: FieldElement | Fraction | int) -> FieldElement:
        a, b = self, other
        if type(b) is not FieldElement or b.tower is not a.tower:
            if not self._known(other):
                return NotImplemented
            a, b = self._pair(other)
        tower = a.tower
        levels = tower._levels
        if levels:
            nums = _mul(a.nums, b.nums, levels, len(levels))
        else:
            nums = [a.nums[0] * b.nums[0]]
        return _normal(tower, nums, tower._scale * a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        tower = self.tower
        nums, den = _inv(self.nums, tower._levels, len(tower._levels))
        return _normal(tower, [x * self.den for x in nums], den)

    def __truediv__(self, other: FieldElement | Fraction | int) -> FieldElement:
        if not self._known(other):
            return NotImplemented
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other: Fraction | int) -> FieldElement:
        if not self._known(other):
            return NotImplemented
        return self.tower.rational(other) / self

    def __pow__(self, exponent: int) -> FieldElement:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent) if exponent else self.tower.one()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.tower.rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.tower is not other.tower and not (any(self.nums[1:]) or any(other.nums[1:])):
            # rationals compare by value over any towers; otherwise incomparable
            # towers raise NotAPrefixError, as arithmetic does
            return self.nums[0] == other.nums[0] and self.den == other.den
        a, b = self._pair(other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self) -> int:
        # == embeds a prefix tower, which pads nums with zeros, and coerces
        # rationals: so hash nums without trailing zeros, a rational as its Fraction
        nums = self.nums
        top = len(nums)
        while top > 1 and not nums[top - 1]:
            top -= 1
        if top == 1:
            return hash(Fraction(nums[0], self.den))
        return hash((nums[:top], self.den))

    def __str__(self) -> str:
        # each coefficient x/den printed as str(Fraction(x, den)) prints it
        names = self.tower.generator_names
        den = self.den
        terms = []
        for index, x in enumerate(self.nums):
            if not x:
                continue
            monomial = "*".join(names[i] for i in range(len(names)) if index >> i & 1)
            if monomial and x == den:
                terms.append(monomial)
            elif monomial and x == -den:
                terms.append(f"-{monomial}")
            else:
                divisor = gcd(x, den)
                coeff = str(x // divisor) if divisor == den else f"{x // divisor}/{den // divisor}"
                terms.append(f"{coeff}*{monomial}" if monomial else coeff)
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    def __repr__(self) -> str:
        return f"<{self} in {self.tower!r}>"


QQ = FieldTower()


def adjoin_quadratic(
    tower: FieldTower,
    name: str,
    b: FieldElement | Fraction | int,
    c: FieldElement | Fraction | int,
) -> FieldTower | FieldElement:
    """Adjoin a root of x^2 + b*x + c, or return a root that already exists."""
    if name in tower.generator_names:
        raise ValueError(f"generator name {name!r} already used in {tower!r}")
    b = tower.coerce(b)
    c = tower.coerce(c)
    disc = b * b - 4 * c
    check = is_square(tower, disc)
    if check.kind == "yes":
        return (check.witness - b) / 2
    return FieldTower(tower.steps + (TowerStep(name, b.coords, c.coords),))


def embed(element: FieldElement, target: FieldTower) -> FieldElement:
    """View an element of a prefix tower inside a taller tower."""
    if element.tower == target:
        return element
    if not element.tower.is_prefix_of(target):
        raise NotAPrefixError(f"{element.tower!r} is not a prefix of {target!r}")
    padding = target._zero.nums[len(element.nums):]
    return _element(target, element.nums + padding, element.den)


class SquareCheck(Record):
    """Outcome of an exact squareness test: yes (with a witness root) or no."""

    __slots__ = _fields = ("kind", "witness")

    def __init__(self, kind: str, witness: FieldElement | None = None) -> None:
        self.kind = kind  # "yes" | "no"
        self.witness = witness


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num_root = isqrt(q.numerator)
    den_root = isqrt(q.denominator)
    if num_root * num_root == q.numerator and den_root * den_root == q.denominator:
        return Fraction(num_root, den_root)
    return None


def is_square(tower: FieldTower, a: FieldElement | Fraction | int) -> SquareCheck:
    """Decide exactly whether a is a square in the tower; a "yes" carries a root.

    Height 0 takes a rational square root.  Above it, the relative-norm test
    (H. Cohen, A Course in Computational Algebraic Number Theory, GTM 138)
    reduces the question to squareness in the level below, K.
    """
    a = tower.coerce(a)
    if a.is_zero():
        return SquareCheck("yes", tower.zero())
    if tower.height == 0:
        root = _rational_sqrt(a.coords[0])
        if root is None:
            return SquareCheck("no")
        return SquareCheck("yes", tower.rational(root))
    below = FieldTower(tower.steps[:-1])
    b, c = below.element(tower.steps[-1].b), below.element(tower.steps[-1].c)
    x, y = (_normal(below, list(v), a.den) for v in (a.nums[:below.dim], a.nums[below.dim:]))
    # a = x + y*theta = X + Y*sqrt(d), with d = b^2 - 4c and sqrt(d) = 2*theta + b
    d = b * b - 4 * c
    half, zero = below.rational(Fraction(1, 2)), below.zero()
    big_x, big_y = x - b * y * half, y * half
    if big_y.is_zero():
        # the root is s with s^2 = X, or s*sqrt(d) with s^2 = X/d (when d is not 0)
        candidates = [(big_x, lambda s: (s, zero))]
        if d:
            candidates.append((big_x / d, lambda s: (zero, s)))
    else:
        # a is a square iff its norm X^2 - d*Y^2 is a square n^2 in K and
        norm = is_square(below, big_x * big_x - d * big_y * big_y)
        if norm.kind == "no":
            return SquareCheck("no")
        # (X + n)/2 or (X - n)/2 is a nonzero square s^2; the root is s + Y/(2s)*sqrt(d)
        halves = ((big_x + norm.witness) * half, (big_x - norm.witness) * half)
        candidates = [(h, lambda s: (s, big_y / (2 * s))) for h in halves if h]
    for value, root in candidates:
        check = is_square(below, value)
        if check.kind == "yes":
            p, q = root(check.witness)
            # p + q*sqrt(d) = (p + q*b) + 2q*theta
            return SquareCheck("yes", tower.element((p + q * b).coords + (2 * q).coords))
    return SquareCheck("no")
