"""Seeded generator of point claims on the base system, with known answers.

Every claim is a point of the base system

    x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2
    x^2 - 2*t*u^2 + 1/t = t*(t^2*u^2 - t)*z^2

at a place t = center + r^e (or t = 1/r^e), over a quadratic tower of height
0, 1 or 2.  u and x are Laurent polynomials in r with tower coefficients; y
and z are formal square roots of the residual quotients, so the point holds
by construction.  Known answers come from valuations alone: the orders of
u, x and t fix the orders of both left-hand sides and of the cover factor
t^2*u^2 - t whenever no two leading terms can cancel, and the generator only
emits points where they cannot.

This module uses the standard library only; it never imports localpoints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# (generator name, minimal polynomial) per level; every step is irreducible
# over the level below (norm arguments: -1, 2, -alpha, 1 + s, 2 + i are not
# squares where they are adjoined).
TOWERS = {
    0: [()],
    1: [
        (("alpha", "alpha^2 - alpha - 1"),),
        (("s", "s^2 - 2"),),
        (("i", "i^2 + 1"),),
    ],
    2: [
        (("alpha", "alpha^2 - alpha - 1"), ("beta", "beta^2 + alpha")),
        (("s", "s^2 - 2"), ("c", "c^2 - s - 1")),
        (("i", "i^2 + 1"), ("j", "j^2 - i - 2")),
    ],
}

# (tower height, expectation) of every claim in a block of ten: six at height
# 0, three at height 1, one at height 2; two of the ten are obstructions
CLAIM_CYCLE = (
    (0, "pass"), (1, "pass"), (0, "pass"), (0, "obstructed"), (1, "pass"),
    (0, "pass"), (2, "pass"), (0, "pass"), (1, "obstructed"), (0, "pass"),
)
# Per height: largest ramification, most terms in u and x, most basis
# monomials in one coefficient.  Taller towers cost more per coefficient
# operation, so their shapes are smaller, which bounds the cost of one claim.
SHAPES = {0: (7, 3, 1), 1: (5, 2, 2), 2: (3, 1, 1)}
MAX_EXPONENT = 3  # |lowest exponent| of r in u and x

BASE_SYSTEM = (
    "x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2",
    "(t^2*u^2 - t)*y^2 != 0",
    "x^2 - 2*t*u^2 + 1/t = t*(t^2*u^2 - t)*z^2",
    "t*(t^2*u^2 - t)*z^2 != 0",
)
COVER_EQUATION = "w^2 = t^2*u^2 - t"


@dataclass(frozen=True)
class Expected:
    """The known answer of one generated claim."""

    name: str
    height: int
    expect: str  # "pass" | "obstructed"
    ineq_orders: tuple[int, int] | None  # r-orders of both constraints (pass claims)
    cover_order: int | None  # r-order of the cover factor (obstructed claims)


def _coefficient(rng: random.Random, gens: tuple[str, ...], monomials: int) -> str:
    """A nonzero tower element: nonzero rationals times distinct basis monomials."""
    basis = [""] + list(gens) + ([f"{gens[0]}*{gens[1]}"] if len(gens) == 2 else [])
    parts = []
    for monomial in rng.sample(basis, min(monomials, len(basis))):
        q = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 4))
        parts.append(f"{q}*{monomial}" if monomial else str(q))
    return "(" + " + ".join(parts) + ")"


def _laurent(
    rng: random.Random, gens: tuple[str, ...], order: int, terms: int, monomials: int
) -> str:
    """A Laurent polynomial in r with `terms` terms, the lowest of exponent `order`."""
    out = []
    for k in range(order, order + terms):
        coeff = _coefficient(rng, gens, monomials)
        out.append(coeff if k == 0 else f"{coeff}*r" if k == 1 else f"{coeff}*r^{k}")
    return " + ".join(out)


def _unique_min(orders: tuple[int, ...]) -> int | None:
    low = min(orders)
    return low if orders.count(low) == 1 else None


def _orders(tau: int, a: int, b: int) -> tuple[int | None, int | None, int | None]:
    """r-orders of lhs_1, lhs_2 and the cover factor, or None where terms could cancel.

    tau, a, b are the r-orders of t, u and x.
    """
    lhs1 = _unique_min((2 * b, tau + 2 * a, tau))
    lhs2 = _unique_min((2 * b, tau + 2 * a, -tau))
    cover = tau + min(tau + 2 * a, 0) if tau + 2 * a != 0 else None
    return lhs1, lhs2, cover


def _place(height: int, expect: str, slot: int, gens: tuple[str, ...]) -> tuple[str, int]:
    """Center and ramification of the slot-th claim of one (height, expect) stratum.

    The slots walk a fixed grid of (center kind, ramification), so every batch
    of claims covers the same grid whatever the seed.  Obstructions need an
    odd cover-factor order, which valuations give only at center 0 or
    infinity with odd ramification, and at infinity only while e < 2*v(u).
    """
    max_ram = SHAPES[height][0]
    if expect == "obstructed":
        kinds = ["0", "infinity"]
        rams = [e for e in range(1, min(max_ram, 2 * MAX_EXPONENT - 1) + 1) if e % 2]
    else:
        kinds = ["0", "infinity"] + (["gen"] if gens else [])
        rams = list(range(1, max_ram + 1))
    kind = kinds[slot % len(kinds)]
    e = rams[slot // len(kinds) % len(rams)]
    center = gens[slot // len(kinds) % len(gens)] if kind == "gen" else kind
    return center, e


def _one_claim(rng: random.Random, index: int, slot: int) -> tuple[str, Expected]:
    height, expect = CLAIM_CYCLE[index % len(CLAIM_CYCLE)]
    obstructed = expect == "obstructed"
    steps = TOWERS[height][slot % len(TOWERS[height])]
    gens = tuple(name for name, _ in steps)
    center, e = _place(height, expect, slot, gens)
    tau = {"0": e, "infinity": -e}.get(center, 0)
    choices = []
    for a in range(-MAX_EXPONENT, MAX_EXPONENT + 1):
        for b in range(-MAX_EXPONENT, MAX_EXPONENT + 1):
            lhs1, lhs2, cover = _orders(tau, a, b)
            if None in (lhs1, lhs2, cover) or (obstructed and cover % 2 == 0):
                continue
            choices.append((a, b, lhs1, lhs2, cover))
    a, b, lhs1, lhs2, cover = choices[slot % len(choices)]
    _, most_terms, most_monomials = SHAPES[height]
    terms = 1 + slot % most_terms
    monomials = 1 + slot // most_terms % most_monomials
    u = _laurent(rng, gens, a, terms, monomials)
    x = _laurent(rng, gens, b, terms, monomials)
    name = f"gen_{index:04d}_h{height}"
    lines = [f"claim {name}"]
    lines += [f"adjoin {gen} : {minpoly} = 0" for gen, minpoly in steps]
    lines.append("system:")
    lines += [f"  {eq}" for eq in BASE_SYSTEM]
    if obstructed:
        lines.append(f"  {COVER_EQUATION}")
    lines.append(f"place: t = {center} ram {e}")
    lines.append(f"let u = {u}")
    lines.append(f"let x = {x}")
    lines.append(f"let y = sqrt((({x})^2 - t*({u})^2 + t)/(t^2*({u})^2 - t))")
    lines.append(f"let z = sqrt((({x})^2 - 2*t*({u})^2 + 1/t)/(t*(t^2*({u})^2 - t)))")
    lines.append(f"expect: {expect}")
    expected = Expected(
        name,
        height,
        expect,
        None if obstructed else (lhs1, lhs2),
        cover if obstructed else None,
    )
    return "\n".join(lines) + "\n", expected


def generate(seed: int, count: int) -> tuple[str, list[Expected]]:
    """Claim-file text with `count` claims, and their known answers, from one seed."""
    rng = random.Random(seed)
    texts, answers = [], []
    slots: dict[tuple[int, str], int] = {}
    for index in range(count):
        stratum = CLAIM_CYCLE[index % len(CLAIM_CYCLE)]
        slot = slots.get(stratum, 0)
        slots[stratum] = slot + 1
        text, expected = _one_claim(rng, index, slot)
        texts.append(text)
        answers.append(expected)
    header = f"# generated point claims, seed {seed}, {count} claims\n\n"
    return header + "\n".join(texts), answers
