"""Layer kernels: public operations of each module timed on seeded inputs.

Each kernel runs its operation over a fixed list of inputs until a sample
lasts at least MIN_SAMPLE_S, takes SAMPLES such samples and reports the
median time of one operation.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

MIN_SAMPLE_S = 0.02
SAMPLES = 5


def _per_op(op, inputs, samples: int = SAMPLES) -> float:
    """Median seconds per call of op(*item) over the inputs."""
    rounds = 1
    while True:
        start = time.perf_counter()
        for _ in range(rounds):
            for item in inputs:
                op(*item)
        if time.perf_counter() - start >= MIN_SAMPLE_S:
            break
        rounds *= 2
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(rounds):
            for item in inputs:
                op(*item)
        times.append((time.perf_counter() - start) / (rounds * len(inputs)))
    return statistics.median(times)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _element(rng: random.Random, tower, dense: bool = True):
    """Every coordinate a small nonzero rational, or (sparse) just one of them."""
    coords = []
    while len(coords) < tower.dim:
        q = _rational(rng)
        if q:
            coords.append(q)
    if not dense:
        keep = rng.randrange(tower.dim)
        coords = [q if k == keep else 0 for k, q in enumerate(coords)]
    return tower.element(tuple(coords))


def golden_towers(lp):
    """Q, Q(alpha), Q(alpha, beta) of the golden claims, and a formal height-3 step."""
    h1 = lp.adjoin_quadratic(lp.QQ, "alpha", -1, -1)
    h2 = lp.adjoin_quadratic(h1, "beta", 0, h1.gen("alpha"))
    # squareness is undecided at height 2, so this root is adjoined formally
    h3 = lp.adjoin_quadratic(h2, "gamma", 0, -h2.gen("beta"))
    return [lp.QQ, h1, h2, h3]


def _rational_function(lp, rng, tower, place, degree, dense=True):
    num = [_element(rng, tower, dense) for _ in range(degree + 1)]
    den = [_element(rng, tower, dense) for _ in range(degree + 1)]
    return lp.RationalFunction(tower, place, tuple(num), tuple(den))


def _series(lp, rng, tower, place, precision):
    terms = {k: _element(rng, tower) for k in range(precision)}
    return lp.PuiseuxSeries.from_terms(tower, place, terms, precision)


def field_tower_kernels(lp, rng) -> dict[str, float]:
    towers = golden_towers(lp)
    out = {}
    for h, tower in enumerate(towers):
        pairs = [(_element(rng, tower), _element(rng, tower)) for _ in range(16)]
        out[f"field_tower.mul_us.h{h}"] = _per_op(lambda a, b: a * b, pairs) * 1e6
        if h in (1, 2):
            singles = [(a,) for a, _ in pairs]
            out[f"field_tower.inverse_us.h{h}"] = _per_op(lambda a: a.inverse(), singles) * 1e6
    return out


def series_kernels(lp, rng) -> dict[str, float]:
    towers = golden_towers(lp)
    out = {}
    place = lp.Place.finite(lp.QQ.zero(), 1)
    pairs = [(_rational_function(lp, rng, lp.QQ, place, 8),
              _rational_function(lp, rng, lp.QQ, place, 8)) for _ in range(2)]
    out["series.rf_mul_us.h0_d8"] = _per_op(lambda a, b: a * b, pairs) * 1e6
    out["series.rf_add_us.h0_d8"] = _per_op(lambda a, b: a + b, pairs) * 1e6
    # height-2 coefficients are single basis monomials, as in the generated
    # claims; dense ones cost close to a second per product
    place = lp.Place.finite(towers[2].zero(), 1)
    pair = [(_rational_function(lp, rng, towers[2], place, 8, dense=False),
             _rational_function(lp, rng, towers[2], place, 8, dense=False))]
    out["series.rf_mul_us.h2_d8"] = _per_op(lambda a, b: a * b, pair, samples=3) * 1e6

    golden = towers[1]
    place = lp.Place.finite(golden.zero(), 1)
    pairs = [(_series(lp, rng, golden, place, 40), _series(lp, rng, golden, place, 40))
             for _ in range(2)]
    out["series.ps_mul_us.p40"] = _per_op(lambda a, b: a * b, pairs) * 1e6
    out["series.ps_div_us.p40"] = _per_op(lambda a, b: a / b, pairs) * 1e6
    functions = [(_rational_function(lp, rng, golden, place, 8),) for _ in range(2)]
    out["series.to_puiseux_us.p40"] = _per_op(lambda f: f.to_puiseux(40), functions) * 1e6

    # leading coefficient 2 is not a square in Q, so the root is adjoined
    rational_place = lp.Place.finite(lp.QQ.zero(), 1)
    for precision in (20, 40, 80):
        f = _series(lp, rng, lp.QQ, rational_place, precision)
        f = lp.PuiseuxSeries(lp.QQ, rational_place, 0,
                             (lp.QQ.rational(2),) + f.coeffs[1:], precision)
        out[f"series.series_sqrt_ms.p{precision}"] = _per_op(lp.series_sqrt, [(f,)]) * 1e3
    return out


def exprs_kernels(lp, rng) -> dict[str, float]:
    """Parse and evaluate the z let of golden_shifted_form, as its claim does."""
    from localpoints import claims, exprs

    parsed = claims.parse_claim_file(claims.SHIFTED_FORM_TEXT)[0]
    z_text = next(rhs for _, var, rhs, _ in parsed.lets if var == "z")
    towers = golden_towers(lp)
    tower = towers[2]
    place = lp.Place.finite(tower.zero(), 2)
    env = {"t": lp.t_function(tower, place), "r": lp.r_function(tower, place)}
    for name in tower.generator_names:
        env[name] = lp.RationalFunction.constant(tower, place, tower.gen(name))

    def const(q):
        return lp.RationalFunction.constant(tower, place, q)

    expr = exprs.parse_expression(z_text)
    return {
        "exprs.parse_us": _per_op(exprs.parse_expression, [(z_text,)]) * 1e6,
        "exprs.evaluate_ms": _per_op(lambda e: exprs.evaluate(e, env, const), [(expr,)]) * 1e3,
    }


def orbifold_kernels(lp, rng) -> dict[str, float]:
    curves = []
    for _ in range(16):
        marks = [rng.choice([2, 3, 5, 7, 11, lp.INF]) for _ in range(rng.randint(3, 8))]
        curves.append((lp.OrbifoldCurve.from_multiplicities(rng.randint(0, 3), marks),))
    profiles = [(lp.MultiplicityProfile((rng.randint(5, 12), rng.randint(13, 25))), 60)
                for _ in range(4)]
    return {
        "orbifold.degree_us": _per_op(lp.degree, curves) * 1e6,
        "orbifold.semigroup_contains_us.m60": _per_op(lp.semigroup_contains, profiles) * 1e6,
    }


def all_kernels(lp, seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    out = {}
    for kernels in (field_tower_kernels, series_kernels, exprs_kernels, orbifold_kernels):
        out.update(kernels(lp, rng))
    return out
