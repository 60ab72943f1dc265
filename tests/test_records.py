"""The value behaviour of the package's records: equality, hashing, repr, keyword
overrides and the key order of a verification report's dictionary."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import localpoints

from localpoints.claims import builtin_registry, run_claim
from localpoints.exprs import BinOp, Neg, Num, Pow, Sym, parse_expression
from localpoints.field_tower import QQ, adjoin_quadratic, embed
from localpoints.orbifold import MultiplicityProfile
from localpoints.records import Record
from localpoints.series import (
    Place,
    PuiseuxSeries,
    RationalFunction,
    r_function,
    t_function,
)
from localpoints.variety import FormalSqrt, PointAssignment, parse_system, verify_point


def _same_and_different(same, different):
    """Each of same equals the first and hashes alike; each of different equals none of them."""
    first = same[0]
    for other in same:
        assert other == first and not other != first
        assert hash(other) == hash(first)
    assert len(set(same)) == 1
    for other in different:
        assert other != first and not other == first


# constructor arguments that are caches, not values, after a record's fields
TRAILING_CACHES = {PointAssignment: ("cache",)}


def test_each_record_compares_exactly_its_constructor_arguments():
    # equality, hashing and repr read _fields, so each record's fields must be its
    # constructor's arguments, in order, with only a trailing cache left out; and a
    # record with __slots__ holds nothing else, so no state hides from them
    for module in pkgutil.iter_modules(localpoints.__path__):
        importlib.import_module(f"localpoints.{module.name}")
    records, todo = [], [Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        records += subclasses
        todo += subclasses
    assert len(records) == 14
    for record in records:
        arguments = list(inspect.signature(record.__init__).parameters)[1:]
        assert arguments == [*record._fields, *TRAILING_CACHES.get(record, ())], record
        if "__slots__" in vars(record):
            assert record.__slots__ == (*record._fields, *TRAILING_CACHES.get(record, ())), record


def test_expression_nodes_compare_hash_and_print_by_value():
    tree = parse_expression("x^2 - 1/t + -y")
    _same_and_different(
        [tree, parse_expression("x^2 - 1/t + -y"),
         BinOp("+", BinOp("-", Pow(Sym("x"), 2), BinOp("/", Num(1), Sym("t"))), Neg(Sym("y")))],
        [parse_expression("x^2 - 1/t - -y"), parse_expression("x^3 - 1/t + -y"),
         Num(1), "x^2 - 1/t + -y", None])
    _same_and_different([Num(7), Num(7)], [Num(8), Sym("x"), 7, Pow(Num(7), 1)])
    _same_and_different([Sym("x"), Sym("x")], [Sym("y"), "x", Neg(Sym("x"))])
    _same_and_different([Neg(Num(1)), Neg(Num(1))], [Neg(Num(2)), Num(-1)])
    _same_and_different([Pow(Sym("t"), -2), Pow(Sym("t"), -2)], [Pow(Sym("t"), 2), Pow(Num(1), -2)])
    assert repr(tree) == (
        "BinOp(op='+', left=BinOp(op='-', left=Pow(base=Sym(name='x'), exponent=2), "
        "right=BinOp(op='/', left=Num(value=1), right=Sym(name='t'))), "
        "right=Neg(operand=Sym(name='y')))")


def test_places_compare_hash_and_print_by_value():
    _same_and_different(
        [Place.finite(QQ.rational(3), 2), Place(QQ.rational(3), 2), Place(QQ.rational(3), e=2)],
        [Place.finite(QQ.rational(3)), Place.finite(QQ.rational(2), 2), Place.at_infinity(2)])
    _same_and_different([Place.at_infinity(), Place(None), Place(None, 1)],
                        [Place.at_infinity(2), Place.finite(QQ.zero())])
    assert repr(Place.at_infinity(2)) == "Place(center=None, e=2)"
    assert repr(Place.finite(QQ.rational(3))) == "Place(center=<3 in Q>, e=1)"


def test_profiles_compare_hash_and_print_by_value():
    _same_and_different([MultiplicityProfile((2, 3)), MultiplicityProfile((2, 3))],
                        [MultiplicityProfile((3, 2)), MultiplicityProfile((2, 3, 3))])
    assert repr(MultiplicityProfile((2, 3))) == "MultiplicityProfile(generators=(2, 3))"


def test_local_values_that_compare_equal_hash_alike():
    # a value and its copy in a taller tower, and a rational and its Fraction and int
    with_i = adjoin_quadratic(QQ, "i", 0, 1)
    with_j = adjoin_quadratic(with_i, "j", 0, 2)
    golden = adjoin_quadratic(QQ, "alpha", -1, -1)  # neither Q(i) nor Q(alpha) is a prefix
    three = QQ.rational(3)
    _same_and_different([three, with_i.rational(3), 3, Fraction(3), with_j.rational(3),
                         golden.rational(3)],
                        [QQ.rational(2), with_i.gen("i") + 3, Fraction(3, 2), "3", None])
    _same_and_different([with_i.gen("i") + 3, embed(with_i.gen("i") + 3, with_j)],
                        [with_i.gen("i") - 3, with_j.gen("j") + 3, three])
    constant = RationalFunction.constant(QQ, Place.finite(three), 3)
    _same_and_different([constant, constant._lift(with_i), three, 3, constant._lift(golden)],
                        [RationalFunction.constant(QQ, Place.finite(three), 2),
                         t_function(QQ, Place.finite(three))])
    _same_and_different([Place.finite(three, 2), Place.finite(with_i.rational(3), 2),
                         Place.finite(golden.rational(3), 2)],
                        [Place.finite(with_i.rational(3)), Place.finite(with_i.gen("i"), 2)])

    place = Place.finite(QQ.zero(), 1)

    def rf(num, den):
        return RationalFunction(QQ, place, tuple(map(QQ.rational, num)),
                                tuple(map(QQ.rational, den)))

    # the same function as a multiple and with a common factor 1 + r
    f = rf([1, 2, 3], [1, -1, 5])
    _same_and_different(
        [f, rf([2, 4, 6], [2, -2, 10]), rf([1, 3, 5, 3], [1, 0, 4, 5])],
        [rf([1, 2, 3], [1, -1, 4]), RationalFunction(QQ, Place.finite(QQ.zero(), 2), f.num, f.den)])

    def series(lead, coeffs, precision, at=place):
        return PuiseuxSeries(QQ, at, lead, tuple(map(QQ.rational, coeffs)), precision)

    # the same series with a leading and a trailing zero, and from its terms
    _same_and_different(
        [series(0, [1, 0, 3], 6), series(-1, [0, 1, 0, 3, 0], 6),
         PuiseuxSeries.from_terms(QQ, place, {0: 1, 2: 3}, 6)],
        [series(0, [1, 0, 3], 7), series(1, [1, 0, 3], 6), series(0, [1, 0, 4], 6),
         series(0, [1, 0, 3], 6, Place.finite(QQ.zero(), 2)), rf([1, 0, 3], [1])])


def test_point_equality_ignores_the_evaluation_cache():
    place = Place.finite(QQ.zero(), 2)
    one = RationalFunction.constant(QQ, place, 1)
    point = PointAssignment(place, {"x": one, "y": FormalSqrt(one)})
    cached = PointAssignment(place, {"x": one, "y": FormalSqrt(one)},
                             {QQ: "filled"})
    assert point.cache == {} and point.cache is not PointAssignment(place, {}).cache
    assert point == cached and not point != cached
    assert point != PointAssignment(place, {"x": FormalSqrt(one), "y": FormalSqrt(one)})
    assert point != PointAssignment(place, {"x": one})
    assert point != PointAssignment(Place.finite(QQ.zero(), 1), point.bindings)
    assert "filled" not in repr(cached)


def test_system_equality_ignores_the_subsystems_it_has_built():
    source = "x^2 = t\ny = x\nx != 0"
    system, again = parse_system(source), parse_system(source)
    assert system.without_equation(0) is system.without_equation(0)
    _same_and_different([system, again], [parse_system("x^2 = t\ny = x"),
                                          system.without_equation(0)])


def test_run_claim_refuses_an_unknown_override():
    registry = builtin_registry()
    with pytest.raises(TypeError):
        run_claim("point_sqrt_t", registry, precison=8)
    assert run_claim("point_sqrt_t", registry, precision=8, mode="truncated").verdict == "pass"


def test_a_report_dictionary_keeps_its_key_order_and_empty_fields():
    place = Place.finite(QQ.zero(), 2)
    t = t_function(QQ, place)
    system = parse_system("x^2 = t\nx*y = 1/t\nx != 0\nx - x != 0")
    point = PointAssignment(place, {"x": r_function(QQ, place), "y": t ** -1})
    report = verify_point(system, point)
    assert list(report) == ["mode", "place", "passed", "equations", "inequations"]
    assert report["equations"] == [
        {"status": "exact_zero", "text": "x^2 = t", "precision": None,
         "residual_order": None, "residual_lead": None, "cleared_by": None},
        {"status": "failed", "text": "x * y = 1 / t", "precision": None,
         "residual_order": 0, "residual_lead": "-1", "cleared_by": "t"}]
    assert [list(e) for e in report["equations"]] == [
        ["status", "text", "precision", "residual_order", "residual_lead", "cleared_by"]] * 2
    assert report["inequations"] == [
        {"status": "nonzero", "text": "x != 0", "order": 1, "lead": "1"},
        {"status": "zero", "text": "x - x != 0", "order": None, "lead": None}]
    assert [list(i) for i in report["inequations"]] == [["status", "text", "order", "lead"]] * 2
    truncated = verify_point(system, point, mode="truncated", precision=6)
    assert list(truncated) == list(report)
    assert [list(e.items()) for e in truncated["equations"]] == [
        [("status", "zero_to_precision"), ("text", "x^2 = t"), ("precision", 6),
         ("residual_order", None), ("residual_lead", None), ("cleared_by", None)],
        [("status", "failed"), ("text", "x * y = 1 / t"), ("precision", 4),
         ("residual_order", 0), ("residual_lead", "-1"), ("cleared_by", "t")]]
