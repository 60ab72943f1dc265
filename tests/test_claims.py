import json
import pathlib
import sys
from fractions import Fraction

import pytest

from localpoints import claims, variety
from localpoints.cli import main
from localpoints.claims import (
    ClaimParams,
    builtin_registry,
    load_claim_file,
    parse_claim_file,
    run_all,
    run_claim,
)
from localpoints.errors import ClaimSyntaxError, DuplicateClaimError, UnknownClaimError
from localpoints.exprs import MAX_EXPONENT, MAX_POWER_DEGREE, MAX_RAMIFICATION
from localpoints.field_tower import adjoin_quadratic
from localpoints.series import SquareOutcome
from localpoints.variety import parse_system, print_system

EXAMPLE = pathlib.Path(__file__).resolve().parent.parent / "claims_example.txt"

# every explicit computation in scope must have a registered claim
REQUIRED_CLAIMS = [
    "point_sqrt_t",
    "point_cbrt_t",
    "point_q_family_q3",
    "point_q_family_q5",
    "point_q_family_q7",
    "point_q_family_q9",
    "point_infinity",
    "golden_nonlift_n1",
    "golden_nonlift_n2",
    "golden_nonlift_n3",
    "golden_nonlift_n4",
    "golden_nonlift_n5",
    "golden_shifted_form",
    "k3_cover_two_forms_obstructed",
    "k3_lift_sqrt_t",
    "k3_lift_infinity",
    "lemma91_property",
    "lemma91_case_partition",
    "orbifold_gt_threshold",
    "pullback_orbifold_bases",
    "semigroup_facts",
    "index_facts",
    "perturbation_sweep",
]


@pytest.fixture(scope="module")
def registry():
    return builtin_registry()


def test_registry_covers_manifest(registry):
    assert len(registry) >= 15
    missing = [name for name in REQUIRED_CLAIMS if name not in registry]
    assert not missing


def test_registry_kinds_are_valid(registry):
    from localpoints.claims import KINDS

    for claim in registry.values():
        assert claim.kind in KINDS


def test_run_point_sqrt_t(registry):
    report = run_claim("point_sqrt_t", registry)
    assert report.verdict == "pass"
    statuses = [eq["status"] for eq in report.evidence["equations"]]
    assert statuses == ["exact_zero", "exact_zero"]
    ineqs = [iq["status"] for iq in report.evidence["inequations"]]
    assert ineqs == ["nonzero", "nonzero"]


def test_unknown_claim(registry):
    with pytest.raises(UnknownClaimError):
        run_claim("nonexistent", registry)


def test_property_claim_with_overrides(registry):
    report = run_claim("lemma91_property", registry, samples=120, seed=1)
    assert report.verdict == "pass"
    assert report.evidence["counterexamples"] == []
    assert report.evidence["samples"] == 120
    again = run_claim("lemma91_property", registry, samples=120, seed=1)
    assert report.evidence == again.evidence


def test_golden_claim_evidence(registry):
    report = run_claim("golden_nonlift_n2", registry)
    assert report.verdict == "pass"
    assert report.evidence["orders"] == {"cover_factor": 1, "lhs_1": 1, "lhs_2": 1}
    assert report.evidence["cover_factor_valuation"] == "1/4"
    assert report.evidence["plain_cover"] == {"result": "obstructed", "order": 1}
    assert report.evidence["twisted_cover"] == {"result": "obstructed", "order": 3}


def test_k3_lift_claims(registry):
    sqrt_t = run_claim("k3_lift_sqrt_t", registry)
    assert sqrt_t.verdict == "pass"
    assert sqrt_t.evidence["lift"] == "lifts"
    assert sqrt_t.evidence["witness_square_matches"] is True
    infinity = run_claim("k3_lift_infinity", registry)
    assert infinity.verdict == "pass"
    assert infinity.evidence["lift"] == "lifts"


def _lifting(*args):
    return SquareOutcome("lifts", 0)


def _doubled_witness(*args, lift=claims._lift):
    outcome = lift(*args)
    return SquareOutcome(outcome.kind, outcome.order, 2 * outcome.witness, outcome.tower)


# each builtin computed in Python, and a lift claim, with one function it checks
# broken, and how its evidence then names the broken sub-check: no builtin passes
# because it checked nothing
BROKEN_BUILTINS = [
    ("golden_nonlift_n1", claims, "_lift", _lifting,
     lambda ev: ev["plain_cover"]["result"] == ev["twisted_cover"]["result"] == "lifts"),
    ("k3_cover_two_forms_obstructed", claims, "_lift", _lifting,
     lambda ev: (ev["plain_form"]["result"], ev["twisted_form"]["result"])
     == ("obstructed", "lifts")),
    ("k3_lift_sqrt_t", claims, "_lift", _doubled_witness,
     lambda ev: ev["lift"] == "lifts" and ev["witness_square_matches"] is False),
    ("lemma91_property", variety, "_sample_orders", lambda *args: (1, 1, 1),
     lambda ev: ev["counterexamples"] and all(c["g_order"] == 1 for c in ev["counterexamples"])),
    ("lemma91_case_partition", claims, "valuation_case_predicates", lambda vu, vx: (True, True),
     lambda ev: len(ev["violations"]) == ev["grid_points"]
     and all(v["hits"] == 2 for v in ev["violations"])),
    ("orbifold_gt_threshold", claims, "is_general_type", lambda curve: False,
     lambda ev: [f["d"] for f in ev["failures"] if f["check"] == "threshold"]
     == list(range(5, 51)) and len(ev["failures"]) == 46),
    ("pullback_orbifold_bases", claims, "degree", lambda curve: Fraction(0),
     lambda ev: [(f["d"], f["check"]) for f in ev["failures"]]
     == [(5, "degree"), (1, "degree"), (1, "degree")]),
    ("semigroup_facts", claims, "semigroup_contains", lambda profile, m: True,
     lambda ev: "3 in <2,5>" in ev["failures"]),
    ("index_facts", claims, "profile_stats", lambda profile: (1, 1, 1),
     lambda ev: {"profile": (2, 3), "stats": (2, 1, 1), "got": (1, 1, 1)} in ev["failures"]),
    # a degree of -11/2 for every curve: six infinite marks raise it to 1/2, but at 6/7
    # each only to -5/14, so each curve is one violation
    ("perturbation_sweep", claims, "degree", lambda curve: Fraction(-11, 2),
     lambda ev: ev["violations"] and all(v["inf"] == 6 for v in ev["violations"])
     and len(ev["violations"]) * 7 == ev["curves_checked"]),
]


@pytest.mark.parametrize("name, module, attribute, broken, named",
                         BROKEN_BUILTINS, ids=[row[0] for row in BROKEN_BUILTINS])
def test_a_builtin_fails_when_what_it_checks_is_broken(monkeypatch, registry, name, module,
                                                         attribute, broken, named):
    monkeypatch.setattr(module, attribute, broken)
    report = run_claim(name, registry, samples=16)
    assert report.verdict == "fail"
    assert named(report.evidence)


def test_run_all_filter(registry):
    reports, summary = run_all(registry, kind="orbifold_fact")
    assert summary["total"] == 3
    assert summary["failed"] == 0
    assert {r.kind for r in reports} == {"orbifold_fact"}


def test_truncated_mode_override(registry):
    report = run_claim("point_infinity", registry, mode="truncated", precision=18)
    assert report.verdict == "pass"
    statuses = {eq["status"] for eq in report.evidence["equations"]}
    assert statuses == {"zero_to_precision"}


def test_sweep_without_hypothesis_hits_is_undecided(registry):
    report = run_claim("lemma91_property", registry, samples=0)
    assert report.verdict == "undecided"
    assert report.evidence["hypothesis_hits"] == 0
    assert report.evidence["reason"] == "no_hypothesis_hits"


@pytest.mark.parametrize("precision", [0, 2])
def test_exhausted_precision_is_undecided(registry, precision):
    report = run_claim("point_sqrt_t", registry, mode="truncated", precision=precision)
    assert report.verdict == "undecided"
    assert report.evidence["reason"] == "precision_exhausted"
    assert report.evidence["precision"] == precision


POINT_FILE = """\
# the square-root point, declared in the claim language
claim file_sqrt_point
system:
  x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2
  (t^2*u^2 - t)*y^2 != 0
  x^2 - 2*t*u^2 + 1/t = t*(t^2*u^2 - t)*z^2
  t*(t^2*u^2 - t)*z^2 != 0
place: t = 0 ram 2
let u = 0
let x = 0
let y = sqrt(-1)
let z = sqrt(-1/t^3)
expect: pass
"""

OBSTRUCTED_FILE = """\
claim file_golden_obstruction
adjoin alpha : alpha^2 - alpha - 1 = 0
adjoin beta : beta^2 + alpha = 0
system:
  x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2
  (t^2*u^2 - t)*y^2 != 0
  x^2 - 2*t*u^2 + 1/t = t*(t^2*u^2 - t)*z^2
  t*(t^2*u^2 - t)*z^2 != 0
  w^2 = t^2*u^2 - t
place: t = -alpha ram 2
let u = 1/beta + r
let x = alpha
let y = sqrt((alpha^2 - t*(1/beta + r)^2 + t)/(t^2*(1/beta + r)^2 - t))
let z = sqrt((alpha^2 - 2*t*(1/beta + r)^2 + 1/t)/(t*(t^2*(1/beta + r)^2 - t)))
expect: obstructed
"""

NONSQUARE_FILE = """\
claim file_t_not_square
system:
  t
place: t = 0 ram 1
expect: nonsquare
"""

ORBIFOLD_FILE = """\
claim file_orbifold_half_marks
orbifold genus 0 marks [2, 2, 2, 2, 2]
degree: 1/2
general_type: true
"""


def test_load_point_claim_file(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text(POINT_FILE, encoding="utf-8")
    extended = load_claim_file(str(path), registry)
    assert "file_sqrt_point" in extended
    report = run_claim("file_sqrt_point", extended)
    assert report.verdict == "pass"


def test_load_obstruction_claim_file(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text(OBSTRUCTED_FILE, encoding="utf-8")
    extended = load_claim_file(str(path), registry)
    report = run_claim("file_golden_obstruction", extended)
    assert report.verdict == "pass"
    assert report.evidence["result"] == "obstructed"
    assert report.evidence["order"] == 1
    assert report.evidence["cover_variable"] == "w"


def test_load_nonsquare_claim_file(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text(NONSQUARE_FILE, encoding="utf-8")
    extended = load_claim_file(str(path), registry)
    report = run_claim("file_t_not_square", extended)
    assert report.verdict == "pass"
    assert report.evidence["order"] == 1


def test_load_orbifold_claim_file(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text(ORBIFOLD_FILE, encoding="utf-8")
    extended = load_claim_file(str(path), registry)
    report = run_claim("file_orbifold_half_marks", extended)
    assert report.verdict == "pass"
    assert report.evidence["degree"] == "1/2"


def test_empty_claim_file(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text("# nothing here\n", encoding="utf-8")
    extended = load_claim_file(str(path), registry)
    assert set(extended) == set(registry)


def test_duplicate_claim_name_rejected(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text("claim point_sqrt_t\nplace: t = 0 ram 1\n", encoding="utf-8")
    with pytest.raises(DuplicateClaimError):
        load_claim_file(str(path), registry)
    with pytest.raises(DuplicateClaimError):
        parse_claim_file("claim a\nplace: t = 0 ram 1\nclaim a\nplace: t = 0 ram 1\n")


def test_claim_file_syntax_error_location(tmp_path):
    with pytest.raises(ClaimSyntaxError) as err:
        parse_claim_file("claim ok\nwhatever line\n")
    assert err.value.line == 2
    with pytest.raises(ClaimSyntaxError):
        parse_claim_file("let x = 1\n")  # directive before any claim


def test_split_adjoin_is_rejected(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text(
        "claim bad_adjoin\nadjoin s : s^2 - 4 = 0\nplace: t = 0 ram 1\n", encoding="utf-8"
    )
    with pytest.raises(ClaimSyntaxError) as err:
        load_claim_file(str(path), registry)
    assert "root" in str(err.value)
    assert err.value.line == 2


# the builtins written in the claim language, in registry order
TEXT_BUILTINS = [
    "point_sqrt_t", "point_cbrt_t", "point_q_family_q3", "point_q_family_q5",
    "point_q_family_q7", "point_q_family_q9", "point_infinity", "golden_shifted_form",
    "k3_lift_sqrt_t", "k3_lift_infinity",
]


def test_parser_roundtrip_on_builtin_corpus(registry):
    from localpoints.claims import K3_LIFTS_TEXT, POINTS_TEXT, SHIFTED_FORM_TEXT
    from localpoints.exprs import parse_expression, to_text
    from localpoints.field_tower import QQ
    from localpoints.variety import parse_system, print_system

    def roundtrips(text):
        expr = parse_expression(text)
        return parse_expression(to_text(expr)) == expr

    corpus = parse_claim_file(POINTS_TEXT + SHIFTED_FORM_TEXT + K3_LIFTS_TEXT)
    assert [parsed.name for parsed in corpus] == TEXT_BUILTINS
    assert [name for name in registry if name in TEXT_BUILTINS] == TEXT_BUILTINS
    for parsed in corpus:
        claim = registry[parsed.name]
        tower = claim.system_tower or QQ
        system = parse_system(claim.system_source, tower)
        assert parse_system(print_system(system), tower) == system
        assert all(roundtrips(rhs) for _, _, rhs, _ in parsed.lets)
        for _, _, _, (left, _), (right, _) in parsed.checks:
            assert roundtrips(left) and roundtrips(right)
    assert sum(len(parsed.checks) for parsed in corpus) == 2


def test_default_params():
    params = ClaimParams()
    assert params.precision == 40
    assert params.samples == 500
    assert params.seed == 1
    assert params.mode == "exact"


def test_fail_reports_carry_reexecution_data(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text(
        """claim wrong_sign
system:
  x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2
place: t = 0 ram 2
let u = 0
let x = 0
let y = sqrt(1)
expect: pass
""",
        encoding="utf-8",
    )
    extended = load_claim_file(str(path), registry)
    report = run_claim("wrong_sign", extended)
    assert report.verdict == "fail"
    failed = report.evidence["equations"][0]
    assert failed["status"] == "failed"
    assert failed["residual_order"] == 2
    assert failed["residual_lead"] == "2"
    assert report.evidence["bindings"]["y"] == "sqrt(1)"
    assert "r^2" in report.evidence["place"]


def test_shipped_example_claim_file(registry):
    extended = load_claim_file(str(EXAMPLE), registry)
    new_names = sorted(set(extended) - set(registry))
    assert new_names == [
        "example_five_half_marks",
        "example_four_half_marks",
        "example_golden_certificate",
        "example_half_point",
        "example_t_is_not_a_square",
        "example_unramified_obstruction",
    ]
    for name in new_names:
        assert run_claim(name, extended).verdict == "pass", name


def test_run_all_reports_corrupted_entry():
    from localpoints.claims import Claim, ClaimOutcome, run_all as run_all_fn

    registry = builtin_registry()
    broken = dict(registry)
    broken["deliberately_broken"] = Claim(
        "deliberately_broken",
        "property_test",
        "always fails",
        lambda params: ClaimOutcome("fail", {"reason": "corrupted entry"}),
    )
    reports, summary = run_all_fn(broken, kind="property_test")
    assert summary["failed"] == 1
    assert "deliberately_broken" in summary["failures"]


@pytest.mark.parametrize(
    "minpoly",
    ["2*s^2 - 3", "s^3 - 2", "s^2 - 3/s", "s^2 - q"],
    ids=["non_monic", "cubic", "division_by_generator", "undeclared_identifier"],
)
def test_bad_adjoin_polynomial_is_positioned(tmp_path, registry, minpoly):
    path = tmp_path / "claims.txt"
    path.write_text(
        f"claim bad_adjoin\n# the generator\nadjoin s : {minpoly} = 0\nplace: t = 0 ram 1\n",
        encoding="utf-8",
    )
    with pytest.raises(ClaimSyntaxError) as err:
        load_claim_file(str(path), registry)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "bad_line, column",
    [("x^2 = 1/x", 11), ("x^2 = * 1", 9), ("1/x != 0", 5), ("x = r", 7), ("x^2 = 2*x^-2", 11),
     ("x = 1/(t - 1) + 1/(t - t)", 21)],
    ids=["division_by_variable", "syntax", "inequation", "local_parameter", "negative_power",
         "second_divisor_is_zero"],
)
def test_system_error_reports_the_file_line(tmp_path, registry, bad_line, column):
    path = tmp_path / "claims.txt"
    path.write_text(
        f"claim bad_system\nplace: t = 0 ram 1\nlet x = 1\nsystem:\n  x^2 = 1\n  {bad_line}\n",
        encoding="utf-8",
    )
    with pytest.raises(ClaimSyntaxError) as err:
        load_claim_file(str(path), registry)
    assert err.value.line == 6
    assert err.value.column == column
    assert str(err.value).startswith(f"line 6, column {column}:")


@pytest.mark.parametrize(
    "let_line, column",
    [("let x = (1 +", 13), ("  let x = sqrt(1 + q)", 20), ("let x = 2 * * 3", 13)],
    ids=["unclosed", "undeclared_in_indented_sqrt", "syntax"],
)
def test_let_error_reports_the_file_column(tmp_path, registry, let_line, column):
    path = tmp_path / "claims.txt"
    path.write_text(
        f"claim bad_let\nplace: t = 0 ram 1\n{let_line}\nsystem:\n  x^2 = 1\n",
        encoding="utf-8",
    )
    extended = load_claim_file(str(path), registry)
    with pytest.raises(ClaimSyntaxError) as err:
        run_claim("bad_let", extended)
    assert (err.value.line, err.value.column) == (3, column)


SQRT_POINT_CHECKS = """\
claim checked_point
description: the square-root point with extra checks
system:
  x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2
place: t = 0 ram 2
let u = 0
let x = 0
let y = sqrt(-1)
"""


@pytest.mark.parametrize(
    "check, verdict, evidence",
    [
        ("identity square: (1 - r^2)/(1 - r) = 1 + r", "pass", {"square": "exact"}),
        ("identity wrong: (1 - r^2)/(1 - r) = 1 - r", "fail", {"wrong": "failed"}),
        ("order g: t^2*u^2 - t + x = 2", "pass", {"g_order": 2, "g_valuation": "1"}),
        ("order g: t^2*u^2 - t = -1", "fail", {"g_order": 2, "g_valuation": "1"}),
        ("order unit: 1 + r = 0", "pass", {"unit_order": 0, "unit_valuation": "0"}),
        ("order g: t - t = 0", "fail", {"g_order": None, "g_valuation": None}),
    ],
    ids=["true_identity", "false_identity", "right_order", "wrong_order", "unit",
         "zero_has_no_order"],
)
def test_check_directives(tmp_path, registry, check, verdict, evidence):
    path = tmp_path / "claims.txt"
    path.write_text(SQRT_POINT_CHECKS + check + "\n", encoding="utf-8")
    extended = load_claim_file(str(path), registry)
    claim = extended["checked_point"]
    assert claim.description == "the square-root point with extra checks"
    assert claim.kind == ("squareness_certificate" if check.startswith("order")
                          else "point_verification")
    report = run_claim("checked_point", extended)
    assert report.verdict == verdict
    assert report.evidence["passed"] is True
    assert {key: report.evidence[key] for key in evidence} == evidence


def test_lifts_on_an_odd_cover_factor_fails(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text(
        "claim odd_cover\nsystem:\n  w^2 = t\nplace: t = 0 ram 1\n"
        "let w = sqrt(t)\nexpect: lifts\n",
        encoding="utf-8",
    )
    extended = load_claim_file(str(path), registry)
    assert extended["odd_cover"].kind == "lift_test"
    report = run_claim("odd_cover", extended)
    assert report.verdict == "fail"
    assert report.evidence["passed"] is True
    assert report.evidence["lift"] == "obstructed"
    assert "witness" not in report.evidence


def test_lifts_along_a_cover_factor_that_reads_w(tmp_path):
    # the lift evaluates g at the point it verified, w's square root included
    path = tmp_path / "claims.txt"
    path.write_text(
        "claim w_in_g\nsystem:\n  w^2 = w^2*(w^2 - t + 1)\nplace: t = 0 ram 2\n"
        "let w = sqrt(t)\nexpect: lifts\n",
        encoding="utf-8",
    )
    report = run_claim("w_in_g", load_claim_file(str(path), {}))
    assert report.verdict == "pass"
    assert report.evidence["witness_square_matches"] is True


def test_lifts_without_a_cover_equation_is_positioned(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text(
        "claim no_cover\nsystem:\n  x = 1\nplace: t = 0 ram 1\nlet x = 1\nexpect: lifts\n",
        encoding="utf-8",
    )
    with pytest.raises(ClaimSyntaxError) as err:
        load_claim_file(str(path), registry)
    assert err.value.line == 1


def test_lifts_without_a_cover_equation_is_an_error_though_its_point_fails(tmp_path):
    # the point fails to verify, and that must not hide the missing cover equation
    path = tmp_path / "claims.txt"
    path.write_text(
        "claim no_cover\nsystem:\n  x = 1\nplace: t = 0 ram 1\nlet x = 2\nexpect: lifts\n",
        encoding="utf-8",
    )
    with pytest.raises(ClaimSyntaxError) as err:
        run_claim("no_cover", load_claim_file(str(path), {}))
    assert (err.value.line, err.value.column) == (1, 1)
    assert err.value.message == "lifts: no cover equation w^2 = g"


@pytest.mark.parametrize(
    "line, column",
    [
        ("identity 1 = 1", 1),
        ("  identity ok 1 = 1", 3),
        ("identity ok: 1", 1),
        ("order g: t", 1),
        ("order g: t = two", 14),
        ("order bad label: t = 1", 1),
    ],
    ids=["no_label", "no_colon", "no_equals", "no_order", "order_not_integer", "bad_label"],
)
def test_malformed_check_line_is_positioned(line, column):
    with pytest.raises(ClaimSyntaxError) as err:
        parse_claim_file(SQRT_POINT_CHECKS + line + "\n")
    assert (err.value.line, err.value.column) == (9, column)


@pytest.mark.parametrize(
    "line, column",
    [("identity a: 1 + = r", 17), ("order g: q = 1", 10), ("  identity a: r = (1 + q)", 24)],
    ids=["syntax", "undeclared", "undeclared_in_indented_right_side"],
)
def test_check_expression_error_is_positioned(tmp_path, registry, line, column):
    path = tmp_path / "claims.txt"
    path.write_text(SQRT_POINT_CHECKS + line + "\n", encoding="utf-8")
    extended = load_claim_file(str(path), registry)
    with pytest.raises(ClaimSyntaxError) as err:
        run_claim("checked_point", extended)
    assert (err.value.line, err.value.column) == (9, column)


_SLOW_SWEEPS = ("lemma91_property", "perturbation_sweep")


@pytest.mark.parametrize("mode", ["exact", "truncated"])
@pytest.mark.parametrize("precision", [1, 2, 3])
@pytest.mark.parametrize(
    "name", [name for name in builtin_registry() if name not in _SLOW_SWEEPS]
)
def test_low_precision_never_fails(registry, name, precision, mode):
    report = run_claim(name, registry, precision=precision, mode=mode)
    assert report.verdict in ("pass", "undecided"), report.evidence
    if report.verdict == "undecided":
        assert report.evidence["reason"] == "precision_exhausted"


@pytest.mark.parametrize(
    "name, overrides",
    [("k3_lift_sqrt_t", {"precision": 1}), ("golden_nonlift_n1", {"precision": 0})],
)
def test_square_root_of_series_zero_to_precision_is_undecided(registry, name, overrides):
    report = run_claim(name, registry, **overrides)
    assert report.verdict == "undecided"
    assert report.evidence["reason"] == "precision_exhausted"


@pytest.mark.parametrize(
    "line, column",
    [("let v = 1/(t - t)", 11), ("identity oops: 1/x = 1", 18),
     ("let v = 1 + 1/(t - t)", 15), ("let v = (t - t)^-1", 9),
     ("let v = 1/(1/(t - t))", 14), ("let v = t/(t - 1) + 1/(t - t)^3", 23)],
    ids=["let", "identity", "let_second_term", "let_negative_power", "let_nested",
         "let_second_divisor"],
)
def test_division_by_zero_is_positioned(tmp_path, registry, line, column):
    # at the zero divisor, a negative power's at its base; a divisor that itself
    # divides by zero gives way to the zero one inside it
    path = tmp_path / "claims.txt"
    path.write_text(SQRT_POINT_CHECKS + line + "\n", encoding="utf-8")
    extended = load_claim_file(str(path), registry)
    with pytest.raises(ClaimSyntaxError) as err:
        run_claim("checked_point", extended)
    assert (err.value.line, err.value.column) == (9, column)
    assert "division by zero in " + line.split()[0] in str(err.value)


def test_text_claim_builds_its_tower_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return adjoin_quadratic(*args)

    monkeypatch.setattr(claims, "adjoin_quadratic", counted)
    registry = builtin_registry()
    # golden_shifted_form adjoins alpha and beta once, when the registry is built
    assert len(calls) == 2
    calls.clear()
    assert run_claim("golden_shifted_form", registry).verdict == "pass"
    assert calls == []


def test_golden_claims_share_the_registry_tower(monkeypatch):
    calls = []
    monkeypatch.setattr(claims, "adjoin_quadratic",
                        lambda *args: calls.append(args) or adjoin_quadratic(*args))
    registry = builtin_registry()
    assert len(calls) == 2  # alpha and beta, for every golden claim
    for name in ("golden_nonlift_n1", "golden_nonlift_n5", "k3_cover_two_forms_obstructed"):
        assert run_claim(name, registry).verdict == "pass"
    assert len(calls) == 2


def test_golden_nonlift_claims_certify_their_squares_with_solve_square(monkeypatch, registry):
    calls = []
    monkeypatch.setattr(claims, "solve_square",
                        lambda *args, f=claims.solve_square, **kwargs:
                        calls.append(args) or f(*args, **kwargs))
    for n in range(1, 6):
        calls.clear()
        report = run_claim(f"golden_nonlift_n{n}", registry)
        assert report.verdict == "pass"
        assert len(calls) == 2  # y and z
        assert sorted(report.evidence["square_witnesses"]) == ["y", "z"]


@pytest.mark.parametrize("name, verifications", [
    ("golden_nonlift_n1", 0),  # y and z are unbound: there is no base point to verify
    ("k3_cover_two_forms_obstructed", 1),  # lift_along_cover verifies the plain form's base
])
def test_golden_claims_verify_their_base_point_only_where_it_is_bound(
        monkeypatch, registry, name, verifications):
    from localpoints import variety

    calls = []
    for module in (variety, claims):
        monkeypatch.setattr(module, "verify_point", lambda *args, f=variety.verify_point,
                            **kwargs: calls.append(args) or f(*args, **kwargs))
    assert run_claim(name, registry).verdict == "pass"
    assert len(calls) == verifications


def test_golden_claim_reads_its_orders_from_the_cover_system():
    # a first base equation with the left-hand side x^2 = alpha^2, of order 0
    golden = parse_claim_file(claims.GOLDEN_POINT_TEXT)[0]
    tower = claims._build_tower(golden, {})
    source = claims._COVER_SYSTEM_SOURCE.replace("x^2 - t*u^2 + t =", "x^2 =", 1)
    assert source != claims._COVER_SYSTEM_SOURCE
    claim = claims._golden_nonlift_claim(1, golden, parse_system(source, tower))
    outcome = claim.run(ClaimParams())
    assert outcome.evidence["orders"] == {"cover_factor": 1, "lhs_1": 0, "lhs_2": 1}
    assert outcome.verdict == "fail"


def test_every_claim_system_roundtrips_over_its_own_tower(registry):
    # a nonsquare claim has one expression, not a system, so it records no system
    from localpoints.field_tower import QQ

    generated = pathlib.Path(__file__).resolve().parent / "data" / "generated_points_seed1.txt"
    extended = load_claim_file(str(generated), load_claim_file(str(EXAMPLE), registry))
    checked = 0
    for claim in extended.values():
        if claim.system_source is None:
            continue
        tower = claim.system_tower or QQ
        system = parse_system(claim.system_source, tower)
        assert parse_system(print_system(system), tower) == system
        checked += 1
    # 16 builtins, the example's half point and obstruction, and 10 generated points
    assert checked == 16 + 2 + 10
    for name in ("golden_nonlift_n1", "k3_cover_two_forms_obstructed"):
        assert extended[name].system_tower.generator_names == ("alpha", "beta")
    nonsquare = [parsed.name for parsed in parse_claim_file(EXAMPLE.read_text(encoding="utf-8"))
                 if parsed.expect == "nonsquare"]
    assert nonsquare and all(extended[name].system_source is None for name in nonsquare)


def test_a_check_that_reads_a_square_root_let_names_the_rule(tmp_path):
    path = tmp_path / "claims.txt"
    path.write_text("claim sqrt_in_order\nplace: t = 0 ram 2\nsystem:\n  y^2 = t\n"
                    "let y = sqrt(t)\norder k: y = 1\n", encoding="utf-8")
    with pytest.raises(ClaimSyntaxError) as err:
        run_claim("sqrt_in_order", load_claim_file(str(path), {}))
    assert str(err.value) == ("line 6, column 10: 'y' is a square-root let; checks and "
                              "nonsquare expressions read only exact lets")


# inputs that ended in a traceback (and `general_type: yes`, which read as false);
# each is now a ClaimSyntaxError at the line and column of the fault
POSITIONED_ERRORS = [
    ("place_center_divides_by_zero",
     "adjoin s : s^2 - 2 = 0\nplace: t = 1/(s - s)\nsystem:\n  x = 1\nlet x = 1", 3, 14),
    ("ramification_zero", "place: t = 0 ram 0\nsystem:\n  x = 1\nlet x = 1", 2, 18),
    ("ramification_negative", "place: t = 0 ram -2\nsystem:\n  x = 1\nlet x = 1", 2, 18),
    # past exprs.MAX_RAMIFICATION, refused at load: ram 99999999999 ran out of memory at run time
    ("ramification_past_the_bound", "place: t = 0 ram 10001\nsystem:\n  x = 1\nlet x = 1", 2, 18),
    ("ramification_huge", "place: t = 0 ram 99999999999\nsystem:\n  x = 1\nlet x = 1", 2, 18),
    # past exprs.MAX_EXPONENT or exprs.MAX_POWER_DEGREE, refused at load at the literal:
    # t^10000 at ram 10000 and t^100000000 at ram 1 ran out of memory at run time
    ("exponent_at_the_ramification_bound",
     "place: t = 0 ram 10000\nsystem:\n  x = 1\nlet x = 1 + t^10000", 5, 15),
    ("exponent_huge", "place: t = 0 ram 1\nsystem:\n  x = 1\nlet x = 1 + t^100000000", 5, 15),
    ("exponent_past_the_bound", "place: t = 1 ram 1\nsystem:\n  x = 1\nlet x = 1 + t^1001",
     5, 15),
    ("power_degree_past_the_bound",
     "place: t = 0 ram 10000\nsystem:\n  x = 1\nlet x = 1 + t^101", 5, 15),
    ("power_of_r_past_the_degree_bound",
     "place: t = 0 ram 1\nsystem:\n  x = 1\nlet x = r^1000001", 5, 11),
    ("power_of_a_let_named_r_past_the_bound",
     "place: t = 0 ram 1\nsystem:\n  x = 1\nlet x = 1\nlet r = t\nidentity i: r^1001 = 0",
     7, 15),
    ("negative_exponent_in_the_system",
     "place: t = 0 ram 2\nsystem:\n  x = t^ - 500001\nlet x = 1", 4, 12),
    ("exponent_in_an_order_check",
     "place: t = 0 ram 1000\nsystem:\n  x = 1\nlet x = 1\norder g: t^1001 = 3", 6, 12),
    ("exponent_in_an_adjoin", "adjoin s : s^2 - 2^1001 = 0\nplace: t = 0\nsystem:\n  x = 1",
     2, 20),
    ("exponent_in_a_place_center", "place: t = 2^1001 ram 1\nsystem:\n  x = 1\nlet x = 1", 2, 14),
    ("exponent_in_a_degree", "orbifold genus 0 marks [2, 3]\ndegree: 2^1001", 3, 11),
    ("nonsquare_target_uses_a_sqrt_let",
     "system:\n  1 + y\nplace: t = 0 ram 1\nlet y = sqrt(t)\nexpect: nonsquare", 3, 7),
    ("sqrt_let_with_an_odd_power",
     "system:\n  y = t\nplace: t = 0 ram 1\nlet y = sqrt(t)", 5, 9),
    ("generator_adjoined_twice", "adjoin s : s^2 - 2 = 0\nadjoin s : s^2 - 3 = 0", 3, 8),
    ("genus_not_an_integer", "orbifold genus x marks [2, 3]", 2, 16),
    ("genus_negative", "orbifold genus -1 marks [2, 3]", 2, 16),
    ("mark_zero", "orbifold genus 0 marks [0, 2]", 2, 25),
    ("degree_not_a_rational", "orbifold genus 0 marks [2, 3]\ndegree: abc", 3, 9),
    ("degree_divides_by_zero", "orbifold genus 0 marks [2, 3]\ndegree: 1/0", 3, 11),
    ("general_type_not_a_boolean", "orbifold genus 0 marks [2, 3]\ngeneral_type: yes", 3, 15),
    ("variable_no_let_binds", "system:\n  x^2 = t\nplace: t = 0 ram 2", 3, 3),
    ("variable_no_let_binds_after_a_bound_one",
     "system:\n  x^2 = t*u\nplace: t = 0 ram 2\nlet x = r", 3, 11),
    ("obstructed_without_a_cover_equation",
     "system:\n  x^2 = t\nplace: t = 0 ram 2\nlet x = r\nexpect: obstructed", 1, 1),
    ("obstructed_with_its_cover_variable_bound",
     "system:\n  w^2 = t\nplace: t = 0 ram 1\nlet w = r\nexpect: obstructed", 1, 1),
    ("obstructed_cover_variable_used_elsewhere",
     "system:\n  x^2 = t\n  w^2 = t\n  w != 0\nplace: t = 0 ram 2\nlet x = r\n"
     "expect: obstructed", 4, 3),
]


@pytest.mark.parametrize(
    "body, line, column", [row[1:] for row in POSITIONED_ERRORS],
    ids=[row[0] for row in POSITIONED_ERRORS],
)
def test_bad_input_is_a_positioned_error(tmp_path, registry, body, line, column):
    path = tmp_path / "claims.txt"
    path.write_text(f"claim broken\n{body}\n", encoding="utf-8")
    with pytest.raises(ClaimSyntaxError) as err:
        run_claim("broken", load_claim_file(str(path), registry))
    assert (err.value.line, err.value.column) == (line, column)


def test_a_place_at_the_ramification_bound_runs(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text(f"claim edge\nsystem:\n  x^2 = t\nplace: t = 0 ram {MAX_RAMIFICATION}\n"
                    f"let x = r^{MAX_RAMIFICATION // 2}\n", encoding="utf-8")
    assert run_claim("edge", load_claim_file(str(path), registry)).verdict == "pass"


# each bound's largest literal loads; the costliest to run, the largest exponent off t = 0,
# also runs (in about 0.2 s), while the other two take about a second each
@pytest.mark.parametrize("place, power, runs", [
    ("1 ram 1", f"t^{MAX_EXPONENT}", True),
    ("0 ram 10000", f"t^-{MAX_POWER_DEGREE // 10000}", False),
    ("0 ram 1", f"r^{MAX_POWER_DEGREE}", False),
], ids=["exponent", "degree_of_a_power_of_t", "degree_of_a_power_of_r"])
def test_an_exponent_at_the_bound_loads(tmp_path, registry, place, power, runs):
    path = tmp_path / "claims.txt"
    path.write_text(f"claim edge\nsystem:\n  x = x\nplace: t = {place}\nlet x = 1 + {power}\n",
                    encoding="utf-8")
    loaded = load_claim_file(str(path), registry)
    if runs:
        assert run_claim("edge", loaded).verdict == "pass"


def test_bad_input_exits_two_from_the_command_line(tmp_path, capsys):
    path = tmp_path / "claims.txt"
    path.write_text("claim broken\nsystem:\n  y = t\nplace: t = 0 ram 1\nlet y = sqrt(t)\n",
                    encoding="utf-8")
    assert main(["load", str(path), "run", "broken"]) == 2
    assert capsys.readouterr().err.startswith("error: line 5, column 9:")


# claim-file expressions that ended in a traceback or were misread: a superscript
# two went to int(), an Arabic-Indic one read as 1, long sums or deep nesting
# overflowed the interpreter stack, and int() refused an integer longer than its
# limit, in an expression, an order, a ramification, a genus or a mark
DIGITS = sys.get_int_max_str_digits()
TOO_LONG = f"integer literal has {DIGITS + 1} digits; at most {DIGITS} are allowed"
UNREADABLE_EXPRESSIONS = [
    ("superscript_digit", "let x = sqrt(t^\u00b2)\nsystem:\n  x^2 = t", 3, 16,
     "unexpected character '\u00b2'"),
    ("arabic_indic_digit", "let x = sqrt(t^\u0661)\nsystem:\n  x^2 = t", 3, 16,
     "unexpected character '\u0661'"),
    ("long_let_sum", "let x = sqrt(" + "+".join(["t"] * 1500) + ")\nsystem:\n  x^2 = t",
     3, 14 + 2 * 201 - 1, "expression nested deeper than 200 levels"),
    ("nested_parentheses", "let x = " + "(" * 1200 + "t" + ")" * 1200 + "\nsystem:\n  x = t",
     3, 9 + 200, "expression nested deeper than 200 levels"),
    ("long_system_sum", "let x = r\nsystem:\n  " + "+".join(["x"] * 500) + " = t",
     5, 3 + 2 * 201 - 1, "expression nested deeper than 200 levels"),
    ("long_let_literal", "let x = " + "1" * (DIGITS + 1) + "\nsystem:\n  x = t",
     3, 9, TOO_LONG),
    ("long_system_literal", "let x = r\nsystem:\n  x = " + "1" * (DIGITS + 1), 5, 7, TOO_LONG),
    ("long_exponent", "let x = sqrt(t^" + "2" * (DIGITS + 1) + ")\nsystem:\n  x^2 = t",
     3, 16, TOO_LONG),
    ("long_order", "system:\n  x = 1\nlet x = 1\norder g: t = " + "3" * (DIGITS + 1),
     6, 14, TOO_LONG),
    ("long_ramification",
     "place: t = 0 ram " + "1" * (DIGITS + 1) + "\nsystem:\n  x = 1\nlet x = 1", 3, 18, TOO_LONG),
    ("long_genus", "orbifold genus " + "1" * (DIGITS + 1) + " marks [2, 3]", 3, 16, TOO_LONG),
    ("long_mark", "orbifold genus 0 marks [2, " + "1" * (DIGITS + 1) + "]", 3, 25, TOO_LONG),
]


@pytest.mark.parametrize(
    "body, line, column, message", [row[1:] for row in UNREADABLE_EXPRESSIONS],
    ids=[row[0] for row in UNREADABLE_EXPRESSIONS],
)
def test_unreadable_expression_exits_two_from_the_command_line(tmp_path, capsys, body, line,
                                                               column, message):
    path = tmp_path / "claims.txt"
    path.write_text(f"claim broken\nplace: t = 0 ram 1\n{body}\n", encoding="utf-8")
    assert main(["load", str(path), "run", "broken"]) == 2
    assert capsys.readouterr().err == f"error: line {line}, column {column}: {message}\n"


@pytest.mark.parametrize(
    "claim, dropped, message",
    [("example_half_point", "let x = 0",
      "line 13, column 3: unbound variable 'x': no let binds it"),
     ("example_unramified_obstruction", "  w^2 = t^2*u^2 - t",
      "line 24, column 1: obstructed: no cover equation w^2 = g")],
    ids=["unbound_variable", "obstructed_without_cover"],
)
def test_example_file_with_a_line_dropped_exits_two(tmp_path, capsys, claim, dropped, message):
    lines = EXAMPLE.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"claim {claim}")
    lines.pop(lines.index(dropped, start))
    path = tmp_path / "claims.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["load", str(path), "run", claim]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "line, edited",
    [("let x = 0", "let x = 1"), ("  w^2 = t^2*u^2 - t", "  w^2 = t^2*u^2 - t^2*u^2")],
    ids=["base_point_fails", "cover_factor_vanishes"],
)
def test_example_obstruction_edited_fails(tmp_path, capsys, line, edited):
    lines = EXAMPLE.read_text(encoding="utf-8").splitlines()
    start = lines.index("claim example_unramified_obstruction")
    lines[lines.index(line, start)] = edited
    path = tmp_path / "claims.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["load", str(path), "run", "example_unramified_obstruction", "--json"]) == 1
    evidence = json.loads(capsys.readouterr().out)["evidence"]
    if edited.startswith("let"):  # the verification evidence of the base system
        assert evidence["passed"] is False
        assert [eq["status"] for eq in evidence["equations"]] == ["failed", "failed"]
    else:
        assert evidence == {"cover_variable": "w", "result": "zero", "order": None}


ZERO_COVER = """\
claim zero_cover
system:
  w^2 = x
place: t = 0 ram 1
let x = 0
let w = sqrt(0)
expect: lifts
"""


@pytest.mark.parametrize("mode", ["exact", "truncated"])
def test_lifts_claim_whose_cover_factor_vanishes_fails(tmp_path, capsys, mode):
    # the point verifies, but g = x vanishes there: there is no lift to check
    path = tmp_path / "claims.txt"
    path.write_text(ZERO_COVER, encoding="utf-8")
    assert main(["load", str(path), "run", "zero_cover", "--mode", mode, "--json"]) == 1
    evidence = json.loads(capsys.readouterr().out)["evidence"]
    assert (evidence["passed"], evidence["lift"]) == (True, "zero")
    assert main(["load", str(path), "all", "--mode", mode]) == 1
    out = capsys.readouterr().out
    assert "FAIL  zero_cover" in out and "    lift: zero\n" in out
    assert out.endswith("failures: zero_cover\n")


@pytest.mark.parametrize(
    "target, verdict, result, order",
    [("r", "pass", "nonsquare", 1), ("t - t", "fail", "zero", None),
     ("t^2", "fail", "witness", 2)],
    ids=["local_parameter", "zero", "square"],
)
def test_nonsquare_target(tmp_path, registry, target, verdict, result, order):
    path = tmp_path / "claims.txt"
    path.write_text(f"claim target\nsystem:\n  {target}\nplace: t = 0 ram 1\nexpect: nonsquare\n",
                    encoding="utf-8")
    report = run_claim("target", load_claim_file(str(path), registry))
    assert report.verdict == verdict
    assert report.evidence == {"expression": target, "result": result, "order": order}


REPEATED_LETS = """\
claim repeated_lets
system:
  g
place: t = 0 ram 1
let a = (t^2 + 1)*(t^2 + 1)
let g = t*(t^2 + 1)
expect: nonsquare
"""


@pytest.fixture
def rational_function_operations(monkeypatch):
    """Counts of the RationalFunction products, sums, quotients and powers made from here on."""
    from localpoints.series import RationalFunction

    counts = {}
    for method, label in [("__mul__", "mul"), ("__rmul__", "mul"), ("_sum", "sum"),
                          ("__truediv__", "div"), ("__rtruediv__", "div"), ("__pow__", "pow")]:
        def counted(*args, _operation=getattr(RationalFunction, method), _label=label):
            counts[_label] = counts.get(_label, 0) + 1
            return _operation(*args)
        monkeypatch.setattr(RationalFunction, method, counted)
    return counts


def test_a_let_subtree_repeated_across_lets_is_evaluated_once_per_run(
        tmp_path, rational_function_operations):
    path = tmp_path / "claims.txt"
    path.write_text(REPEATED_LETS, encoding="utf-8")
    extended = load_claim_file(str(path), {})
    # t^2 + 1, the claim's only sum, is written three times across its lets; a cache
    # that outlived the run would make the second run cheaper
    for _ in range(2):
        rational_function_operations.clear()
        assert run_claim("repeated_lets", extended).verdict == "pass"
        assert rational_function_operations["sum"] == 1


def test_a_let_that_shadows_t_keeps_its_check_verdicts(tmp_path):
    path = tmp_path / "claims.txt"
    path.write_text(
        "claim shadowed_t\n"
        "system:\n"
        "  g\n"
        "place: t = 0 ram 1\n"
        "let t = t + 1\n"
        "let g = t*(t + 1)\n"
        "identity shadow: t = r + 1\n"
        "identity product: g = r*(r + 1)\n"
        "expect: nonsquare\n",
        encoding="utf-8",
    )
    report = run_claim("shadowed_t", load_claim_file(str(path), {}))
    # lets see the place's t = r; checks see the let
    assert report.verdict == "pass"
    assert report.evidence["shadow"] == "exact"
    assert report.evidence["product"] == "exact"


GENERATED = pathlib.Path(__file__).resolve().parent / "data" / "generated_points_seed1.txt"


@pytest.fixture
def system_parses(monkeypatch):
    """The arguments of every parse_system call the claims make."""
    calls = []
    parse_system = claims.parse_system
    monkeypatch.setattr(claims, "parse_system",
                        lambda *args: calls.append(args) or parse_system(*args))
    return calls


def test_each_distinct_system_is_parsed_once_per_registry(system_parses, capsys):
    # the 16 builtins with a system use 4 (text, tower) pairs
    assert main(["all", "--samples", "60"]) == 0
    assert len(system_parses) == 4
    # the generated file's 10 claims use 6; a second registry of the same file
    # parses them again, so nothing outlives the registry that parsed it
    for _ in range(2):
        system_parses.clear()
        reports, _ = run_all(load_claim_file(str(GENERATED), {}))
        assert [r.verdict for r in reports] == ["pass"] * 10
        assert len(system_parses) == 6
        assert len({(text, tower) for text, tower in system_parses}) == 6


@pytest.mark.parametrize("name, verdict, work", [
    # a pass claim over a height-2 tower: evaluated apart, its lets and its system
    # pass made 36 products, 12 sums, 7 quotients and 9 powers, when each power
    # still began with a product by one
    ("gen_0006_h2", "pass", {"mul": 19, "sum": 7, "div": 6, "pow": 6}),
    # an obstructed claim over a height-1 tower: apart, its lets, its base pass and its
    # cover factor made 39, 13, 7 and 11
    ("gen_0008_h1", "pass", {"mul": 17, "sum": 7, "div": 6, "pow": 6}),
])
def test_a_claim_run_makes_each_exact_operation_once(name, verdict, work,
                                                     rational_function_operations):
    """The lets, the exact system pass and the cover factor share one cache, so the
    system's x^2, t*u^2 and t^2*u^2 - t are the lets' own; each run does the same work."""
    registry = load_claim_file(str(GENERATED), {})
    for _ in range(2):
        rational_function_operations.clear()
        assert run_claim(name, registry, mode="exact").verdict == verdict
        assert rational_function_operations == work


BROKEN_TWICE = """\
claim broken_first
place: t = 0 ram 1
let x = 1
system:
  x^2 = * 1
claim broken_second
place: t = 0 ram 1
let x = 1
# the same system text, one line further down and two columns to the right
system:
    x^2 = * 1
"""


def test_claims_with_the_same_broken_system_report_their_own_positions(tmp_path):
    path = tmp_path / "claims.txt"
    path.write_text(BROKEN_TWICE, encoding="utf-8")
    with pytest.raises(ClaimSyntaxError) as err:
        load_claim_file(str(path), {})
    assert (err.value.line, err.value.column) == (5, 9)
    # a system that does not parse is never kept, so no claim sees another's error
    # when the claims are built over one registry's shared towers and systems
    towers, systems = {}, {}
    first, second = parse_claim_file(BROKEN_TWICE)
    for parsed, position in [(first, (5, 9)), (second, (11, 11)), (first, (5, 9))]:
        with pytest.raises(ClaimSyntaxError) as err:
            claims._claim_from_parsed(parsed, towers, systems)
        assert (err.value.line, err.value.column) == position
        assert str(err.value).endswith("expected an expression, got '*'")


ONE_SYSTEM_THREE_POINTS = """\
claim bound
system:
  x^3 = t^3
place: t = 0 ram 1
let x = r
claim unbound
system:
  x^3 = t^3
place: t = 0 ram 1
claim odd_power
system:
  x^3 = t^3
place: t = 0 ram 1
let x = sqrt(t^2)
"""


def test_each_claim_checks_its_points_on_a_shared_system(tmp_path, system_parses):
    path = tmp_path / "claims.txt"
    # the claims are built as loading builds them, over one registry's shared systems
    towers, systems = {}, {}
    bound, unbound, odd_power = parse_claim_file(ONE_SYSTEM_THREE_POINTS)
    registry = {"bound": claims._claim_from_parsed(bound, towers, systems)}
    assert run_claim("bound", registry).verdict == "pass"
    for parsed, position, message in [
            (unbound, (8, 3), "unbound variable 'x': no let binds it"),
            (odd_power, (14, 9), "'x' is a square root; the system has an odd power of it")]:
        with pytest.raises(ClaimSyntaxError) as err:
            claims._claim_from_parsed(parsed, towers, systems)
        assert (err.value.line, err.value.column) == position
        assert str(err.value).endswith(message)
    assert len(system_parses) == 1
    # loading the file stops at its first fault
    path.write_text(ONE_SYSTEM_THREE_POINTS, encoding="utf-8")
    with pytest.raises(ClaimSyntaxError) as err:
        load_claim_file(str(path), {})
    assert (err.value.line, err.value.column) == (8, 3)


@pytest.mark.parametrize("name", ["point_sqrt_t", "k3_lift_sqrt_t",
                                  "k3_cover_two_forms_obstructed", "gen_0003_h0"])
def test_a_second_run_reuses_the_facts_of_its_system(monkeypatch, name):
    # a pass, a lifts and two obstructed claims; gen_0003_h0 is a claim-file one
    from localpoints import variety

    registry = load_claim_file(str(GENERATED), builtin_registry())
    calls = []
    for spied in ("_denominators", "to_text", "odd_power_symbols"):
        monkeypatch.setattr(variety, spied, lambda *args, f=getattr(variety, spied), n=spied:
                            calls.append(n) or f(*args))
    first = run_claim(name, registry)
    assert first.verdict == "pass"
    assert "to_text" in calls
    calls.clear()
    second = run_claim(name, registry)
    # clearing, report texts and odd powers were all worked out on the first run
    assert calls == []
    assert second.evidence == first.evidence


# faults that loading finds, so `verify load FILE list` exits 2 as `all` does;
# an integer field is ASCII digits, so an Arabic-Indic two (U+0662) is refused
STATIC_ERRORS = [
    ("place_without_t", "place: 0 ram 1\nsystem:\n  x = 1\nlet x = 1",
     "line 2, column 8: place: t = CENTER ram E"),
    ("place_center_undeclared", "place: t = q\nsystem:\n  x = 1\nlet x = 1",
     "line 2, column 12: undeclared identifier 'q' in place center"),
    ("nonsquare_with_two_expressions",
     "system:\n  t\n  t + 1\nplace: t = 0 ram 1\nexpect: nonsquare",
     "line 1, column 1: a nonsquare claim takes exactly one expression"),
    ("ramification_arabic_indic", "place: t = 0 ram ٢\nsystem:\n  x = 1\nlet x = 1",
     "line 2, column 18: ramification must be a positive integer"),
    ("order_arabic_indic", "place: t = 0 ram 1\nsystem:\n  x = 1\nlet x = 1\norder g: t = ٢",
     "line 6, column 14: an order is an integer"),
    ("order_with_two_minus_signs",
     "place: t = 0 ram 1\nsystem:\n  x = 1\nlet x = 1\norder g: t = --2",
     "line 6, column 14: an order is an integer"),
    ("genus_arabic_indic", "orbifold genus ٢ marks [2, 3]",
     "line 2, column 16: the genus is a nonnegative integer"),
    ("mark_arabic_indic", "orbifold genus 0 marks [2, ٢]",
     "line 2, column 25: marks are positive integers or inf"),
    # a line of the other kind of claim would be ignored, and the verdict vacuous
    ("point_with_orbifold_assertions",
     "place: t = 0 ram 1\nsystem:\n  x = 1\nlet x = 1\ndegree: 99\ngeneral_type: true",
     "line 6, column 1: 'degree:' needs an orbifold line"),
    ("orbifold_with_point_lines",
     "orbifold genus 0 marks [2, 2, 2, 2, 2]\n  identity bogus: 1 = 2\nexpect: obstructed",
     "line 3, column 3: an orbifold fact takes no 'identity' line"),
    # a repeated line would override the first one without a word
    ("place_twice", "place: t = 0 ram 2\nplace: t = 1 ram 1\nsystem:\n  x = 1\nlet x = 1",
     "line 3, column 1: a claim takes one 'place:' line"),
    ("expect_twice",
     "system:\n  t\nplace: t = 0 ram 1\nexpect: nonsquare\n  expect: pass",
     "line 6, column 3: a claim takes one 'expect:' line"),
    ("orbifold_twice", "orbifold genus 0 marks [2]\norbifold genus 1 marks []",
     "line 3, column 1: a claim takes one 'orbifold' line"),
    ("description_twice",
     "description: one\nplace: t = 0 ram 1\nsystem:\n  x = 1\nlet x = 1\ndescription: two",
     "line 7, column 1: a claim takes one 'description:' line"),
    # a generator named t or r would shadow the coordinate or the local parameter
    ("generator_named_t",
     "adjoin t : t^2 - 2 = 0\nsystem:\n  x^2 = 2\nplace: t = 0 ram 1\nlet x = t",
     "line 2, column 8: generator name 't' is reserved"),
    ("generator_named_r", "  adjoin r : r^2 - 2 = 0\nplace: t = 0 ram 1",
     "line 2, column 10: generator name 'r' is reserved"),
    # a let that rebinds t or a generator would change what the system says
    ("let_binds_t", "system:\n  x = t\nplace: t = 0 ram 1\nlet x = 1\nlet t = 1",
     "line 6, column 5: a let may not bind 't': the system reads it as the coordinate"),
    ("let_binds_a_generator",
     "adjoin alpha : alpha^2 - 2 = 0\nsystem:\n  x = alpha\nplace: t = 0 ram 1\n"
     "let x = 1\nlet  alpha = 1\nexpect: lifts",
     "line 7, column 6: a let may not bind 'alpha': the system reads it as a generator"),
    # a claim's system is parsed and checked against its let names when it is built
    ("system_syntax", "place: t = 0 ram 1\nlet x = 1\nsystem:\n  x^2 = * 1",
     "line 5, column 9: expected an expression, got '*'"),
    # a divisor in t and the generators that vanishes is zero at every place
    *((f"system_divides_by_zero_{name}", f"adjoin s : s^2 - 2 = 0\nsystem:\n  x = 1/({divisor})\n"
       "place: t = 0 ram 1\nlet x = 1", "line 4, column 9: division by zero in system")
      for name, divisor in (("in_t", "t - t"), ("constant", "1 - 1"),
                            ("in_a_generator", "s^2 - 2"))),
    # at the zero divisor, as in a let, not at the divisor that contains it
    ("system_divides_by_zero_inside_a_divisor",
     "system:\n  x = 1/(1/(t - t))\nplace: t = 0 ram 1\nlet x = 1",
     "line 3, column 12: division by zero in system"),
    ("unbound_variable", "system:\n  x = y\nplace: t = 0 ram 1\nlet x = 1",
     "line 3, column 7: unbound variable 'y': no let binds it"),
    ("no_cover_equation", "system:\n  x = 1\nplace: t = 0 ram 1\nlet x = 1\nexpect: obstructed",
     "line 1, column 1: obstructed: no cover equation w^2 = g"),
    ("sqrt_let_with_an_odd_power", "system:\n  x^3 = t^3\nplace: t = 0 ram 1\nlet x = sqrt(t^2)",
     "line 5, column 9: 'x' is a square root; the system has an odd power of it"),
    # a claim that checks nothing would pass vacuously
    ("checks_nothing", "place: t = 0 ram 1\nlet x = 1",
     "line 1, column 1: claim 'broken' checks nothing: it has no system and no identity or "
     "order line"),
]


@pytest.mark.parametrize(
    "body, message", [row[1:] for row in STATIC_ERRORS], ids=[row[0] for row in STATIC_ERRORS],
)
def test_static_error_exits_two_at_list(tmp_path, capsys, body, message):
    path = tmp_path / "claims.txt"
    path.write_text(f"claim broken\n{body}\n", encoding="utf-8")
    assert main(["load", str(path), "list"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_example_file_without_a_place_exits_two_at_list(tmp_path, capsys):
    lines = EXAMPLE.read_text(encoding="utf-8").splitlines()
    start = lines.index("claim example_t_is_not_a_square")
    lines.pop(lines.index("place: t = 0 ram 1", start))
    path = tmp_path / "claims.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["load", str(path), "list"]) == 2
    assert capsys.readouterr().err == (
        "error: line 40, column 1: claim 'example_t_is_not_a_square' has no place\n")


# a system that divides by zero and a claim that checks nothing: their runs used to
# end in a traceback (exact), an undecided (truncated) or a vacuous pass
NOW_AT_LOAD = [row for row in STATIC_ERRORS
               if row[0].startswith(("system_divides_by_zero", "checks_nothing"))]


@pytest.mark.parametrize("mode", ["exact", "truncated"])
@pytest.mark.parametrize(
    "body, message", [row[1:] for row in NOW_AT_LOAD], ids=[row[0] for row in NOW_AT_LOAD])
def test_a_zero_divisor_or_an_empty_claim_is_a_load_error_in_both_modes(
        tmp_path, capsys, mode, body, message):
    path = tmp_path / "claims.txt"
    path.write_text(f"claim broken\n{body}\n", encoding="utf-8")
    assert main(["load", str(path), "all", "--mode", mode]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mode", ["exact", "truncated"])
def test_a_claim_with_checks_and_no_system_stays_valid(tmp_path, mode):
    path = tmp_path / "claims.txt"
    path.write_text("claim checks_only\nplace: t = 0 ram 2\n"
                    "identity square: (1 - r^2)/(1 - r) = 1 + r\n", encoding="utf-8")
    report = run_claim("checks_only", load_claim_file(str(path), {}), mode=mode)
    assert report.verdict == "pass"
    assert report.evidence["square"] == "exact"


def test_no_claim_run_parses_or_checks_a_system(monkeypatch):
    # both registries are built first: every system is parsed and checked there
    registries = [builtin_registry(), load_claim_file(str(GENERATED), {})]
    calls = []
    for spied in ("parse_system", "_build_system"):
        monkeypatch.setattr(claims, spied, lambda *args, n=spied: calls.append(n))
    for registry in registries:
        reports, summary = run_all(registry, samples=60)
        assert summary["failed"] == 0 and summary["passed"] == len(reports)
    assert calls == []
