import pytest

from localpoints.claims import (
    ClaimParams,
    builtin_registry,
    load_claim_file,
    parse_claim_file,
    run_all,
    run_claim,
)
from localpoints.errors import ClaimSyntaxError, DuplicateClaimError, UnknownClaimError

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
        for _, kind, _, body in parsed.checks:
            left, _, right = body.rpartition("=") if kind == "order" else body.partition("=")
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
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "claims_example.txt"
    extended = load_claim_file(str(path), registry)
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
    [("x^2 = 1/x", 3), ("x^2 = * 1", 9), ("1/x != 0", 3), ("x = r", 3)],
    ids=["division_by_variable", "syntax", "inequation", "local_parameter"],
)
def test_system_error_reports_the_file_line(tmp_path, registry, bad_line, column):
    path = tmp_path / "claims.txt"
    path.write_text(
        f"claim bad_system\nplace: t = 0 ram 1\nlet x = 1\nsystem:\n  x^2 = 1\n  {bad_line}\n",
        encoding="utf-8",
    )
    extended = load_claim_file(str(path), registry)
    with pytest.raises(ClaimSyntaxError) as err:
        run_claim("bad_system", extended)
    assert err.value.line == 6
    assert err.value.column == column
    assert str(err.value).startswith(f"line 6, column {column}:")


@pytest.mark.parametrize(
    "let_line, column",
    [("let x = (1 +", 13), ("  let x = sqrt(1 + q)", 16), ("let x = 2 * * 3", 13)],
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


def test_lifts_without_a_cover_equation_is_positioned(tmp_path, registry):
    path = tmp_path / "claims.txt"
    path.write_text(
        "claim no_cover\nsystem:\n  x = 1\nplace: t = 0 ram 1\nlet x = 1\nexpect: lifts\n",
        encoding="utf-8",
    )
    extended = load_claim_file(str(path), registry)
    with pytest.raises(ClaimSyntaxError) as err:
        run_claim("no_cover", extended)
    assert err.value.line == 1


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
    "line, column", [("identity a: 1 + = r", 17), ("order g: q = 1", 10)],
    ids=["syntax", "undeclared"],
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
