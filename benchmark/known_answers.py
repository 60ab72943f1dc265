"""Known answers, and the checks that compare claim reports against them.

The catalogue answers are written from the facts the package documents for
its builtin claims (README, acceptance criteria), not copied from program
output.  The answers for generated claims come from gen_claims.Expected.

A check takes report dictionaries in the shape of ClaimReport.as_dict() and
returns one line per problem; an empty list means the report is correct.
"""

from __future__ import annotations

CATALOGUE = (
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
)

POINT_CLAIMS = ("point_sqrt_t", "point_cbrt_t", "point_q_family_q3", "point_q_family_q5",
                "point_q_family_q7", "point_q_family_q9", "point_infinity")


def _exact_point(evidence: dict) -> list[str]:
    problems = []
    if any(eq["status"] != "exact_zero" for eq in evidence.get("equations", [])):
        problems.append("an equation is not an exact zero")
    if not evidence.get("equations"):
        problems.append("no equations checked")
    if any(ineq["status"] != "nonzero" for ineq in evidence.get("inequations", [])):
        problems.append("a constraint vanishes")
    return problems


def _catalogue_claim(name: str, ev: dict, seed: int) -> list[str]:
    if name in POINT_CLAIMS:
        problems = _exact_point(ev)
        if name == "point_cbrt_t" and ev.get("simplification_identity") != "exact":
            problems.append("the z simplification is not exact")
        return problems
    if name.startswith("golden_nonlift_n"):
        problems = []
        if ev.get("orders") != {"cover_factor": 1, "lhs_1": 1, "lhs_2": 1}:
            problems.append(f"golden orders {ev.get('orders')} are not all 1")
        for cover in ("plain_cover", "twisted_cover"):
            if ev.get(cover, {}).get("result") != "obstructed":
                problems.append(f"{cover} is not obstructed")
        squares = ev.get("square_witnesses", {})
        if sorted(squares) != ["y", "z"] or any(
            s.get("result") != "witness" for s in squares.values()
        ):
            problems.append("y and z are not both local squares")
        return problems
    if name == "golden_shifted_form":
        problems = _exact_point(ev)
        if ev.get("factor_order") != 1:
            problems.append(f"shifted factor order {ev.get('factor_order')} is not 1")
        return problems
    if name == "k3_cover_two_forms_obstructed":
        return [f"{form} is not obstructed" for form in ("plain_form", "twisted_form")
                if ev.get(form, {}).get("result") != "obstructed"]
    if name.startswith("k3_lift_"):
        problems = _exact_point(ev)
        if ev.get("lift") != "lifts" or ev.get("witness_square_matches") is not True:
            problems.append("the cover does not lift with a checked witness")
        return problems
    if name == "lemma91_property":
        problems = []
        if ev.get("counterexamples") != []:
            problems.append("the square-lift sweep found counterexamples")
        if not ev.get("hypothesis_hits", 0) > 0:
            problems.append("no sample met the hypothesis")
        if ev.get("seed") != seed or ev.get("samples") != 500:
            problems.append("the sweep did not run 500 samples at the workload seed")
        return problems
    if name == "lemma91_case_partition":
        return [] if ev.get("violations") == [] else ["the case predicates overlap or miss"]
    # the orbifold and semigroup claims list their own failed sub-checks
    key = "violations" if name == "perturbation_sweep" else "failures"
    return [] if ev.get(key) == [] else [f"{key}: {ev.get(key)}"]


def check_catalogue(report: dict, seed: int) -> list[str]:
    """Problems with one builtin claim's report, against the known answers."""
    name = report["name"]
    if name not in CATALOGUE:
        return [f"{name} is not a catalogue claim"]
    problems = [] if report["verdict"] == "pass" else [f"verdict {report['verdict']}"]
    return problems + _catalogue_claim(name, report["evidence"], seed)


def check_generated(report: dict, expected, mode: str) -> list[str]:
    """Problems with one generated claim's report, against its Expected."""
    ev = report["evidence"]
    if report["verdict"] != "pass":
        return [f"verdict {report['verdict']}, expected pass"]
    if expected.expect == "obstructed":
        got = (ev.get("result"), ev.get("cover_variable"), ev.get("order"))
        want = ("obstructed", "w", expected.cover_order)
        return [] if got == want else [f"cover {got}, expected {want}"]
    problems = []
    status = "exact_zero" if mode == "exact" else "zero_to_precision"
    if ev.get("mode") != mode:
        problems.append(f"mode {ev.get('mode')}, expected {mode}")
    statuses = [eq["status"] for eq in ev.get("equations", [])]
    if statuses != [status, status]:
        problems.append(f"equations {statuses}, expected two {status}")
    orders = tuple(i.get("order") for i in ev.get("inequations", []))
    if orders != expected.ineq_orders or any(
        i["status"] != "nonzero" for i in ev.get("inequations", [])
    ):
        problems.append(f"constraint orders {orders}, expected {expected.ineq_orders}")
    return problems
