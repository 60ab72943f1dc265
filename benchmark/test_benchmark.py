"""Self-tests of the benchmark: python3 -m pytest benchmark/test_benchmark.py"""

from __future__ import annotations

import ast
import copy
import json
import sys
from pathlib import Path

import gen_claims
import run
from known_answers import CATALOGUE, check_catalogue, check_generated

HERE = Path(__file__).resolve().parent


def test_generator_is_deterministic_per_seed():
    first = gen_claims.generate(7, 40)
    assert gen_claims.generate(7, 40) == first
    assert gen_claims.generate(8, 40)[0] != first[0]


def test_generator_uses_only_the_standard_library():
    tree = ast.parse((HERE / "gen_claims.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}


def test_generator_strata_and_obstruction_orders_are_odd():
    _, answers = gen_claims.generate(3, 100)
    heights = [a.height for a in answers]
    assert (heights.count(0), heights.count(1), heights.count(2)) == (60, 30, 10)
    obstructed = [a for a in answers if a.expect == "obstructed"]
    assert len(obstructed) == 20
    assert all(a.cover_order % 2 for a in obstructed)


def _golden_report(n: int) -> dict:
    return {
        "name": f"golden_nonlift_n{n}",
        "kind": "squareness_certificate",
        "verdict": "pass",
        "evidence": {
            "orders": {"cover_factor": 1, "lhs_1": 1, "lhs_2": 1},
            "square_witnesses": {"y": {"result": "witness"}, "z": {"result": "witness"}},
            "plain_cover": {"result": "obstructed", "order": 1},
            "twisted_cover": {"result": "obstructed", "order": 3},
        },
    }


def test_catalogue_checker_rejects_mutated_reports():
    good = _golden_report(2)
    assert check_catalogue(good, seed=1) == []
    for path, value in ((("verdict",), "fail"),
                        (("evidence", "orders", "cover_factor"), 2),
                        (("evidence", "twisted_cover", "result"), "lifts")):
        bad = copy.deepcopy(good)
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert check_catalogue(bad, seed=1), path

    sweep = {"name": "lemma91_property", "kind": "property_test", "verdict": "pass",
             "evidence": {"samples": 500, "seed": 4, "hypothesis_hits": 120,
                          "counterexamples": []}}
    assert check_catalogue(sweep, seed=4) == []
    assert check_catalogue(sweep, seed=5)
    no_hits = copy.deepcopy(sweep)
    no_hits["evidence"]["hypothesis_hits"] = 0
    assert check_catalogue(no_hits, seed=4)


def test_generated_checker_rejects_mutated_reports():
    expected = gen_claims.Expected("gen_0000_h0", 0, "pass", (-4, -2), None)
    good = {"name": "gen_0000_h0", "verdict": "pass", "evidence": {
        "mode": "exact",
        "equations": [{"status": "exact_zero"}, {"status": "exact_zero"}],
        "inequations": [{"status": "nonzero", "order": -4}, {"status": "nonzero", "order": -2}],
    }}
    assert check_generated(good, expected, "exact") == []
    assert check_generated(good, expected, "truncated")
    bad = copy.deepcopy(good)
    bad["evidence"]["inequations"][1]["order"] = -3
    assert check_generated(bad, expected, "exact")

    cover = gen_claims.Expected("gen_0003_h0", 0, "obstructed", None, 3)
    report = {"name": "gen_0003_h0", "verdict": "pass",
              "evidence": {"cover_variable": "w", "result": "obstructed", "order": 3}}
    assert check_generated(report, cover, "exact") == []
    report["evidence"]["order"] = 1
    assert check_generated(report, cover, "exact")


def _batch(count: int) -> list:
    return [run.ClaimResult(f"c{k}", k * 0.01, k * 0.01 + 0.001 * (k + 1), None, [],
                            0.001 * (k + 1)) for k in range(count)]


def _unit(start, end, around):
    return 1.0


def test_p90_is_omitted_below_one_hundred_claims():
    short = run.end_to_end_metrics([_batch(99)], [(0.0, 0.1, 0.1, (0.001, 0.001))], run.TAIL_MIN_CLAIMS, _unit)
    assert "claim_p90_ms" not in short
    full = run.end_to_end_metrics([_batch(100)], [(0.0, 0.1, 0.1, (0.001, 0.001))], run.TAIL_MIN_CLAIMS, _unit)
    assert full["claim_p90_ms"] > full["claim_p50_ms"]


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.layer_metric_names()
    assert len(CATALOGUE) == 23


def test_generated_answers_agree_with_the_verifier():
    sys.path.insert(0, str(HERE.parent / "src"))
    from localpoints import load_claim_file, run_claim

    text, answers = gen_claims.generate(11, 12)
    path = HERE.parent / ".bench_build" / "localpoints" / "selftest_claims.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    registry = load_claim_file(str(path), {})
    for expected in answers:
        if expected.height == 2:
            continue  # the slowest stratum; the benchmark runs it
        report = run_claim(expected.name, registry).as_dict()
        assert check_generated(report, expected, "exact") == [], expected.name
