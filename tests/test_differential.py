"""Exact and truncated verification, run on the same points, never contradict each other.

A truncated verdict reads series to a precision P, so it may miss what the
exact one sees, but never the other way round: a truncated `fail` needs an
exact `fail`, and an exact `pass` allows only a truncated `pass` or
`undecided`.  The points are the generated claims of
tests/data/generated_points_seed1.txt (towers of height 0 to 2), and mutants
of each whose x is moved by r^k, which its square-root lets no longer fit.

The library's lift_along_cover and an `expect: obstructed` claim read the
same cover factor at the same point, so they report the same result and order.
"""

from __future__ import annotations

import re
from pathlib import Path

from localpoints.claims import (
    _build_place,
    _build_point,
    load_claim_file,
    parse_claim_file,
    run_claim,
)
from localpoints.variety import lift_along_cover

GENERATED = Path(__file__).resolve().parent / "data" / "generated_points_seed1.txt"
SHIFTS = (-4, -1, 0, 2, 6)  # the k of each mutant's x -> (x) + r^k
PRECISIONS = (*range(9), 40)


def _claims_with_mutants() -> tuple[str, dict[str, int | None]]:
    """The generated claims and their mutants as one claim file, and each claim's shift."""
    blocks, shifts = [], {}
    for block in GENERATED.read_text(encoding="utf-8").split("\nclaim ")[1:]:
        name, body = block.split("\n", 1)
        blocks.append(f"claim {name}\n{body}")
        shifts[name] = None
        for index, k in enumerate(SHIFTS):
            moved = re.sub(r"(?m)^let x = (.*)$", lambda m: f"let x = ({m[1]}) + r^{k}", body)
            blocks.append(f"claim {name}_shift{index}\n{moved}")
            shifts[f"{name}_shift{index}"] = k
    return "\n".join(blocks), shifts


def test_truncated_verdicts_never_contradict_exact_ones(tmp_path):
    text, shifts = _claims_with_mutants()
    path = tmp_path / "claims.txt"
    path.write_text(text, encoding="utf-8")
    registry = load_claim_file(str(path), {})
    assert list(registry) == list(shifts) and len(registry) == 60
    seen = set()
    for name in registry:
        exact = run_claim(name, registry).verdict
        for precision in PRECISIONS:
            truncated = run_claim(name, registry, mode="truncated", precision=precision).verdict
            where = (name, shifts[name], precision, exact, truncated)
            if truncated == "fail":
                assert exact == "fail", where
            if exact == "pass":
                assert truncated in ("pass", "undecided"), where
            seen.add((exact, truncated))
    # both rules were put to the test: truncated fails, and exact passes
    assert {("fail", "fail"), ("pass", "pass"), ("pass", "undecided")} <= seen


def test_the_library_lift_agrees_with_each_obstructed_claim():
    registry = load_claim_file(str(GENERATED), {})
    obstructed = [parsed for parsed in parse_claim_file(GENERATED.read_text(encoding="utf-8"))
                  if parsed.expect == "obstructed"]
    assert len(obstructed) == 2
    for parsed in obstructed:
        system = registry[parsed.name].system
        place = _build_place(parsed, system.tower)
        point = _build_point(parsed, system.tower, place)[0]
        lift = lift_along_cover(system, point)
        evidence = run_claim(parsed.name, registry).evidence
        assert (lift.kind, lift.order) == (evidence["result"], evidence["order"]), parsed.name
