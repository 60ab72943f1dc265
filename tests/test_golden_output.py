"""`verify` output, byte for byte, against recorded output.

The files under tests/data hold the output of the commands in GOLDEN; any
change that alters a verdict, a coefficient or its printed form, a claim's
kind or description, or the evidence of an undecided claim shows up here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from localpoints.cli import main

DATA = Path(__file__).resolve().parent / "data"
EXAMPLE = str(DATA.parent.parent / "claims_example.txt")
# benchmark/gen_claims.generate(1, 10): six point claims at tower height 0,
# three at height 1 and one at height 2, two of them obstructions
GENERATED = str(DATA / "generated_points_seed1.txt")

GOLDEN = [
    (["all", "--samples", "60", "--json"], "verify_all_samples60.json"),
    # both ends of the precision range: the golden claims' witness_precision, and at
    # P = 1 a lift claim whose square's order reaches P, its root taken past that order
    (["all", "--precision", "1", "--samples", "60", "--json"], "verify_all_p1_samples60.json"),
    (["all", "--precision", "80", "--samples", "60", "--json"], "verify_all_p80_samples60.json"),
    (["all", "--kind", "point_verification", "--mode", "truncated", "--json"],
     "verify_points_truncated.json"),
    (["list"], "verify_list.txt"),
    (["all", "--mode", "truncated", "--precision", "2", "--samples", "60", "--json"],
     "verify_all_truncated_p2_samples60.json"),
    (["load", EXAMPLE, "all", "--json"], "verify_load_example.json"),
    (["load", GENERATED, "all", "--json"], "verify_load_generated.json"),
    (["load", GENERATED, "all", "--mode", "truncated", "--precision", "40", "--json"],
     "verify_load_generated_truncated_p40.json"),
    # the longest series recurrences: quotients and square roots to r^80
    (["load", GENERATED, "all", "--mode", "truncated", "--precision", "80", "--json"],
     "verify_load_generated_truncated_p80.json"),
]


@pytest.mark.parametrize("argv, filename", GOLDEN, ids=[name for _, name in GOLDEN])
def test_verify_all_output_is_unchanged(capsys, argv, filename):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (DATA / filename).read_bytes()
