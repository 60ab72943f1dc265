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

GOLDEN = [
    (["all", "--samples", "60", "--json"], "verify_all_samples60.json"),
    (["all", "--kind", "point_verification", "--mode", "truncated", "--json"],
     "verify_points_truncated.json"),
    (["list"], "verify_list.txt"),
    (["all", "--mode", "truncated", "--precision", "2", "--samples", "60", "--json"],
     "verify_all_truncated_p2_samples60.json"),
    (["load", EXAMPLE, "all", "--json"], "verify_load_example.json"),
]


@pytest.mark.parametrize("argv, filename", GOLDEN, ids=[name for _, name in GOLDEN])
def test_verify_all_output_is_unchanged(capsys, argv, filename):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (DATA / filename).read_bytes()
