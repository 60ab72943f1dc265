"""Seeded mutants of claims_example.txt: every fault is a positioned error, and a
fault in a line that loading reads all of is raised by loading, never by a run.

Each mutant deletes, duplicates or swaps a line, or drops or replaces one
token.  It runs with no builtins, so only its own claims run.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

from localpoints.claims import load_claim_file, run_claim
from localpoints.errors import ClaimSyntaxError, DuplicateClaimError

EXAMPLE = Path(__file__).resolve().parent.parent / "claims_example.txt"
MUTANTS = 300
# messages of the rules loading checks, which no run may raise
LOAD_ONLY = ("has no place", "takes exactly one expression", "needs an orbifold line",
             "an orbifold fact takes no", "place: t = CENTER ram E",
             "ramification must be a positive integer", "in place center",
             "a claim takes one", "generator name", "a let may not bind")


def _mutants(lines: list[str], rng: random.Random):
    # the file's own tokens, and a few that no claim line should accept
    tokens = sorted({token for line in lines for token in line.split()})
    tokens += ["٢", "-1", "0", "inf", "=", "(", "1/0"]
    for _ in range(MUTANTS):
        mutant = list(lines)
        at = rng.randrange(len(mutant))
        operation = rng.choice(["delete", "duplicate", "swap", "drop", "replace"])
        if operation == "delete":
            del mutant[at]
        elif operation == "duplicate":
            mutant.insert(at, mutant[at])
        elif operation == "swap":
            other = rng.randrange(len(mutant))
            mutant[at], mutant[other] = mutant[other], mutant[at]
        else:
            words = mutant[at].split(" ")
            word = rng.randrange(len(words))
            if operation == "drop":
                del words[word]
            else:
                words[word] = rng.choice(tokens)
            mutant[at] = " ".join(words)
        yield mutant


def test_mutants_of_the_example_fail_with_positions_and_static_faults_at_load(tmp_path):
    lines = EXAMPLE.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "claims.txt"
    outcomes = Counter()
    for mutant in _mutants(lines, random.Random(1)):
        path.write_text("\n".join(mutant) + "\n", encoding="utf-8")
        try:
            registry = load_claim_file(str(path), {})
        except ClaimSyntaxError as err:
            outcomes["load error"] += 1
            outcomes["load error: no place"] += "has no place" in err.message
            continue
        except DuplicateClaimError:
            outcomes["load error"] += 1
            continue
        # every line that starts with `place:` is read whole when the file loads
        place_lines = {n for n, line in enumerate(mutant, start=1)
                       if line.split("#", 1)[0].strip().startswith("place:")}
        for name in registry:
            try:
                outcomes[run_claim(name, registry).verdict] += 1
            except ClaimSyntaxError as err:
                outcomes["run error"] += 1
                assert not any(message in err.message for message in LOAD_ONLY), (mutant, err)
                assert err.line not in place_lines, (mutant, err)
    # the sweep reached both stages, and loading refused claims with no place
    assert outcomes["load error"] and outcomes["run error"] and outcomes["pass"]
    assert outcomes["load error: no place"]
