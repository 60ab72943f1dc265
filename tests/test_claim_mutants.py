"""Seeded mutants of claim texts: every fault is a positioned error, and a fault in a
line that loading reads all of is raised by loading, never by a run.

The texts are claims_example.txt and the builtins written in the claim
language.  Each mutant deletes, duplicates or swaps a line, drops or replaces
one token, or renames a let to t or to a generator.  It runs with no builtins,
so only its own claims run.  A claim's system is parsed and checked when it
loads, so the only faults left to a run are in let and check expressions.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

from localpoints.claims import (
    K3_LIFTS_TEXT,
    POINTS_TEXT,
    SHIFTED_FORM_TEXT,
    load_claim_file,
    parse_claim_file,
    run_claim,
)
from localpoints.errors import ClaimSyntaxError, DuplicateClaimError

EXAMPLE = Path(__file__).resolve().parent.parent / "claims_example.txt"
# messages of the rules loading checks, which no run may raise
LOAD_ONLY = ("has no place", "needs an orbifold line",
             "an orbifold fact takes no", "place: t = CENTER ram E",
             "ramification must be a positive integer", "in place center",
             "a claim takes one", "generator name", "a let may not bind",
             # the system's own rules, and its rules against the claim's lets
             "in a system", "constraints must end in != 0", "expected '=' or '!= 0'",
             "negative power of a variable", "division by an expression containing variables",
             "division by zero in system", "unbound variable", "no cover equation",
             "the system has an odd power", "checks nothing")
MUTANTS = 300  # of each text
BUILTIN_TEXTS = {"points": POINTS_TEXT, "k3_lifts": K3_LIFTS_TEXT,
                 "shifted_form": SHIFTED_FORM_TEXT}


def _mutants(lines: list[str], rng: random.Random):
    # the file's own tokens, and a few that no claim line should accept
    tokens = sorted({token for line in lines for token in line.split()})
    tokens += ["٢", "-1", "0", "inf", "=", "(", "1/0"]
    lets = [n for n, line in enumerate(lines) if line.lstrip().startswith("let ")]
    # the names a let may not take in a claim that verifies a system
    reserved = ["t"] + [line.split()[1] for line in lines if line.startswith("adjoin ")]
    for _ in range(MUTANTS):
        mutant = list(lines)
        at = rng.randrange(len(mutant))
        operation = rng.choice(["delete", "duplicate", "swap", "drop", "replace", "rename"])
        if operation == "delete":
            del mutant[at]
        elif operation == "duplicate":
            mutant.insert(at, mutant[at])
        elif operation == "swap":
            other = rng.randrange(len(mutant))
            mutant[at], mutant[other] = mutant[other], mutant[at]
        elif operation == "rename":
            at = rng.choice(lets)
            indent, _, rest = mutant[at].partition("let ")
            mutant[at] = f"{indent}let {rng.choice(reserved)} ={rest.partition('=')[2]}"
        else:
            words = mutant[at].split(" ")
            word = rng.randrange(len(words))
            if operation == "drop":
                del words[word]
            else:
                words[word] = rng.choice(tokens)
            mutant[at] = " ".join(words)
        yield mutant


def _sweep(tmp_path: Path, text: str) -> None:
    lines = text.splitlines()
    path = tmp_path / "claims.txt"
    outcomes = Counter()
    for mutant in _mutants(lines, random.Random(1)):
        path.write_text("\n".join(mutant) + "\n", encoding="utf-8")
        try:
            registry = load_claim_file(str(path), {})
        except ClaimSyntaxError as err:
            outcomes["load error"] += 1
            outcomes["load error: no place"] += "has no place" in err.message
            outcomes["load error: let binds"] += "a let may not bind" in err.message
            continue
        except DuplicateClaimError:
            outcomes["load error"] += 1
            continue
        # every line that starts with `place:` is read whole when the file loads, and
        # so is every system line
        place_lines = {n for n, line in enumerate(mutant, start=1)
                       if line.split("#", 1)[0].strip().startswith("place:")}
        system_lines = {line for parsed in parse_claim_file("\n".join(mutant))
                        for (line, _), _ in parsed.system_lines}
        for name in registry:
            try:
                outcomes[run_claim(name, registry).verdict] += 1
            except ClaimSyntaxError as err:
                outcomes["run error"] += 1
                assert not any(message in err.message for message in LOAD_ONLY), (mutant, err)
                assert err.line not in place_lines | system_lines, (mutant, err)
    # the sweep reached both stages, and loading refused claims with no place and
    # lets that rebind t or a generator
    assert outcomes["load error"] and outcomes["run error"] and outcomes["pass"], outcomes
    assert outcomes["load error: no place"] and outcomes["load error: let binds"], outcomes


def test_mutants_of_the_example_fail_with_positions_and_static_faults_at_load(tmp_path):
    _sweep(tmp_path, EXAMPLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("text", BUILTIN_TEXTS.values(), ids=BUILTIN_TEXTS.keys())
def test_mutants_of_the_builtin_texts_fail_with_positions_and_static_faults_at_load(
        tmp_path, text):
    _sweep(tmp_path, text)
