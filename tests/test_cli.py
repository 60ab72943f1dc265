"""End-to-end checks of the `verify` command line."""

from __future__ import annotations

import json
import subprocess
import sys

from localpoints.cli import main

CLI = [sys.executable, "-m", "localpoints.cli"]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, check=False, timeout=120
    )


def test_list_shows_registry():
    result = run_cli("list")
    assert result.returncode == 0
    assert "point_sqrt_t" in result.stdout
    assert "lemma91_property" in result.stdout
    assert "perturbation_sweep" in result.stdout


def test_run_single_claim_text_mode():
    result = run_cli("run", "point_sqrt_t")
    assert result.returncode == 0
    assert result.stdout.startswith("PASS")


def test_run_single_claim_json_mode():
    result = run_cli("run", "point_cbrt_t", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "pass"
    assert payload["evidence"]["simplification_identity"] == "exact"
    assert "wall_time" not in payload


def test_unknown_claim_is_usage_error():
    result = run_cli("run", "nonexistent")
    assert result.returncode == 2
    assert "no claim named" in result.stderr


def test_bad_subcommand_is_usage_error():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_run_all_filtered_kind():
    result = run_cli("all", "--kind", "semigroup_fact", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["summary"]["total"] == 2
    assert payload["summary"]["failed"] == 0


def test_json_reports_are_byte_identical_across_runs():
    first = run_cli("run", "lemma91_property", "--samples", "60", "--seed", "3", "--json")
    second = run_cli("run", "lemma91_property", "--samples", "60", "--seed", "3", "--json")
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_truncated_mode_flag():
    result = run_cli("run", "point_sqrt_t", "--mode", "truncated", "--precision", "12", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    statuses = {eq["status"] for eq in payload["evidence"]["equations"]}
    assert statuses == {"zero_to_precision"}


def test_truncated_mode_with_exhausted_precision_is_undecided():
    result = run_cli("run", "point_sqrt_t", "--mode", "truncated", "--precision", "2", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "undecided"
    assert payload["evidence"]["reason"] == "precision_exhausted"


# gen_0007_h0 of benchmark/gen_claims.generate(1, 40) with x = 1 + 1/r, which
# does not solve the system: its y and z still square the quotients for x = 1
_CANCELLING_POINT = """claim cancelling_point
system:
  x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2
  (t^2*u^2 - t)*y^2 != 0
  x^2 - 2*t*u^2 + 1/t = t*(t^2*u^2 - t)*z^2
  t*(t^2*u^2 - t)*z^2 != 0
place: t = infinity ram 2
let u = (3)*r^-3
let x = (1) + r^-1
let y = sqrt((((1))^2 - t*((3)*r^-3)^2 + t)/(t^2*((3)*r^-3)^2 - t))
let z = sqrt((((1))^2 - 2*t*((3)*r^-3)^2 + 1/t)/(t*(t^2*((3)*r^-3)^2 - t)))
expect: pass
"""


def test_truncated_pass_names_the_order_it_proved(tmp_path, capsys):
    claim_file = tmp_path / "cancelling.txt"
    claim_file.write_text(_CANCELLING_POINT, encoding="utf-8")

    def run(*options):
        code = main(["load", str(claim_file), "run", "cancelling_point", *options])
        return code, capsys.readouterr().out

    code, out = run()
    assert code == 1 and out.startswith("FAIL  cancelling_point")
    # with each input series to r^8, cancellation leaves the residuals known
    # only modulo r^-2 and r^-6: the headline names the weaker
    code, out = run("--mode", "truncated", "--precision", "8")
    assert code == 0 and out.startswith("PASS to O(r^-6) cancelling_point  [point_verification]")
    code, out = run("--mode", "truncated", "--precision", "8", "--json")
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert [eq["precision"] for eq in payload["evidence"]["equations"]] == [-2, -6]
    code, out = run("--mode", "truncated", "--precision", "12")
    assert code == 1 and out.startswith("FAIL  cancelling_point")


def test_precision_below_one_is_usage_error():
    for value in ("0", "-3"):
        result = run_cli("run", "point_sqrt_t", "--mode", "truncated", "--precision", value)
        assert result.returncode == 2
        assert "precision must be an integer >= 1" in result.stderr
        assert "Traceback" not in result.stderr


def test_negative_samples_is_usage_error():
    for value in ("-1", "-3"):
        result = run_cli("run", "lemma91_property", "--samples", value, "--json")
        assert result.returncode == 2
        assert "samples must be an integer >= 0" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


def test_load_then_run(tmp_path):
    claim_file = tmp_path / "extra.txt"
    claim_file.write_text(
        """claim my_cover_lift
system:
  x^2 - t*u^2 + t = (t^2*u^2 - t)*y^2
  (t^2*u^2 - t)*y^2 != 0
  x^2 - 2*t*u^2 + 1/t = t*(t^2*u^2 - t)*z^2
  t*(t^2*u^2 - t)*z^2 != 0
  w^2 = t^2*u^2 - t
place: t = 0 ram 1
let u = 0
let x = 0
let y = sqrt(-1)
let z = sqrt(-1/t^3)
expect: obstructed
""",
        encoding="utf-8",
    )
    listed = run_cli("load", str(claim_file))
    assert listed.returncode == 0
    assert "my_cover_lift" in listed.stdout
    result = run_cli("load", str(claim_file), "run", "my_cover_lift", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "pass"
    assert payload["evidence"]["result"] == "obstructed"


def test_load_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("claim broken\nnot a directive at all\n", encoding="utf-8")
    result = run_cli("load", str(bad))
    assert result.returncode == 2
    assert "error" in result.stderr


def test_division_by_zero_in_let_is_a_positioned_usage_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "claim zero_division\nsystem:\n  x = 1\nplace: t = 0 ram 1\nlet x = 1/(t - t)\n",
        encoding="utf-8",
    )
    result = run_cli("load", str(bad), "run", "zero_division")
    assert result.returncode == 2
    assert "line 5, column 9: division by zero in let" in result.stderr
    assert "Traceback" not in result.stderr


def test_failing_claim_gives_exit_one(tmp_path):
    failing = tmp_path / "failing.txt"
    failing.write_text(
        """claim wrong_sign_point
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
    result = run_cli("load", str(failing), "run", "wrong_sign_point")
    assert result.returncode == 1
    assert "FAIL" in result.stdout
