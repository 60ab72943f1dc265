"""End-to-end checks of the `verify` command line."""

from __future__ import annotations

import errno
import io
import json
import os
import subprocess
import sys

import pytest

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


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_a_closed_output_pipe_exits_1_silently_in_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["list"]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args, bytes_read", [
    (["all", "--json"], 1),  # the reader closes the pipe mid-report
    (["list"], 0),  # the pipe is closed before the buffered listing is flushed
], ids=["mid_report", "before_flush"])
def test_a_reader_that_closes_the_pipe_gets_exit_1_and_no_stderr(args, bytes_read):
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs a pipe whose capacity can be set")
    read_end, write_end = os.pipe()
    # one page holds less than the report, so the writer is still writing when
    # the reader closes, whatever the scheduling
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    # stdout block-buffered, as it is by default on a pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen(CLI + args, stdout=write_end, stderr=subprocess.PIPE,
                          env=env) as proc:
        os.close(write_end)
        with os.fdopen(read_end, "rb") as reader:
            assert reader.read(bytes_read) == b"{"[:bytes_read]
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


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
    assert "line 5, column 11: division by zero in let" in result.stderr
    assert "Traceback" not in result.stderr


# bytes that are not UTF-8, and where the error names the first of them: a bad start
# byte after a claim name, and a cut-off sequence after two-byte characters, whose
# column counts characters, past a CRLF line end
NOT_UTF8 = [
    (b"claim a\xff\xfe\n", "line 1, column 8: byte 0xff is not UTF-8 (invalid start byte)"),
    (b"claim a\r\nsystem:\n  x = 1 # \xc3\xa9\xc3\xa9 \xe2\x82\n",
     "line 3, column 14: byte 0xe2 is not UTF-8 (invalid continuation byte)"),
    # a form feed ends no line
    (b"claim a\x0c\nsystem:\n  x = 1 \xff\n",
     "line 3, column 9: byte 0xff is not UTF-8 (invalid start byte)"),
]


@pytest.mark.parametrize("data, message", NOT_UTF8,
                         ids=["start_byte", "cut_sequence", "after_a_form_feed"])
def test_a_claim_file_that_is_not_utf8_is_a_positioned_usage_error(tmp_path, capsys, data,
                                                                   message):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    assert main(["load", str(path), "list"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# a claim name declared twice in a file, and one the builtins have, named at the name
DUPLICATE_NAMES = [
    ("claim a\nplace: t = 0\nsystem:\n  x = 0\nlet x = 0\nclaim a\nplace: t = 0\n",
     "line 6, column 7: claim 'a' declared twice"),
    ("claim  point_sqrt_t\nplace: t = 0\nsystem:\n  x = 0\nlet x = 0\n",
     "line 1, column 8: claim 'point_sqrt_t' already registered"),
]


@pytest.mark.parametrize("text, message", DUPLICATE_NAMES, ids=["in_the_file", "a_builtin"])
def test_a_duplicate_claim_name_is_a_positioned_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "claims.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["load", str(path), "list"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


# a claim name after an action that takes none, and no name after run
NAME_USAGE = [
    (["list", "a"], "load ... list takes no claim name"),
    (["all", "a"], "load ... all takes no claim name"),
    (["run"], "load ... run needs a claim name"),
]


@pytest.mark.parametrize("args, message", NAME_USAGE, ids=["list_name", "all_name", "run"])
def test_a_claim_name_where_the_action_takes_none_is_a_usage_error(tmp_path, capsys, args,
                                                                   message):
    path = tmp_path / "claims.txt"
    path.write_text("claim a\nsystem:\n  x = 1\nplace: t = 0\nlet x = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exit_:
        main(["load", str(path), *args])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"error: {message}\n")


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


def test_integer_options_take_ascii_digits_only(capsys):
    # an Arabic-Indic three (U+0663) read as 3 through str.isdigit and int
    for option in ("--precision", "--samples", "--seed"):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "point_sqrt_t", "--mode", "truncated", option, "٣"])
        assert exit_.value.code == 2
        assert f"{option[2:]} must be an integer" in capsys.readouterr().err
    # a seed may be negative
    assert main(["run", "lemma91_property", "--samples", "20", "--seed", "-3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["evidence"]["samples"] == 20


def test_an_option_past_the_digit_limit_exits_two_without_echoing_it(capsys):
    digits = "1" * 5000
    with pytest.raises(SystemExit) as exit_:
        main(["run", "point_sqrt_t", "--precision", digits])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    limit = sys.get_int_max_str_digits()
    assert f"argument --precision: integer literal has 5000 digits; at most {limit}" in err
    assert "1" * 100 not in err


# integer texts that a claim-file field and a command-line option must judge alike:
# an Arabic-Indic three, a plus sign, an underscore, a signed zero, two minus signs, zero
INTEGER_TEXTS = ["\u0663", "+1", "1_0", "-0", "--2", "0"]
# a claim-file field, the option with the same minimum, and the texts both accept
INTEGER_READERS = [
    ("system:\n  x = 1\nplace: t = 0 ram 1\nlet x = 1\norder g: t = {}", "--seed", {"-0", "0"}),
    ("orbifold genus {} marks [2]", "--samples", {"0"}),
    ("system:\n  x = 1\nplace: t = 0 ram {}\nlet x = 1", "--precision", set()),
]


@pytest.mark.parametrize("field, option, accepted", INTEGER_READERS,
                         ids=["order_and_seed", "genus_and_samples", "ram_and_precision"])
def test_claim_files_and_options_read_integers_alike(tmp_path, capsys, field, option, accepted):
    valid = tmp_path / "valid.txt"
    valid.write_text("claim a\n" + field.format("1") + "\n", encoding="utf-8")
    for text in INTEGER_TEXTS:
        path = tmp_path / "claims.txt"
        path.write_text("claim a\n" + field.format(text) + "\n", encoding="utf-8")
        file_reads = main(["load", str(path), "list"]) == 0
        try:
            option_reads = main(["load", str(valid), "list", f"{option}={text}"]) == 0
        except SystemExit as exit_:
            assert exit_.code == 2
            option_reads = False
        capsys.readouterr()
        assert (file_reads, option_reads) == ((text in accepted),) * 2, text
