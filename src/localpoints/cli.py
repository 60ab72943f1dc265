"""The `verify` command line: list, run, and batch-run claims.

Exit codes: 0 all checks passed, 1 at least one failed, 2 usage or parse
error.  With --json the report is a machine-readable document that is
byte-identical across runs with the same seed (timings are omitted there).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .claims import (
    KINDS,
    ClaimReport,
    builtin_registry,
    load_claim_file,
    run_all,
    run_claim,
)
from .errors import ClaimSyntaxError, DuplicateClaimError, UnknownClaimError


def _at_least(name: str, minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer option that may not fall below minimum."""

    def parse(text: str) -> int:
        if not text.strip().isdigit() or int(text) < minimum:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer >= {minimum}, not {text!r}")
        return int(text)

    return parse


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--precision", type=_at_least("precision", 1), default=None,
                        help="truncated mode: expand each input series modulo r^P "
                             "(a truncated pass prints the order its residuals are known to)")
    parser.add_argument("--samples", type=_at_least("samples", 0), default=None,
                        help="property-test samples")
    parser.add_argument("--seed", type=int, default=None, help="property-test seed")
    parser.add_argument("--mode", choices=["exact", "truncated"], default=None)
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _overrides(args: argparse.Namespace) -> dict:
    out = {}
    for key in ("precision", "samples", "seed", "mode"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _headline(report: ClaimReport) -> str:
    """The verdict as printed; a truncated pass names the order its residuals are known to.

    Cancellation can leave a residual known to a lower order than the input
    series, so the weakest equation bounds what the pass proved.
    """
    verdict = report.verdict.upper()
    evidence = report.evidence
    if report.verdict == "pass" and evidence.get("mode") == "truncated" and evidence.get("equations"):
        verdict += f" to O(r^{min(eq['precision'] for eq in evidence['equations'])})"
    return verdict


def _print_report(report: ClaimReport, verbose: bool = False) -> None:
    line = f"{_headline(report):5s} {report.name}  [{report.kind}]  ({report.wall_time * 1000:.1f} ms)"
    print(line)
    if verbose or report.verdict != "pass":
        for key, value in report.evidence.items():
            print(f"    {key}: {value}")


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _exit_code(reports: list[ClaimReport]) -> int:
    return 1 if any(r.verdict == "fail" for r in reports) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="verify", description="run exact local-field verification claims"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered claims")

    p_run = sub.add_parser("run", help="run one claim by name")
    p_run.add_argument("name")
    _add_run_options(p_run)

    p_all = sub.add_parser("all", help="run every registered claim")
    p_all.add_argument("--kind", choices=list(KINDS), default=None)
    _add_run_options(p_all)

    p_load = sub.add_parser("load", help="load a claim file, then list/run/all")
    p_load.add_argument("file")
    p_load.add_argument("action", nargs="?", choices=["list", "run", "all"], default="list")
    p_load.add_argument("name", nargs="?")
    p_load.add_argument("--kind", choices=list(KINDS), default=None)
    _add_run_options(p_load)

    args = parser.parse_args(argv)

    try:
        registry = builtin_registry()
        if args.command == "load":
            registry = load_claim_file(args.file, registry)
            command = args.action
        else:
            command = args.command

        if command == "list":
            for claim in registry.values():
                print(f"{claim.name:34s} {claim.kind:24s} {claim.description}")
            return 0

        if command == "run":
            if args.command == "load" and args.name is None:
                parser.error("load ... run needs a claim name")
            report = run_claim(args.name, registry, **_overrides(args))
            if args.json:
                _emit_json(report.as_dict())
            else:
                _print_report(report, verbose=True)
            return _exit_code([report])

        kind = getattr(args, "kind", None)
        reports, summary = run_all(registry, kind=kind, **_overrides(args))
        if args.json:
            _emit_json({"claims": [r.as_dict() for r in reports], "summary": summary})
        else:
            for report in reports:
                _print_report(report)
            print(
                f"-- {summary['passed']}/{summary['total']} passed"
                + (f", failures: {', '.join(summary['failures'])}" if summary["failures"] else "")
            )
        return _exit_code(reports)
    except (UnknownClaimError, ClaimSyntaxError, DuplicateClaimError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
