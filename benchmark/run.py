"""Benchmark of the localpoints verifier, end to end and layer by layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Workloads (see NOTES.md):

  catalogue               the 23 builtin claims, as `verify all --seed N` runs them
  tower_points            100 generated point claims over towers of height 0-2, exact
  tower_points_truncated  the same claims in truncated mode at precision 40

A pass runs the workload's claims once, each on its own, so a claim that
raises is counted as failed and the pass goes on.  With --trace 0 a run
makes at least two passes, more while another fits in --seconds, and prints
the end-to-end metrics.  With --trace 1 it makes one untraced pass, one pass
under spans and one untimed counting pass, times the layer kernels, and
prints the per-layer metrics.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gen_claims
import kernels
from known_answers import CATALOGUE, check_catalogue, check_generated
from tracing import Counter, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "localpoints"

WORKLOADS = ("catalogue", "tower_points", "tower_points_truncated")
GENERATED_CLAIMS = 100
TRUNCATED_PRECISION = 40
# The host is shared, and its speed drifts by up to 1.7x for seconds to
# minutes at a time.  So a fixed probe computation is timed just before and
# after every claim and set-up, and every PROBE_INTERVAL_S on a background
# thread, and each time is rescaled to a host on which one probe takes
# REFERENCE_PROBE_S, using the probes taken around and during it.  Both are
# timed in thread CPU time, which for this CPU-bound, single-threaded program
# is its wall time less the moments the probe thread holds the interpreter
# lock.  A run makes at least MIN_PASSES passes over the claims, each after
# fresh set-ups, and more while another fits.  After the first pass, claims
# that took more than LONG_SHARE of it run no more, so the others get more
# samples in the time a run has.  A claim's time is the median of its samples.
REFERENCE_PROBE_S = 1e-3
PROBE_INTERVAL_S = 0.25
MIN_PASSES = 2
SETUPS_PER_PASS = 3
LONG_SHARE = 0.5
# a 90th percentile of a sample needs ten claims beyond it
TAIL_MIN_CLAIMS = 100

VARIETY_SPANS = ("verify_point", "lift_along_cover", "solve_square", "parse_system")


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    names = [(f"field_tower.mul_us.h{h}", "us") for h in range(4)]
    names += [(f"field_tower.inverse_us.h{h}", "us") for h in (1, 2)]
    names += [(f"field_tower.{op}.calls.h{h}", "count") for op in ("mul", "inverse")
              for h in range(4)]
    names += [("field_tower.is_square.calls", "count"),
              ("field_tower.is_square.undecided", "count"),
              ("field_tower.adjoin_quadratic.calls", "count")]
    names += [("series.rf_mul_us.h0_d8", "us"), ("series.rf_mul_us.h2_d8", "us"),
              ("series.rf_add_us.h0_d8", "us"), ("series.rf_new.calls", "count"),
              ("series.ps_mul_us.p40", "us"), ("series.ps_div_us.p40", "us"),
              ("series.to_puiseux_us.p40", "us"), ("series.ps_mul.calls", "count"),
              ("series.ps_div.calls", "count")]
    names += [(f"series.series_sqrt_ms.p{p}", "ms") for p in (20, 40, 80)]
    names += [("series.series_sqrt.calls", "count"), ("series.series_sqrt.total_s", "s"),
              ("series.is_square_local.calls", "count")]
    names += [("exprs.parse_us", "us"), ("exprs.parse_expression.calls", "count"),
              ("exprs.parse_expression.total_s", "s"), ("exprs.evaluate_ms", "ms"),
              ("exprs.evaluate.calls", "count"), ("exprs.evaluate.total_s", "s")]
    for span in VARIETY_SPANS:
        names += [(f"variety.{span}.calls", "count"), (f"variety.{span}.self_s", "s")]
    names += [("variety.sweep.total_s", "s"), ("variety.sweep.predicate_calls", "count"),
              ("variety.sweep.accept_ratio", "ratio"), ("variety.sweep.hit_ratio", "ratio")]
    names += [("orbifold.degree_us", "us"), ("orbifold.semigroup_contains_us.m60", "us"),
              ("orbifold.degree.calls", "count"), ("orbifold.degree.total_s", "s")]
    names += [(f"claims.{name}_ms", "ms") for name in CATALOGUE]
    names += [("claims.load_claim_file.total_s", "s"), ("claims.parse_claim_file.total_s", "s"),
              ("claims.run_claim.self_s", "s"), ("cli.main.self_s", "s"),
              ("trace.overhead_ratio", "ratio")]
    return names


END_TO_END = (("batch_s", "s"), ("setup_s", "s"), ("claim_p50_ms", "ms"),
              ("claim_p90_ms", "ms"), ("peak_rss_mb", "MB"))


@dataclass
class Workload:
    name: str
    seed: int
    claim_path: Path | None = None
    expected: dict = field(default_factory=dict)  # claim name -> gen_claims.Expected
    overrides: dict = field(default_factory=dict)  # run_claim keyword overrides

    @property
    def mode(self) -> str:
        return self.overrides.get("mode", "exact")

    @property
    def tail_min(self) -> int:
        # the catalogue is a fixed population of claims, not a sample of them
        return len(CATALOGUE) if self.name == "catalogue" else TAIL_MIN_CLAIMS


def make_workload(name: str, seed: int) -> Workload:
    if name == "catalogue":
        return Workload(name, seed, overrides={"seed": seed})
    text, answers = gen_claims.generate(seed, GENERATED_CLAIMS)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / f"{name}_seed{seed}.txt"
    path.write_text(text, encoding="utf-8")
    overrides = ({"mode": "truncated", "precision": TRUNCATED_PRECISION}
                 if name == "tower_points_truncated" else {})
    return Workload(name, seed, path, {a.name: a for a in answers}, overrides)


def _poly_mul(p: tuple, q: tuple) -> tuple:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _poly_gcd(p: tuple, q: tuple) -> tuple:
    while q:
        q = tuple(c / q[-1] for c in q)
        rem = list(p)
        for shift in range(len(p) - len(q), -1, -1):
            factor = rem[shift + len(q) - 1]
            for j, b in enumerate(q):
                rem[shift + j] -= factor * b
        while rem and not rem[-1]:
            rem.pop()
        p, q = q, tuple(rem)
    return p


_PROBE_COMMON = tuple(Fraction(k + 1, k % 6 + 1) for k in range(4))
_PROBE_PAIR = (_poly_mul(tuple(Fraction(k % 7 + 1, k % 5 + 1) for k in range(7)), _PROBE_COMMON),
               _poly_mul(tuple(Fraction((-1) ** k * (k + 2), k % 3 + 1) for k in range(6)),
                         _PROBE_COMMON))


def probe() -> float:
    """Best of two CPU timings of fixed Fraction polynomial gcds, the shape of
    the package's own work; it never touches localpoints."""
    best = float("inf")
    for _ in range(2):
        start = time.thread_time()
        for _ in range(3):
            _poly_gcd(*_PROBE_PAIR)
        best = min(best, time.thread_time() - start)
    return best


class SpeedMonitor:
    """Probes the host speed on a background thread while claims run.

    The program is still driven from the main thread alone; each probe holds
    the interpreter lock for a few milliseconds.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (time taken, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        seconds = probe()
        self.samples.append((time.perf_counter(), seconds))

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample()

    def __enter__(self) -> SpeedMonitor:
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def factor(self, start: float, end: float, around: tuple[float, float]) -> float:
        """CPU seconds to reference seconds over the wall interval [start, end],
        from the probes taken just around it and those taken during it."""
        times = [t for t, _ in self.samples]
        inside = self.samples[bisect.bisect_left(times, start):bisect.bisect_right(times, end)]
        return REFERENCE_PROBE_S / statistics.mean([*around, *(p for _, p in inside)])


def set_up(workload: Workload):
    """Import the package afresh and build the registry; returns (package, registry)."""
    for module in [m for m in sys.modules if m == "localpoints" or m.startswith("localpoints.")]:
        del sys.modules[module]
    lp = importlib.import_module("localpoints")
    registry = lp.builtin_registry()
    if workload.claim_path is not None:
        registry = lp.load_claim_file(str(workload.claim_path), registry)
    return lp, registry


def claim_names(workload: Workload, registry) -> list[str]:
    if workload.claim_path is None:
        return list(registry)  # `verify all` order
    return list(workload.expected)


@dataclass
class ClaimResult:
    name: str
    start: float
    end: float
    report: dict | None  # ClaimReport.as_dict(), or None when the claim raised
    problems: list[str]
    cpu: float = 0.0  # CPU seconds of the driving thread
    around: tuple[float, float] = (REFERENCE_PROBE_S, REFERENCE_PROBE_S)  # probes before, after

    @property
    def seconds(self) -> float:
        """Wall time on the host."""
        return self.end - self.start


def check(workload: Workload, report: dict) -> list[str]:
    if workload.claim_path is None:
        return check_catalogue(report, workload.seed)
    return check_generated(report, workload.expected[report["name"]], workload.mode)


def run_batch(lp, registry, workload: Workload, names: list[str] | None = None
              ) -> list[ClaimResult]:
    results = []
    for name in claim_names(workload, registry) if names is None else names:
        gc.collect()  # each claim starts from the same collector state
        before = probe()
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            report = lp.run_claim(name, registry, **workload.overrides)
        except Exception as err:  # a claim that raises fails alone; the batch goes on
            cpu, end = time.thread_time() - cpu, time.perf_counter()
            results.append(ClaimResult(name, start, end, None, [f"{type(err).__name__}: {err}"],
                                       cpu, (before, probe())))
            continue
        cpu, end = time.thread_time() - cpu, time.perf_counter()
        around = (before, probe())
        payload = report.as_dict()
        results.append(ClaimResult(name, start, end, payload, check(workload, payload), cpu,
                                   around))
    return results


def verify_json(results: list[ClaimResult]) -> str:
    """The document `verify all --json` prints for these reports."""
    reports = [r.report for r in results]
    summary = {
        "total": len(reports),
        "passed": sum(1 for r in reports if r["verdict"] == "pass"),
        "failed": sum(1 for r in reports if r["verdict"] == "fail"),
        "undecided": sum(1 for r in reports if r["verdict"] == "undecided"),
        "failures": [r["name"] for r in reports if r["verdict"] == "fail"],
    }
    return json.dumps({"claims": reports, "summary": summary}, sort_keys=True, indent=2) + "\n"


def batch_seconds(results: list[ClaimResult]) -> float:
    return results[-1].end - results[0].start


def percentile_90(times: list[float], min_count: int) -> float | None:
    """90th percentile, or None when fewer than min_count times were taken."""
    if len(times) < min_count:
        return None
    return statistics.quantiles(times, n=10)[8]


def claim_times(passes: list[list[ClaimResult]], factor) -> list[float]:
    """Each claim's median reference time over its samples, in first-pass order."""
    samples: dict[str, list[float]] = {}
    for one_pass in passes:
        for r in one_pass:
            samples.setdefault(r.name, []).append(r.cpu * factor(r.start, r.end, r.around))
    return [statistics.median(times) for times in samples.values()]


def end_to_end_metrics(passes, setups, tail_min: int, factor) -> dict[str, float]:
    """factor(start, end, around) turns CPU seconds in that wall interval into
    reference seconds; setups are (start, end, cpu, around) tuples."""
    times = claim_times(passes, factor)
    metrics = {
        "batch_s": sum(times),
        "setup_s": statistics.median(cpu * factor(start, end, around)
                                     for start, end, cpu, around in setups),
        "claim_p50_ms": statistics.median(times) * 1e3,
    }
    p90 = percentile_90(times, tail_min)
    if p90 is not None:
        metrics["claim_p90_ms"] = p90 * 1e3
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def consistency_problems(passes) -> list[str]:
    """Same-seed runs of a claim must give byte-identical `verify --json` reports."""
    reports: dict[str, set[str]] = {}
    for one_pass in passes:
        for r in one_pass:
            if r.report is not None:
                reports.setdefault(r.name, set()).add(json.dumps(r.report, sort_keys=True))
    return [f"{name}: same-seed runs gave different reports"
            for name, texts in reports.items() if len(texts) > 1]


def untraced(workload: Workload, seconds: float):
    """Passes over the claims, each after fresh set-ups, while another fits in `seconds`."""
    setups, passes = [], []
    names = None
    start = time.perf_counter()
    with SpeedMonitor() as monitor:
        while True:
            for _ in range(SETUPS_PER_PASS):
                before = probe()
                setup_start, cpu = time.perf_counter(), time.thread_time()
                lp, registry = set_up(workload)
                cpu, setup_end = time.thread_time() - cpu, time.perf_counter()
                setups.append((setup_start, setup_end, cpu, (before, probe())))
            passes.append(run_batch(lp, registry, workload, names))
            if names is None:
                limit = LONG_SHARE * batch_seconds(passes[0])
                names = [r.name for r in passes[0] if r.seconds <= limit]
                next_pass = sum(r.seconds for r in passes[0] if r.seconds <= limit)
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed + next_pass > seconds:
                break
    metrics = end_to_end_metrics(passes, setups, workload.tail_min, monitor.factor)
    units = dict(END_TO_END)
    return passes, consistency_problems(passes), {k: (v, units[k]) for k, v in metrics.items()}


def verify_all(lp, workload: Workload) -> str:
    """`verify all --seed N --json` through cli.main, with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            lp.cli.main(["all", "--seed", str(workload.seed), "--json"])
        except Exception as err:  # verify all stops at the first claim that raises
            return f"raised {type(err).__name__}: {err}"
    return out.getvalue()


def traced(workload: Workload):
    lp, registry = set_up(workload)
    importlib.import_module("localpoints.cli")
    baseline = run_batch(lp, registry, workload)
    problems = []

    tracer = Tracer()
    tracer.install()
    try:
        if workload.claim_path is None:
            docs = [verify_all(lp, workload)]
            results = baseline
        else:
            traced_registry = lp.load_claim_file(str(workload.claim_path), lp.builtin_registry())
            results = run_batch(lp, traced_registry, workload)
    finally:
        tracer.uninstall()

    counter = Counter()
    counter.install(lp)
    try:
        if workload.claim_path is None:
            docs.append(verify_all(lp, workload))
        else:
            run_batch(lp, registry, workload)
    finally:
        counter.uninstall()

    claim_spans = tracer.claim_spans()
    if workload.claim_path is None:
        if all(r.report is not None for r in baseline):
            docs.append(verify_json(baseline))
        if len(set(docs)) != 1:
            problems.append("same-seed runs gave different --json output")
        if docs[0].startswith("raised"):
            problems.append(f"verify all {docs[0]}")
        else:
            results = [
                ClaimResult(report["name"], start, end, report, check(workload, report))
                for report, (_, start, end) in zip(json.loads(docs[0])["claims"], claim_spans)
            ]
            if [r.name for r in results] != list(CATALOGUE):
                problems.append("verify all did not run the whole catalogue")
    traced_time = sum(end - start for _, start, end in claim_spans)
    metrics = layer_metrics(tracer, counter, kernels.all_kernels(lp, workload.seed))
    metrics["trace.overhead_ratio"] = traced_time / sum(r.seconds for r in baseline) - 1
    units = dict(layer_metric_names())
    return [results], problems, {k: (metrics[k], units[k]) for k in units}


def layer_metrics(tracer: Tracer, counter: Counter, kernel_metrics: dict) -> dict[str, float]:
    spans = tracer.summary()
    counts = tracer.counts + counter.counts
    metrics = {name: 0 for name, _ in layer_metric_names()}
    metrics.update(kernel_metrics)
    for name in metrics:
        if name in counts:
            metrics[name] = counts[name]
    for name, entry in spans.items():
        for key in ("calls", "total_s", "self_s"):
            if f"{name}.{key}" in metrics:
                metrics[f"{name}.{key}"] = entry[key]
    sweep = spans.get("variety.sweep")
    if sweep:
        samples = sum(result["samples"] for result in tracer.sweeps)
        hits = sum(result["hypothesis_hits"] for result in tracer.sweeps)
        metrics["variety.sweep.accept_ratio"] = samples / counts["variety.sweep.predicate_calls"]
        metrics["variety.sweep.hit_ratio"] = hits / samples
    for request, start, end in tracer.claim_spans():
        if f"claims.{request}_ms" in metrics:
            metrics[f"claims.{request}_ms"] = (end - start) * 1e3
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "localpoints" / "__init__.py").is_file():
        print(f"error: no localpoints package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = make_workload(args.workload, args.seed)
    if args.trace:
        passes, problems, metrics = traced(workload)
    else:
        passes, problems, metrics = untraced(workload, args.seconds)

    results = [r for one_pass in passes for r in one_pass]
    failed = [r for r in results if r.problems]
    for r in failed:
        print(f"FAILED {r.name}: {'; '.join(r.problems)}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed {args.seed}: {len(results)} claim runs, {len(failed)} failed "
          f"(failed_ratio {len(failed) / len(results)}); host wall time of each pass: "
          + ", ".join(f"{batch_seconds(p):.3f} s" for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
