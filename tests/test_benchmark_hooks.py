"""The benchmark's tracer and counter find every package name they patch.

benchmark/tracing.py patches package functions by name and wraps them with
*args, **kwargs, so a renamed function or a changed call would break only the
traced benchmark run.  These tests install both on a few builtin claims.
"""

import importlib.util
from pathlib import Path

import localpoints
import localpoints.cli  # noqa: F401  the tracer patches the modules already imported
from localpoints import claims

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"

TRACED_CLAIMS = ("point_sqrt_t", "golden_nonlift_n1", "k3_cover_two_forms_obstructed",
                 "k3_lift_sqrt_t", "lemma91_property")


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_records_the_spans_of_the_traced_functions():
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        registry = claims.builtin_registry()
        verdicts = [claims.run_claim(name, registry, samples=16).verdict
                    for name in TRACED_CLAIMS]
    finally:
        tracer.uninstall()
    assert verdicts == ["pass"] * len(TRACED_CLAIMS)
    summary = tracer.summary()
    for span in ("variety.verify_point", "variety.solve_square", "variety.lift_along_cover",
                 "series.series_sqrt", "variety.sweep", "claims.run_claim"):
        assert summary[span]["calls"] > 0, span
    assert [sweep["samples"] for sweep in tracer.sweeps] == [16]
    assert tracer.counts["series.is_square_local.calls"] > 0
    assert [request for request, _, _ in tracer.claim_spans()] == list(TRACED_CLAIMS)


def test_the_counter_counts_the_patched_arithmetic():
    counter = _tracing().Counter()
    counter.install(localpoints)
    try:
        report = claims.run_claim("k3_lift_sqrt_t", claims.builtin_registry())
    finally:
        counter.uninstall()
    assert report.verdict == "pass"
    for name in ("field_tower.mul.calls.h0", "field_tower.mul.calls.h1",
                 "field_tower.inverse.calls.h0", "series.rf_new.calls", "series.ps_mul.calls"):
        assert counter.counts[name] > 0, name
