"""The benchmark finds every package name it reads or patches.

benchmark/tracing.py patches package functions by name and wraps them with
*args, **kwargs, so a renamed function or a changed call would break only the
traced benchmark run.  These tests install both on a few builtin claims.  The
kernels and the runner read package names that no other test runs, so each
name they read is resolved here.
"""

import ast
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


def _package_names(path):
    """Each dotted name path reads from the package, as (line, name): the attribute
    chains rooted at lp, the runner's name for the package, or at a name the file
    imports from localpoints, and each name it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    roots = {"lp"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "localpoints":
            for alias in node.names:
                roots.add(alias.asname or alias.name)
                found.append((node.lineno, alias.name))
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in roots:
                root = [] if node.id == "lp" else [node.id]
                found.append((node.lineno, ".".join(root + chain[::-1])))
    return found


def _resolves(name):
    value = localpoints
    for attribute in name.split("."):
        if not hasattr(value, attribute):
            return False
        value = getattr(value, attribute)
    return True


def test_every_package_name_the_benchmark_reads_resolves():
    names = {f"{path.name}:{line}: {name}" for path in sorted(TRACING.parent.glob("*.py"))
             for line, name in _package_names(path)}
    assert [name for name in sorted(names) if not _resolves(name.rpartition(" ")[2])] == []
    read = {name.rpartition(" ")[2] for name in names}
    assert {"Place.finite", "PuiseuxSeries.from_terms", "claims.SHIFTED_FORM_TEXT",
            "cli.main", "run_claim"} <= read
