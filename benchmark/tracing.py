"""Spans and counters recorded from outside the package.

Tracer wraps public callables of the localpoints modules in every module
namespace that holds them, so calls made through `from .x import f` are
seen too.  A span records name, start, end, parent span and request id (the
claim being run).  Counter patches hot methods on the arithmetic classes and
only counts; it is used in a separate, untimed pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter as _Counter

# (module, function, span name); `outermost` spans skip nested calls of themselves
SPANS = (
    ("cli", "main", "cli.main"),
    ("claims", "builtin_registry", "claims.builtin_registry"),
    ("claims", "load_claim_file", "claims.load_claim_file"),
    ("claims", "parse_claim_file", "claims.parse_claim_file"),
    ("claims", "run_all", "claims.run_all"),
    ("claims", "run_claim", "claims.run_claim"),
    ("exprs", "parse_expression", "exprs.parse_expression"),
    ("exprs", "evaluate", "exprs.evaluate"),
    ("variety", "parse_system", "variety.parse_system"),
    ("variety", "verify_point", "variety.verify_point"),
    ("variety", "lift_along_cover", "variety.lift_along_cover"),
    ("variety", "solve_square", "variety.solve_square"),
    ("variety", "sample_square_lift_property", "variety.sweep"),
    ("series", "series_sqrt", "series.series_sqrt"),
    ("orbifold", "degree", "orbifold.degree"),
)
OUTERMOST = {"exprs.evaluate"}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "localpoints" or name.startswith("localpoints."))]


class _Patches:
    """Replaces objects in module namespaces or on classes, and puts them back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def everywhere(self, original, replacement) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def set(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: _Counter = _Counter()
        self.sweeps: list[dict] = []  # results of sample_square_lift_property
        self._stack: list[int] = []
        self._depth: _Counter = _Counter()
        self._request: str | None = None
        self._patches = _Patches()

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in OUTERMOST and tracer._depth[name]:
                return fn(*args, **kwargs)
            outer_request = tracer._request
            if name == "claims.run_claim":
                tracer._request = args[0]
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer._request]
            tracer.spans.append(span)
            tracer._stack.append(index)
            tracer._depth[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._depth[name] -= 1
                tracer._stack.pop()
                tracer._request = outer_request
            if name == "variety.sweep":
                tracer.sweeps.append(result)
            return result

        return wrapper

    def _counted(self, name: str, fn, undecided: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[f"{name}.calls"] += 1
            result = fn(*args, **kwargs)
            if undecided and result.kind == "undecided":
                tracer.counts[f"{name}.undecided"] += 1
            return result

        return wrapper

    def install(self) -> None:
        modules = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
        for module, function, name in SPANS:
            original = getattr(modules[module], function)
            self._patches.everywhere(original, self._span(name, original))
        field_tower, series, variety = modules["field_tower"], modules["series"], modules["variety"]
        self._patches.everywhere(
            field_tower.is_square, self._counted("field_tower.is_square", field_tower.is_square,
                                                 undecided=True))
        self._patches.everywhere(
            field_tower.adjoin_quadratic,
            self._counted("field_tower.adjoin_quadratic", field_tower.adjoin_quadratic))
        self._patches.everywhere(
            series.is_square_local,
            self._counted("series.is_square_local", series.is_square_local))

        predicates = variety.valuation_case_predicates
        tracer = self

        @functools.wraps(predicates)
        def counted_predicates(*args, **kwargs):
            if tracer._depth["variety.sweep"]:
                tracer.counts["variety.sweep.predicate_calls"] += 1
            return predicates(*args, **kwargs)

        self._patches.everywhere(predicates, counted_predicates)

    def uninstall(self) -> None:
        self._patches.restore()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def claim_spans(self) -> list[tuple[str, float, float]]:
        """(claim name, start, end) of every run_claim span, in order."""
        return [(request, start, end) for name, start, end, _, request in self.spans
                if name == "claims.run_claim"]


class Counter:
    """Deterministic operation counts from patched arithmetic methods."""

    def __init__(self) -> None:
        self.counts: _Counter = _Counter()
        self._patches = _Patches()

    def install(self, lp) -> None:
        counts = self.counts

        def per_height(name, method):
            @functools.wraps(method)
            def wrapper(self, *args):
                result = method(self, *args)
                if result is not NotImplemented:
                    counts[f"{name}.h{result.tower.height}"] += 1
                return result
            return wrapper

        def plain(name, method):
            @functools.wraps(method)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)
            return wrapper

        element, rf, ps = lp.FieldElement, lp.RationalFunction, lp.PuiseuxSeries
        self._patches.set(element, "__mul__", per_height("field_tower.mul.calls", element.__mul__))
        self._patches.set(element, "__rmul__", per_height("field_tower.mul.calls", element.__rmul__))
        self._patches.set(element, "inverse", per_height("field_tower.inverse.calls", element.inverse))
        self._patches.set(rf, "__init__", plain("series.rf_new.calls", rf.__init__))
        self._patches.set(ps, "__mul__", plain("series.ps_mul.calls", ps.__mul__))
        self._patches.set(ps, "__rmul__", plain("series.ps_mul.calls", ps.__rmul__))
        self._patches.set(ps, "__truediv__", plain("series.ps_div.calls", ps.__truediv__))

    def uninstall(self) -> None:
        self._patches.restore()
