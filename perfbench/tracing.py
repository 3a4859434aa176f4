"""Spans and counters recorded from outside the library.

Nothing under ``src/`` is edited: public functions are wrapped and the
wrappers are rebound in every ``ptflab`` module that imported the original
by name; methods are patched on ``MultilinearPolynomial`` and ``Rng``.
Patches last for the life of the process, which is one worker run.

A :class:`Tracer` always wraps the public Monte Carlo entry points, so that
an untraced run can count the samples it requested (a few dozen calls per
run, each costing two clock reads).  With ``full=True`` it also wraps the
per-layer functions listed in ``LAYER_FUNCTIONS``, counts draws through a
proxy around the generators that ``Rng`` returns, and measures the peak
allocation of each estimator call with ``tracemalloc``.

Spans are kept in memory as ``(name, start, end, parent)`` and written out
by :meth:`Tracer.write_spans` when the worker ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

import numpy as np

# Public Monte Carlo entry points, by defining module.  Samples requested
# are read from each result (see ``_requested_samples``).
MC_FUNCTIONS = {
    "randomized": (
        "tail_curve",
        "weak_anticoncentration_estimate",
        "carbery_wright_estimate",
        "strong_anticoncentration_estimate",
        "estimate_alpha",
        "estimate_beta",
        "invariance_gap",
        "abs_comparison_gap",
    ),
    "decompose": ("block_alpha_sum",),
}

# Estimators whose calls, times, samples and peak allocation are reported.
ESTIMATORS = (
    "strong_anticoncentration_estimate",
    "estimate_alpha",
    "estimate_beta",
    "invariance_gap",
    "abs_comparison_gap",
)

# Further public functions wrapped in a traced run, by defining module.
LAYER_FUNCTIONS = {
    "randomized": ("exact_alpha",),
    "hypercube": (
        "fwht",
        "truth_table",
        "fourier",
        "average_sensitivity_exact",
        "noise_sensitivity_exact",
    ),
    "decompose": (
        "build_regularity_tree",
        "classify_leaf",
        "block_sensitivity_identity_check",
        "recursion_trace",
    ),
}

POLYNOMIAL_METHODS = ("eval_many", "partial_derivative", "restrict", "compress_support")

_DRAW_METHODS = frozenset(
    ("standard_normal", "integers", "choice", "random", "normal", "uniform", "permutation")
)

_MODULES = ("ptflab", "ptflab.polynomial", "ptflab.hypercube", "ptflab.randomized",
            "ptflab.decompose", "ptflab.cli")


def _requested_samples(result) -> int:
    per_block = getattr(result, "per_block", None)
    if per_block is not None:
        return sum(r.samples for r in per_block)
    return int(getattr(result, "samples", 0))


class _CountingGenerator:
    """Delegates to a numpy Generator, timing and counting each draw."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: "Tracer") -> None:
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name not in _DRAW_METHODS:
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            if not tracer.enabled:
                return attr(*args, **kwargs)
            index = tracer.open("randomized.draws")
            try:
                out = attr(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.counters["randomized.draws.values"] += int(np.size(out))
            return out

        return draw


class Tracer:
    """Records spans and counters; ``enabled`` gates all recording."""

    def __init__(self, full: bool) -> None:
        self.full = full
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.mc_calls: list[tuple[str, float, object]] = []  # (name, wall, result)

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span made by the benchmark itself (no parent)."""
        self.spans.append([name, start, end, -1])

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.mc_calls.clear()
        self.counters = {
            "randomized.draws.values": 0,
            "polynomial.eval_many.term_rows": 0,
            "hypercube.fwht.points": 0,
            "hypercube.fwht.bytes_computed": 0,
        }
        for est in ESTIMATORS:
            self.counters[f"randomized.{est}.samples"] = 0
            self.counters[f"randomized.{est}.peak_alloc_mb"] = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import ptflab  # noqa: F401  (loads every submodule named in _MODULES)

        self.reset()
        for module, names in MC_FUNCTIONS.items():
            for name in names:
                self._rebind(module, name, self._mc_wrapper)
        if not self.full:
            return
        for module, names in LAYER_FUNCTIONS.items():
            for name in names:
                self._rebind(module, name, self._span_wrapper)
        poly_cls = sys.modules["ptflab.polynomial"].MultilinearPolynomial
        for name in POLYNOMIAL_METHODS:
            setattr(poly_cls, name, self._method_wrapper(name, getattr(poly_cls, name)))
        rng_cls = sys.modules["ptflab.randomized"].Rng
        for name in ("generator", "chunk_generator"):
            setattr(rng_cls, name, self._generator_wrapper(getattr(rng_cls, name)))

    def _rebind(self, module: str, name: str, make_wrapper) -> None:
        original = getattr(sys.modules[f"ptflab.{module}"], name)
        wrapper = make_wrapper(f"{module}.{name}", original)
        for mod_name in _MODULES:
            mod = sys.modules[mod_name]
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, span: str, fn):
        tracer = self
        counted = span == "hypercube.fwht"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
                if counted:
                    points = int(np.shape(args[0])[0])
                    tracer.counters["hypercube.fwht.points"] += points
                    # one float64 read and one write per point per butterfly stage
                    stages = max(points.bit_length() - 1, 0)
                    tracer.counters["hypercube.fwht.bytes_computed"] += 16 * points * stages

        return wrapper

    def _mc_wrapper(self, span: str, fn):
        tracer = self
        short = span.split(".", 1)[1]
        tracked = self.full and short in ESTIMATORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            own_tracing = tracked and not tracemalloc.is_tracing()
            if own_tracing:
                tracemalloc.start()
            index = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
                if own_tracing:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = f"randomized.{short}.peak_alloc_mb"
                    tracer.counters[key] = max(tracer.counters[key], peak)
            start, end = tracer.spans[index][1:3]
            tracer.mc_calls.append((short, end - start, result))
            if short in ESTIMATORS:
                tracer.counters[f"randomized.{short}.samples"] += _requested_samples(result)
            return result

        return wrapper

    def _method_wrapper(self, name: str, fn):
        tracer = self
        span = f"polynomial.{name}"
        is_eval = name == "eval_many"

        @functools.wraps(fn)
        def wrapper(poly, *args, **kwargs):
            if not tracer.enabled:
                return fn(poly, *args, **kwargs)
            index = tracer.open(span)
            try:
                return fn(poly, *args, **kwargs)
            finally:
                tracer.close(index)
                if is_eval:
                    rows = int(np.shape(args[0])[0])
                    tracer.counters["polynomial.eval_many.term_rows"] += len(poly.terms) * rows

        return wrapper

    def _generator_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(rng, *args, **kwargs):
            gen = fn(rng, *args, **kwargs)
            return _CountingGenerator(gen, tracer) if tracer.enabled else gen

        return wrapper

    # -- results -----------------------------------------------------------

    def requested_samples(self) -> int:
        return sum(_requested_samples(result) for _, _, result in self.mc_calls)

    def time_to_1pct_s(self) -> float:
        """Sum of call wall x (std_error / (0.01 |estimate|))^2 over estimates."""
        total = 0.0
        for _, wall, result in self.mc_calls:
            estimate = getattr(result, "estimate", None)
            std_error = getattr(result, "std_error", None)
            if estimate is None or std_error is None or estimate == 0.0:
                continue
            total += wall * (std_error / (0.01 * abs(estimate))) ** 2
        return total

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that reaches itself is not counted twice.  Self time is a
        span's duration minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += end - start
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


# -- per-layer metrics --------------------------------------------------------

_UNITS = {"calls": "count", "s": "s", "self_s": "s", "samples": "count",
          "peak_alloc_mb": "MB", "values": "count", "term_rows": "count",
          "points": "count", "bytes_computed": "B"}

SUITE_SECTIONS = ("invariants", "gl", "anticoncentration", "invariance", "decompose")

# span or counter prefix -> reported fields
LAYER_FIELDS = {
    "randomized.draws": ("values", "s"),
    **{f"randomized.{est}": ("calls", "s", "self_s", "samples", "peak_alloc_mb")
       for est in ESTIMATORS},
    "randomized.exact_alpha": ("s",),
    "polynomial.eval_many": ("calls", "s", "term_rows"),
    "polynomial.partial_derivative": ("calls",),
    "polynomial.restrict": ("calls", "s"),
    "polynomial.compress_support": ("calls", "s"),
    "hypercube.fwht": ("calls", "s", "points", "bytes_computed"),
    "hypercube.truth_table": ("calls", "s"),
    "hypercube.fourier": ("calls", "s"),
    "hypercube.average_sensitivity_exact": ("s",),
    "hypercube.noise_sensitivity_exact": ("s",),
    "decompose.build_regularity_tree": ("calls", "s"),
    "decompose.classify_leaf": ("calls", "s"),
    "decompose.block_sensitivity_identity_check": ("s",),
    "decompose.block_alpha_sum": ("s",),
    "decompose.recursion_trace": ("s",),
    "cli.analyze": ("s",),
    **{f"cli.run_suite.{section}": ("s",) for section in SUITE_SECTIONS},
}

# metrics the benchmark measures itself rather than reading from spans
DERIVED_UNITS = {
    "randomized.time_to_1pct_s": "s",
    "randomized.scaling_w2": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{prefix}.{field}": _UNITS[field]
           for prefix, fields in LAYER_FIELDS.items() for field in fields}
    out.update(DERIVED_UNITS)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Span- and counter-based per-layer metrics; layers not reached read 0."""
    totals = tracer.span_totals()
    out: dict[str, float] = {}
    for prefix, fields in LAYER_FIELDS.items():
        span = totals.get(prefix, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for field in fields:
            key = f"{prefix}.{field}"
            out[key] = span[field] if field in span else tracer.counters.get(key, 0)
    return out
