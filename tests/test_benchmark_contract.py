"""The names the benchmark harness in ``perfbench/`` reaches into must exist.

``perfbench/tracing.py`` wraps library functions and methods by name, and
``perfbench/workloads.py`` calls ``run_suite`` and ``invariance_gap``; a rename or
deletion in the library would otherwise break the benchmark silently.
The harness module is loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ptflab import (
    GAUSSIAN,
    MultilinearPolynomial,
    Rng,
    block_partition,
    estimate_alpha,
    estimate_beta,
    invariance_gap,
    random_polynomial,
)
from ptflab.cli import SUITE_NAMES, _analyze_report, run_suite

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    for table in (tracing.MC_FUNCTIONS, tracing.LAYER_FUNCTIONS):
        for module, names in table.items():
            mod = importlib.import_module(f"ptflab.{module}")
            for name in names:
                assert callable(getattr(mod, name, None)), f"ptflab.{module}.{name}"
    for name in tracing.POLYNOMIAL_METHODS:
        assert callable(getattr(MultilinearPolynomial, name, None)), name
    for name in ("generator", "chunk_generator"):
        assert callable(getattr(Rng, name, None)), name
    for name in tracing._MODULES:
        importlib.import_module(name)


def test_suite_sections_match(tracing):
    assert tracing.SUITE_SECTIONS == tuple(name for name in SUITE_NAMES if name != "all")


def test_run_suite_binds_the_positional_call():
    # perfbench/workloads.py: run_suite(section, seed, samples, 0.1, 0.05, 0.05, 1.0, 3, 1)
    inspect.signature(run_suite).bind("gl", 7, 1000, 0.1, 0.05, 0.05, 1.0, 3, 1)


def test_invariance_gap_binds_the_mc_wide_call():
    # perfbench/workloads.py: invariance_gap(p, None, samples, rng, workers=1)
    p = MultilinearPolynomial(1, {1: 1.0})
    inspect.signature(invariance_gap).bind(p, None, 1000, Rng(1), workers=1)


def test_smoke_preconditions_reach_the_counted_layers(monkeypatch):
    # perfbench/smoke.py requires polynomial.partial_derivative.calls > 0 on
    # mc_wide (beta in n = 512) and eval_many term rows on mc_ratio (alpha)
    calls = {"partial_derivative": 0, "eval_many_with_directions": 0}
    partial_derivative, eval_many = (
        MultilinearPolynomial.partial_derivative, MultilinearPolynomial.eval_many
    )

    def counting_partial_derivative(self, i):
        calls["partial_derivative"] += 1
        return partial_derivative(self, i)

    def counting_eval_many(self, points, directions=None):
        calls["eval_many_with_directions"] += directions is not None
        return eval_many(self, points, directions)

    monkeypatch.setattr(MultilinearPolynomial, "partial_derivative", counting_partial_derivative)
    monkeypatch.setattr(MultilinearPolynomial, "eval_many", counting_eval_many)
    wide = MultilinearPolynomial(512, {(1 << 3) | (1 << 200): 1.0, 1 << 511: 0.5, 1 << 64: -0.3})
    estimate_beta(wide, 1_000, Rng(1))
    assert calls["partial_derivative"] > 0
    estimate_alpha(wide, 1_000, Rng(2))
    assert calls["eval_many_with_directions"] > 0


def test_analyze_calls_the_hypercube_names_smoke_counts(tracing, monkeypatch):
    # perfbench/smoke.py requires hypercube.truth_table.calls, hypercube.fourier.calls,
    # hypercube.fwht.bytes_computed and hypercube.noise_sensitivity_exact.s to be
    # nonzero on exact_cube; tracing._rebind swaps each name in every module that
    # holds it, so only calls through a module name are counted
    calls = dict.fromkeys(("truth_table", "fourier", "fwht", "noise_sensitivity_exact"), 0)
    hypercube = importlib.import_module("ptflab.hypercube")
    for name in calls:
        original = getattr(hypercube, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in map(importlib.import_module, tracing._MODULES):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    _analyze_report(random_polynomial(8, 3, 12, Rng(7)), 0, 7, 1.0, 1.0, 1, "random")
    assert all(calls.values()), calls


# one tiny call of each Monte Carlo entry point the benchmark counts, by
# (module, name), with the number of samples its result reports per request:
# block_alpha_sum reports one result of the requested samples per block
_P = MultilinearPolynomial(3, {1: 1.0, 0b110: 0.5, 0b100: -0.3})
_BLOCKS = 3
MC_CALLS = {
    ("randomized", "tail_curve"): (lambda f, m: f(_P, GAUSSIAN, [1.0], m, Rng(1)), 1),
    ("randomized", "weak_anticoncentration_estimate"): (lambda f, m: f(_P, GAUSSIAN, m, Rng(1)), 1),
    ("randomized", "carbery_wright_estimate"): (lambda f, m: f(_P, 0.1, m, Rng(1)), 1),
    ("randomized", "strong_anticoncentration_estimate"): (lambda f, m: f(_P, 0.1, m, Rng(1)), 1),
    ("randomized", "estimate_alpha"): (lambda f, m: f(_P, m, Rng(1)), 1),
    ("randomized", "estimate_beta"): (lambda f, m: f(_P, m, Rng(1)), 1),
    ("randomized", "invariance_gap"): (lambda f, m: f(_P, None, m, Rng(1)), 1),
    ("randomized", "abs_comparison_gap"): (lambda f, m: f(_P, -_P, m, Rng(1)), 1),
    ("decompose", "block_alpha_sum"): (
        lambda f, m: f(_P, block_partition(_P.n, _BLOCKS), m, Rng(1)), _BLOCKS
    ),
}


def test_requested_samples_reads_every_monte_carlo_result(tracing):
    # samples_per_s divides tracing._requested_samples(result) by the wall time;
    # a result that lost its sample count would silently count 0
    traced = {(module, name) for module, names in tracing.MC_FUNCTIONS.items() for name in names}
    assert set(MC_CALLS) == traced
    samples = 300
    for (module, name), (call, per_request) in MC_CALLS.items():
        result = call(getattr(importlib.import_module(f"ptflab.{module}"), name), samples)
        assert tracing._requested_samples(result) == per_request * samples, name
