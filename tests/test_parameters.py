"""The numeric parameter rule, checked at every public entry point that takes a number.

A real parameter refuses a bool, NaN and an integer beyond the float range;
an integer parameter refuses a bool and any non-integer, and one with an
upper bound refuses an integer past it.  Every refusal is an ``InputError``,
never a raw ``OverflowError`` or ``TypeError`` from deeper in the
computation.  Points follow the same rule: a coordinate beyond the float
range or not a number is refused.  An integer-valued real is taken as its
float.
"""

import math

import numpy as np
import pytest

from ptflab import (
    GAUSSIAN,
    InputError,
    MultilinearPolynomial,
    RegularityConfig,
    Rng,
    SignFunction,
    block_alpha_sum,
    block_partition,
    build_regularity_tree,
    carbery_wright_estimate,
    classify_leaf,
    default_threshold,
    estimate_alpha,
    gl_bound,
    hypercontractivity_check,
    influential_set,
    invariance_gap,
    middle_layers_witness,
    noise_sensitivity_exact,
    random_polynomial,
    recursion_trace,
    strong_anticoncentration_estimate,
    tail_curve,
    theorem_log_bound,
)
from ptflab.cli import run_suite

BIG, TWICE_BIG = 10**400, 2 * 10**400
REALS = (BIG, math.nan, True)  # bad for a real parameter
COUNTS = (math.nan, True, 2.5)  # bad for an integer parameter
BOUNDED = (BIG, *COUNTS)  # bad for an integer parameter with an upper bound

P = random_polynomial(6, 2, 6, Rng(1))
F = SignFunction(P)


def tree(**params):
    return build_regularity_tree(P, RegularityConfig(**{"tau": 0.1, "eps": 0.05, "delta": 0.05, **params}))


def label(v):
    return {BIG: "10**400", TWICE_BIG: "2*10**400"}.get(v, repr(v))


def row(v):
    return np.array([[v, 0, 0, 0, 0, 0]], dtype=object)


# (entry point and parameter, call with the bad value, bad values)
ENTRY_POINTS = [
    ("RegularityConfig-tau", lambda v: tree(tau=v), REALS),
    ("RegularityConfig-eps", lambda v: tree(eps=v), REALS),
    ("RegularityConfig-delta", lambda v: tree(delta=v), REALS),
    ("RegularityConfig-big_m", lambda v: tree(big_m=v), REALS),
    ("classify_leaf-tau", lambda v: classify_leaf(P, v, 0.05), REALS),
    ("classify_leaf-eps", lambda v: classify_leaf(P, 0.1, v), REALS),
    ("influential_set-m", lambda v: influential_set(P, v), REALS),
    ("default_threshold-tau", lambda v: default_threshold(v, 0.1, 2, 1.0), REALS),
    ("default_threshold-eps", lambda v: default_threshold(0.1, v, 2, 1.0), REALS),
    ("default_threshold-d", lambda v: default_threshold(0.1, 0.1, v, 1.0), BOUNDED),
    ("default_threshold-big_m", lambda v: default_threshold(0.1, 0.1, 2, v), REALS),
    ("block_partition-n", lambda v: block_partition(v, 2), BOUNDED),
    ("block_partition-b", lambda v: block_partition(6, v), BOUNDED),
    ("block_alpha_sum-tau", lambda v: block_alpha_sum(P, block_partition(6, 2), 100, Rng(1), tau=v), REALS),
    ("recursion_trace-blocks", lambda v: recursion_trace(P, [v], RegularityConfig(0.1, 0.05, 0.05), 100, Rng(1)), COUNTS),
    ("carbery_wright_estimate-eps", lambda v: carbery_wright_estimate(P, v, 100, Rng(1)), REALS),
    ("strong_anticoncentration_estimate-eps", lambda v: strong_anticoncentration_estimate(P, v, 100, Rng(1)), REALS),
    ("estimate_alpha-samples", lambda v: estimate_alpha(P, v, Rng(1)), COUNTS),
    ("estimate_alpha-workers", lambda v: estimate_alpha(P, 100, Rng(1), workers=v), COUNTS),
    ("tail_curve-thresholds", lambda v: tail_curve(P, GAUSSIAN, [1.0, v], 100, Rng(1)), REALS),
    ("invariance_gap-grid", lambda v: invariance_gap(P, [v], 100, Rng(1)), REALS),
    ("hypercontractivity_check-t", lambda v: hypercontractivity_check(P, v), (TWICE_BIG, math.nan, True, 4.0)),
    ("random_polynomial-n", lambda v: random_polynomial(v, 2, 3, Rng(1)), BOUNDED),
    ("random_polynomial-degree", lambda v: random_polynomial(5, v, 3, Rng(1)), BOUNDED),
    ("random_polynomial-terms", lambda v: random_polynomial(5, 2, v, Rng(1)), COUNTS),
    ("Rng-seed", lambda v: Rng(v).generator(), COUNTS),
    ("Rng-stream", lambda v: Rng(1, v).generator(), COUNTS),
    ("noise_sensitivity_exact-delta", lambda v: noise_sensitivity_exact(F, v), REALS),
    ("gl_bound-n", lambda v: gl_bound(v, 2), BOUNDED),
    ("gl_bound-d", lambda v: gl_bound(6, v), BOUNDED),
    ("middle_layers_witness-n", lambda v: middle_layers_witness(v, 2), BOUNDED),
    ("middle_layers_witness-d", lambda v: middle_layers_witness(6, v), BOUNDED),
    ("theorem_log_bound-n", lambda v: theorem_log_bound(v, 2), REALS),
    ("theorem_log_bound-d", lambda v: theorem_log_bound(10.0, v), BOUNDED),
    ("theorem_log_bound-c_log", lambda v: theorem_log_bound(10.0, 2, c_log=v), REALS),
    ("theorem_log_bound-c_exp", lambda v: theorem_log_bound(10.0, 2, c_exp=v), REALS),
    ("MultilinearPolynomial-n", lambda v: MultilinearPolynomial(v, {}), BOUNDED),
    ("coordinate_sum-n", lambda v: MultilinearPolynomial.coordinate_sum(v), BOUNDED),
    ("from_vars-index", lambda v: MultilinearPolynomial.from_vars(6, {(v,): 1.0}), BOUNDED),
    ("from_json_dict-n", lambda v: MultilinearPolynomial.from_json_dict({"n": v, "terms": []}), BOUNDED),
    ("is_regular-tau", lambda v: P.is_regular(v), (*REALS, math.inf)),
    ("eval_many-points", lambda v: P.eval_many(row(v)), (BIG, "x")),
    ("eval-point", lambda v: P.eval(row(v)[0]), (BIG, "x")),
    ("run_suite-samples", lambda v: run_suite("gl", 7, v, 0.1, 0.05, 0.05, 1.0, 3, 1), COUNTS),
]


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name}-{label(value)}")
        for name, call, values in ENTRY_POINTS
        for value in values
    ],
)
def test_a_bad_number_is_refused_with_input_error(call, value):
    with pytest.raises(InputError):
        call(value)


# (entry point, call with an integer-valued real, the integer)
SAME_AS_FLOAT = [
    ("RegularityConfig", lambda x: tree(tau=x, big_m=x), 1),
    ("classify_leaf", lambda x: classify_leaf(P, x, 0.05), 1),
    ("is_regular", lambda x: P.is_regular(x), 1),
    ("influential_set", lambda x: influential_set(P, x), 0),
    ("default_threshold", lambda x: default_threshold(0.1, 0.1, 2, x), 2),
    ("block_alpha_sum", lambda x: block_alpha_sum(P, block_partition(6, 2), 500, Rng(3), tau=x), 1),
    ("carbery_wright_estimate", lambda x: carbery_wright_estimate(P, x, 500, Rng(3)), 1),
    ("strong_anticoncentration_estimate", lambda x: strong_anticoncentration_estimate(P, x, 500, Rng(3)), 1),
    ("tail_curve", lambda x: tail_curve(P, GAUSSIAN, [x], 500, Rng(3)), 1),
    ("invariance_gap", lambda x: invariance_gap(P, [x], 500, Rng(3)).per_t.tolist(), 0),
    ("noise_sensitivity_exact", lambda x: noise_sensitivity_exact(F, x), 0),
    ("theorem_log_bound", lambda x: theorem_log_bound(x, 3, x, x), 10),
]


@pytest.mark.parametrize("call, value", [pytest.param(c, v, id=name) for name, c, v in SAME_AS_FLOAT])
def test_an_integer_valued_real_acts_as_its_float(call, value):
    assert call(value) == call(float(value))
