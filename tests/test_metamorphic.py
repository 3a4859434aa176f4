"""Metamorphic relations: transformations of p that must not move a result.

sgn(p) is unchanged when p is multiplied by a positive constant or
embedded into more variables it does not use, and it flips when p is
negated (away from its zeros).  Scaling by a power of two is exact in
floating point, so every seeded estimate, every exact quantity and the
restriction tree must come out bit-identical, not merely close.  The one
exception is exact alpha under padding, whose sum over the 4^n pairs of
points grows and is rounded differently; relabelling the variables is
left out for the same reason.
"""

import pytest

from ptflab import (
    MultilinearPolynomial,
    RegularityConfig,
    Rng,
    SignFunction,
    average_sensitivity_exact,
    build_regularity_tree,
    carbery_wright_estimate,
    estimate_alpha,
    estimate_beta,
    exact_alpha,
    hypercontractivity_check,
    random_polynomial,
    strong_anticoncentration_estimate,
)

# numpy's overflow, invalid and divide warnings fail the test
pytestmark = pytest.mark.filterwarnings("error")

EXPONENTS = (-500, -49, 40, 500)
CONFIG = RegularityConfig(tau=0.1, eps=0.05, delta=0.05)
SAMPLES = 2000
INSTANCES = [random_polynomial(7, 3, 16, Rng(100 + s)) for s in range(3)]


def outputs(p, scale=1.0):
    """Every checked result of p, with the tree and terms divided by the ``scale`` of p."""
    rng = Rng(11)
    tree = build_regularity_tree(p, CONFIG)
    sign = 1 if scale > 0 else -1
    leaves = [
        (
            leaf.path,
            {m: c / scale for m, c in leaf.polynomial.terms.items()},
            leaf.label.kind,
            None if leaf.label.sign is None else sign * leaf.label.sign,
            leaf.label.exact_verified,
            leaf.label.mismatch,
        )
        for leaf in tree.leaves
    ]
    return {
        "terms": {m: c / scale for m, c in p.terms.items()},
        "alpha": estimate_alpha(p, SAMPLES, rng.child(0)),
        "beta": estimate_beta(p, SAMPLES, rng.child(1)),
        "strong": strong_anticoncentration_estimate(p, 0.1, SAMPLES, rng.child(2)),
        "carbery_wright": carbery_wright_estimate(p, 0.1, SAMPLES, rng.child(3)),
        "exact_alpha": exact_alpha(p),
        "as": average_sensitivity_exact(SignFunction(p)),
        "hypercontractivity": hypercontractivity_check(p, 4).lhs / abs(scale),
        "leaves": leaves,
        "success": tree.success,
        "diagnostics": tree.diagnostics,
    }


@pytest.mark.parametrize("p", INSTANCES)
def test_results_depend_on_p_only_up_to_scale(p):
    reference = outputs(p)
    for e in EXPONENTS:
        assert outputs(p.scale(2.0**e), 2.0**e) == reference, e


@pytest.mark.parametrize("p", INSTANCES)
def test_results_ignore_unused_variables(p):
    padded, reference = outputs(MultilinearPolynomial(p.n + 5, p.terms)), outputs(p)
    # exact alpha sums 4^5 times as many pairs, so its rounding differs
    assert padded.pop("exact_alpha") == pytest.approx(reference.pop("exact_alpha"), rel=1e-13)
    assert padded == reference


@pytest.mark.parametrize("p", INSTANCES)
def test_negation_flips_only_the_tree_signs(p):
    assert outputs(p.scale(-1.0), -1.0) == outputs(p)
