"""Metamorphic relations: transformations of p that must not move a result.

sgn(p) is unchanged when p is multiplied by a positive constant or
embedded into more variables it does not use, and it flips when p is
negated (away from its zeros).  Scaling by a power of two is exact in
floating point, so every seeded estimate, every exact quantity and the
restriction tree must come out bit-identical, not merely close.  The one
exception is exact alpha under padding, whose sum over the 4^n pairs of
points grows and is rounded differently.  The scale-free results (the
statistics, regularity, leaf labels and the restriction tree) are
computed on the unit form of p, so they stay bit-identical even at scales
where the squares of the coefficients overflow or underflow.

Relabelling the variables permutes the truth table and the spectrum bit
for bit (a +-1 table transforms exactly) and leaves every quantity built
from them unchanged; the influences are permuted up to the rounding of
their sums, whose term order changes.
"""

import numpy as np
import pytest

from ptflab import (
    BERNOULLI,
    GAUSSIAN,
    MultilinearPolynomial,
    RegularityConfig,
    Rng,
    SignFunction,
    abs_comparison_gap,
    average_sensitivity_exact,
    average_sensitivity_fourier,
    block_alpha_sum,
    block_partition,
    build_regularity_tree,
    carbery_wright_estimate,
    classify_leaf,
    estimate_alpha,
    estimate_beta,
    exact_alpha,
    fourier,
    hypercontractivity_check,
    invariance_gap,
    noise_sensitivity_exact,
    random_polynomial,
    strong_anticoncentration_estimate,
    tail_curve,
    truth_table,
    weak_anticoncentration_estimate,
    weak_anticoncentration_exact,
)

# numpy's overflow, invalid and divide warnings fail the test
pytestmark = pytest.mark.filterwarnings("error")

EXPONENTS = (-500, -49, 40, 500)
CONFIG = RegularityConfig(tau=0.1, eps=0.05, delta=0.05)
SAMPLES = 2000
INSTANCES = [random_polynomial(7, 3, 16, Rng(100 + s)) for s in range(3)]


def tree_outputs(p, scale):
    """The restriction tree of p, with its leaf terms divided by the ``scale`` of p."""
    tree = build_regularity_tree(p, CONFIG)
    sign = 1 if scale > 0 else -1
    leaves = [
        (
            leaf.path,
            {m: c / scale for m, c in leaf.polynomial.terms.items()},
            leaf.label.kind,
            None if leaf.label.sign is None else sign * leaf.label.sign,
            leaf.label.exact_verified,
        )
        for leaf in tree.leaves
    ]
    return leaves, tree.success, tree.diagnostics


def outputs(p, scale=1.0):
    """Every checked result of p, with the tree and terms divided by the ``scale`` of p."""
    rng = Rng(11)
    return {
        "terms": {m: c / scale for m, c in p.terms.items()},
        "alpha": estimate_alpha(p, SAMPLES, rng.child(0)),
        "beta": estimate_beta(p, SAMPLES, rng.child(1)),
        "strong": strong_anticoncentration_estimate(p, 0.1, SAMPLES, rng.child(2)),
        "carbery_wright": carbery_wright_estimate(p, 0.1, SAMPLES, rng.child(3)),
        "exact_alpha": exact_alpha(p),
        "as": average_sensitivity_exact(SignFunction(p)),
        "hypercontractivity": hypercontractivity_check(p, 4).lhs / abs(scale),
        "tree": tree_outputs(p, scale),
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


# beyond +-2^512 the coefficient squares overflow or underflow
EXTREME_EXPONENTS = (-1000, -600, 600, 1000)
GAP_THRESHOLDS = np.array([-1.5, 0.0, 0.7])


def scale_free_outputs(p, e=0):
    """Every scale-free result of p, whose scale is 2^e, at unit scale.

    The invariance gap's quantile thresholds are compared scaled back by
    2^-e, and its given thresholds are the fixed ones times 2^e.  The
    comparison gap pairs p with the coordinate sum at the same scale.
    """
    rng = Rng(12)
    gap = invariance_gap(p, None, SAMPLES, rng.child(7))
    fixed = invariance_gap(p, np.ldexp(GAP_THRESHOLDS, e), SAMPLES, rng.child(8))
    q = MultilinearPolynomial.coordinate_sum(p.n).scale(2.0**e)
    return {
        "alpha": estimate_alpha(p, SAMPLES, rng.child(0)),
        "beta": estimate_beta(p, SAMPLES, rng.child(1)),
        "strong": strong_anticoncentration_estimate(p, 0.1, SAMPLES, rng.child(2)),
        "carbery_wright": carbery_wright_estimate(p, 0.1, SAMPLES, rng.child(3)),
        "weak_exact": weak_anticoncentration_exact(p),
        "weak_bernoulli": weak_anticoncentration_estimate(p, BERNOULLI, SAMPLES, rng.child(4)),
        "weak_gaussian": weak_anticoncentration_estimate(p, GAUSSIAN, SAMPLES, rng.child(5)),
        "tail": tail_curve(p, GAUSSIAN, [0.5, 1.0, 2.0], SAMPLES, rng.child(6)),
        "blocks": block_alpha_sum(p, block_partition(p.n, 3), SAMPLES, rng.child(9)),
        "exact_alpha": exact_alpha(p),
        "gap": (gap.gap, np.ldexp(gap.thresholds, -e).tolist(), gap.per_t.tolist()),
        "fixed_gap": (fixed.gap, np.ldexp(fixed.thresholds, -e).tolist(), fixed.per_t.tolist()),
        "comparison_gap": abs_comparison_gap(p, q, SAMPLES, rng.child(10)),
        "tree": tree_outputs(p, 2.0**e),
        "label": classify_leaf(p, CONFIG.tau, CONFIG.eps),
        "regular": p.is_regular(CONFIG.tau),
        "most_influential": p.max_influence()[0],
    }


@pytest.mark.parametrize("p", INSTANCES)
def test_scale_free_statistics_are_bit_identical_at_any_finite_scale(p):
    reference = scale_free_outputs(p)
    for e in EXTREME_EXPONENTS:
        assert scale_free_outputs(p.scale(2.0**e), e) == reference, e


@pytest.mark.parametrize("p", INSTANCES)
def test_hypercontractivity_is_reported_in_p_units_at_tiny_scales(p):
    # above 2^512 the squares of |p|_2 overflow and the check refuses p
    reference = hypercontractivity_check(p, 4)
    for e in (-600, -1000):
        check = hypercontractivity_check(p.scale(2.0**e), 4)
        assert (check.lhs / 2.0**e, check.rhs / 2.0**e, check.holds) == (
            reference.lhs, reference.rhs, reference.holds
        ), e


def _relabel(mask, perm):
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


@pytest.mark.parametrize("seed", range(3))
def test_relabelling_permutes_the_exact_views(seed):
    p = random_polynomial(9, 3, 20, Rng(300 + seed))
    perm = [int(i) for i in np.random.default_rng(seed).permutation(p.n)]
    q = MultilinearPolynomial(p.n, {_relabel(m, perm): c for m, c in p.terms.items()})
    f, g = SignFunction(p), SignFunction(q)
    # point mask a of p is point mask _relabel(a) of q, and likewise for subsets
    index = np.array([_relabel(a, perm) for a in range(1 << p.n)])
    assert np.array_equal(truth_table(g)[index], truth_table(f))
    assert np.array_equal(fourier(g)[index], fourier(f))
    assert np.array_equal(g.level_weights, f.level_weights)
    assert average_sensitivity_exact(g) == average_sensitivity_exact(f)
    assert average_sensitivity_fourier(g) == average_sensitivity_fourier(f)
    for delta in (0.05, 0.2, 0.5):
        assert noise_sensitivity_exact(g, delta) == noise_sensitivity_exact(f, delta)
    np.testing.assert_allclose(q.influences()[perm], p.influences(), rtol=1e-14)
