"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Seeds are frozen; all expected values come from exact
enumeration, closed forms, or the documented formulas.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from ptflab import (
    LeafKind,
    MultilinearPolynomial,
    RegularityConfig,
    Rng,
    SignFunction,
    average_sensitivity_exact,
    average_sensitivity_fourier,
    block_partition,
    block_sensitivity_identity_check,
    build_regularity_tree,
    carbery_wright_estimate,
    estimate_alpha,
    evaluate_on_hypercube,
    gl_bound,
    hypercontractivity_check,
    invariance_gap,
    middle_layers_witness,
    random_polynomial,
    strong_anticoncentration_estimate,
    tree_sensitivity_check,
    truth_table,
    weak_anticoncentration_exact,
)
from ptflab.cli import main as cli_main
from ptflab.hypercube import all_points

from conftest import random_instances

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(num, budget_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num} FAIL ({elapsed:.1f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num} PASS ({elapsed:.1f}s / budget {budget_seconds}s): {description}")
    assert elapsed < budget_seconds, (
        f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s >= {budget_seconds}s"
    )


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_criterion_1_gl_tightness_at_degree_one():
    with criterion(1, 10, "middle-layers witness meets the bound at d=1, odd n up to 15"):
        for n in (3, 5, 7, 9, 11, 13, 15):
            value = average_sensitivity_exact(SignFunction(middle_layers_witness(n, 1)))
            bound = gl_bound(n, 1)
            assert abs(value - bound) <= 1e-9, f"n={n}: as={value!r} vs bound={bound!r}"


def test_criterion_2_gl_conjecture_desk_sweep():
    with criterion(2, 120, "500 random PTFs with n<=12, d<=3 stay below the bound"):
        findings = []
        for k, p in random_instances(1002, 500, n_range=(2, 12), d_max=3, terms_range=(2, 14)):
            value = average_sensitivity_exact(SignFunction(p))
            bound = gl_bound(p.n, max(1, p.degree))
            if value > bound + 1e-9:
                findings.append((k, p.n, p.degree, value, bound))
        assert not findings, f"conjecture violations found: {findings}"


def test_criterion_3_exact_identities():
    with criterion(3, 120, "L2 bridge, block decomposition identity, two-path sensitivity"):
        for k, p in random_instances(1003, 100, n_range=(2, 12), d_max=3):
            l2_coeff = p.moments().l2_norm
            values = p.eval_many(all_points(p.n))
            l2_enum = math.sqrt(float((values**2).mean()))
            assert abs(l2_coeff - l2_enum) <= 1e-10, f"instance {k}: L2 bridge broke"

            f = SignFunction(p)
            edge = average_sensitivity_exact(f)
            weighted = average_sensitivity_fourier(truth_table(f))
            assert abs(edge - weighted) <= 1e-9, f"instance {k}: sensitivity paths disagree"

        for k, p in random_instances(1033, 50, n_range=(4, 10), d_max=3):
            f = SignFunction(p)
            for b in (2, 3, p.n):
                check = block_sensitivity_identity_check(f, block_partition(p.n, b))
                assert check.gap <= 1e-9, f"instance {k}, b={b}: gap={check.gap!r}"


def test_criterion_4_exact_inequality_batteries():
    with criterion(4, 180, "weak anticoncentration, hypercontractivity, sandwich, tree bound"):
        config = RegularityConfig(tau=0.1, eps=0.05, delta=0.05)
        for k, p in random_instances(1004, 200, n_range=(2, 12), d_max=4):
            d = max(1, p.degree)
            assert weak_anticoncentration_exact(p) >= 9.0 ** (-d) / 2.0, f"instance {k}"
            assert hypercontractivity_check(p, 4).holds, f"instance {k}"
            mom = p.moments()
            total = p.total_influence()
            assert mom.variance <= total + 1e-9, f"instance {k}"
            assert total <= d * mom.variance + 1e-9, f"instance {k}"
            tree = build_regularity_tree(p, config)
            assert tree_sensitivity_check(SignFunction(p), tree).holds, f"instance {k}"


def test_criterion_5_closed_form_calibration():
    with criterion(5, 60, "closed-form oracles for the three seeded estimators"):
        x0 = MultilinearPolynomial.from_vars(1, {(0,): 1.0})

        strong = strong_anticoncentration_estimate(x0, 0.1, 10**6, Rng(9005, 1))
        strong_ref = (2.0 / math.pi) * math.atan(0.1)
        assert abs(strong.estimate - strong_ref) <= 3.0 * strong.std_error

        cw = carbery_wright_estimate(x0, 0.1, 10**6, Rng(9005, 2))
        cw_ref = 2.0 * (normal_cdf(0.1) - normal_cdf(0.0))
        assert abs(cw.estimate - cw_ref) <= 3.0 * cw.std_error

        pair = MultilinearPolynomial.from_vars(2, {(0,): 1.0, (1,): 1.0})
        hits = sum(estimate_alpha(pair, 10**5, Rng(500, s)).covers(0.75) for s in range(20))
        assert hits >= 17, f"ci95 covered 0.75 in only {hits}/20 runs"


def test_criterion_6_strong_anticoncentration_eps_scaling():
    with criterion(6, 300, "halving eps halves the estimate for 5 random polynomials"):
        for k in range(5):
            inst = Rng(900).child(k)
            p = random_polynomial(8, 3, 8, inst)
            p = MultilinearPolynomial(8, {m: c for m, c in p.terms.items() if m != 0})
            assert p.degree >= 1
            wide = strong_anticoncentration_estimate(p, 0.01, 10**7, inst.child(1))
            narrow = strong_anticoncentration_estimate(p, 0.005, 10**7, inst.child(2))
            ratio = wide.estimate / narrow.estimate
            assert 1.5 <= ratio <= 2.5, f"poly {k}: ratio {ratio!r}"


def test_criterion_7_invariance_gap_decay():
    with criterion(7, 60, "measured CDF gap shrinks from n=25 to n=400"):
        def scaled_sum(n):
            return MultilinearPolynomial(n, {1 << i: 1.0 / math.sqrt(n) for i in range(n)})

        small = invariance_gap(scaled_sum(25), None, 10**6, Rng(9007, 25))
        large = invariance_gap(scaled_sum(400), None, 10**6, Rng(9007, 400))
        assert large.gap <= small.gap, f"gap(400)={large.gap!r} > gap(25)={small.gap!r}"


def test_criterion_8_regularity_tree_targets():
    with criterion(8, 300, "50 trees meet the bad-mass target; exact sign labels verify"):
        config = RegularityConfig(tau=0.1, eps=0.05, delta=0.05)
        successes = 0
        for k, p in random_instances(1008, 50, n_range=(4, 14), d_max=3):
            tree = build_regularity_tree(p, config)
            if tree.success:
                successes += 1
            for leaf in tree.leaves:
                label = leaf.label
                if label.kind is LeafKind.NEAR_CONSTANT and label.exact_verified:
                    compressed, _ = leaf.polynomial.compress_support()
                    values = evaluate_on_hypercube(compressed)
                    mismatch = float(
                        np.mean(np.where(values >= 0.0, 1, -1) != label.sign)
                    )
                    assert mismatch <= config.eps, (
                        f"instance {k}: exact-path leaf mislabeled (mismatch {mismatch!r})"
                    )
        assert successes >= 45, f"only {successes}/50 trees met the bad-mass target"


def test_criterion_9_suite_determinism(tmp_path):
    with criterion(9, 600, "suite all --seed 7 --workers 1 twice is byte-identical"):
        runner = CliRunner()
        outputs = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            result = runner.invoke(
                cli_main,
                ["suite", "--suite", "all", "--seed", "7", "--workers", "1", "--out", str(out)],
            )
            assert result.exit_code == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], "suite bundles differ between identical runs"
