import math

import pytest

from ptflab import (
    CapExceededError,
    InputError,
    LeafKind,
    MultilinearPolynomial,
    RegularityConfig,
    Rng,
    SignFunction,
    block_alpha_sum,
    block_partition,
    block_sensitivity_identity_check,
    build_regularity_tree,
    classify_leaf,
    default_threshold,
    exact_alpha,
    influential_set,
    random_polynomial,
    recursion_trace,
    small_alpha_check,
    tree_sensitivity_check,
)
from ptflab import decompose
from ptflab.decompose import BlockPartition

from conftest import poly, random_instances


def scaled_sum(n):
    return MultilinearPolynomial(n, {1 << i: 1.0 / math.sqrt(n) for i in range(n)})


CONFIG = RegularityConfig(tau=0.1, eps=0.05, delta=0.05)


# ---------------------------------------------------------------------------
# influential coordinates and the threshold formula


def test_influential_set_examples():
    p = poly(2, {(0, 1): 1.0, (0,): 1.0})
    assert influential_set(p, 1.5) == {0}
    assert influential_set(p, 10.0) == set()
    q = MultilinearPolynomial.coordinate_sum(5)
    assert influential_set(q, 0.5) == set(range(5))


def test_influential_set_size_bound():
    for _, p in random_instances(71, 15):
        for m in (0.05, 0.2, 1.0):
            assert len(influential_set(p, m)) <= p.total_influence() / m


def test_influential_set_zero_threshold_keeps_every_influential_coordinate():
    # x1's only coefficient is zero and x3 does not occur
    p = poly(4, {(0, 2): 1e-150, (1,): 0.0, (2,): 2.0})
    assert influential_set(p, 0.0) == {0, 2}
    for _, q in random_instances(72, 10):
        infl = q.influences()
        assert influential_set(q, 0.0) == {i for i in range(q.n) if infl[i] > 0}


def test_influential_set_rejects_negative_and_nan_threshold():
    for m in (-1e-300, -1.0, math.nan):
        with pytest.raises(InputError):
            influential_set(poly(1, {(0,): 1.0}), m)


def test_default_threshold_value():
    value = default_threshold(0.1, 0.1, 1, 1.0)
    assert value == pytest.approx(0.01886, abs=1e-5)
    assert value == pytest.approx(0.1 / math.log(10.0) ** 2, rel=1e-12)


def test_default_threshold_zero_exponent_returns_tau():
    assert default_threshold(0.2, 0.1, 3, 0.0) == 0.2


def test_default_threshold_decreasing_in_degree():
    values = [default_threshold(0.1, 0.05, d, 1.0) for d in (1, 2, 3, 4)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_default_threshold_domain():
    for tau, eps in ((0.3, 0.1), (0.1, 0.25), (0.0, 0.1), (0.1, -0.1)):
        with pytest.raises(InputError):
            default_threshold(tau, eps, 1, 1.0)


def test_default_threshold_rejects_nan_exponent():
    for big_m in (math.nan, -1.0):
        with pytest.raises(InputError):
            default_threshold(0.1, 0.1, 2, big_m)
    # an infinite exponent means every coordinate of positive influence
    assert default_threshold(0.1, 0.1, 2, math.inf) == 0.0


# ---------------------------------------------------------------------------
# leaf classification


def test_classify_constant_is_near_constant():
    label = classify_leaf(MultilinearPolynomial.constant(3, 5.0), 0.1, 0.05)
    assert label.kind is LeafKind.NEAR_CONSTANT
    assert label.sign == 1
    assert label.exact_verified


def test_classify_zero_polynomial():
    label = classify_leaf(MultilinearPolynomial.zero(2), 0.1, 0.05)
    assert label.kind is LeafKind.NEAR_CONSTANT and label.sign == 1


def test_classify_regular_sum():
    label = classify_leaf(MultilinearPolynomial.coordinate_sum(10), 0.1, 0.05)
    assert label.kind is LeafKind.REGULAR


def test_classify_dominated_coordinate_is_bad():
    p = poly(2, {(0,): 1.0, (1,): 0.01})
    label = classify_leaf(p, 1e-4, 0.01)
    assert label.kind is LeafKind.BAD


def test_classify_near_constant_variance_path():
    # 15 support variables exceed the exact cap, forcing the variance criterion
    n = 15
    terms = {0: 1.0}
    terms.update({1 << i: 0.001 for i in range(n)})
    label = classify_leaf(MultilinearPolynomial(n, terms), 1e-9, 0.05)
    assert label.kind is LeafKind.NEAR_CONSTANT
    assert label.sign == 1
    assert not label.exact_verified


def test_classify_bad_variance_path():
    n = 14
    p = MultilinearPolynomial(n, {(1 | (1 << j)): 1.0 for j in range(1, n)})
    label = classify_leaf(p, 0.1, 0.05)
    assert label.kind is LeafKind.BAD


def test_classify_eps_domain():
    with pytest.raises(InputError):
        classify_leaf(MultilinearPolynomial.constant(1, 1.0), 0.1, 1.5)


@pytest.mark.parametrize("tau", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "p",
    [MultilinearPolynomial.constant(3, 5.0), MultilinearPolynomial.coordinate_sum(4)],
    ids=["constant", "nonconstant"],
)
def test_classify_tau_domain(p, tau):
    # checked up front: a constant never reaches the regularity test that reads tau
    with pytest.raises(InputError):
        classify_leaf(p, tau, 0.05)


# ---------------------------------------------------------------------------
# tree construction


def test_tree_regular_root_is_single_leaf():
    tree = build_regularity_tree(MultilinearPolynomial.coordinate_sum(10), CONFIG)
    assert tree.success
    assert tree.leaf_count == 1
    assert tree.depth == 0
    assert tree.leaves[0].label.kind is LeafKind.REGULAR


def test_tree_dictator_single_expansion():
    tree = build_regularity_tree(poly(1, {(0,): 1.0}), RegularityConfig(0.5, 0.1, 0.1))
    assert tree.success
    assert tree.depth == 1
    assert tree.leaf_count == 2
    assert all(leaf.label.kind is LeafKind.NEAR_CONSTANT for leaf in tree.leaves)
    signs = {leaf.path[0][1]: leaf.label.sign for leaf in tree.leaves}
    assert signs == {-1: -1, 1: 1}


def test_tree_gate_times_sum_stops_after_one_coordinate():
    # restricting the dominant coordinate leaves +-(sum of nine), which is
    # regular, so the expansion must stop at depth 1
    p = MultilinearPolynomial(10, {(1 | (1 << j)): 1.0 for j in range(1, 10)})
    tree = build_regularity_tree(p, RegularityConfig(0.2, 0.1, 0.1))
    assert tree.success
    assert tree.depth == 1
    assert tree.leaf_count == 2
    assert all(leaf.label.kind is LeafKind.REGULAR for leaf in tree.leaves)
    assert tree.leaves[0].path[0][0] == 0


def test_tree_invariants_on_random_instances():
    for _, p in random_instances(72, 10, n_range=(4, 10)):
        tree = build_regularity_tree(p, CONFIG)
        assert sum(leaf.probability for leaf in tree.leaves) == pytest.approx(1.0)
        for leaf in tree.leaves:
            fixed = [i for i, _ in leaf.path]
            assert len(fixed) == len(set(fixed))
            assert p.restrict(dict(leaf.path)) == leaf.polynomial
        # depth-first, -1 branch first: consecutive leaves share a path prefix,
        # then fix the same coordinate to -1 and then to +1
        for left, right in zip(tree.leaves, tree.leaves[1:]):
            split = next(
                (k for k, (a, b) in enumerate(zip(left.path, right.path)) if a != b), None
            )
            assert split is not None
            assert left.path[split] == (right.path[split][0], -1)
            assert right.path[split][1] == 1
        assert tree.diagnostics["bad_mass"] == pytest.approx(tree.bad_mass())
        assert tree.diagnostics["leaf_count"] == tree.leaf_count


def test_tree_budget_honesty_zero_rounds(monkeypatch):
    monkeypatch.setattr(RegularityConfig, "rounds_budget", lambda self, degree: 0)
    p = poly(2, {(0,): 1.0, (1,): 0.01})
    tree = build_regularity_tree(p, RegularityConfig(1e-4, 0.01, 0.01))
    assert not tree.success
    assert tree.leaf_count == 1
    assert tree.diagnostics["rounds_used"] == 0
    assert tree.bad_mass() == 1.0


def test_tree_leaf_budget_guard(monkeypatch):
    p = random_polynomial(10, 3, 14, Rng(73))
    config = RegularityConfig(1e-6, 0.01, 0.01)
    for cap in (1, 4):
        monkeypatch.setattr(decompose, "_MAX_LEAVES", cap)
        tree = build_regularity_tree(p, config)
        assert tree.leaf_count <= cap + 1  # one split may straddle the cap check
        assert tree.diagnostics["budget_exhausted"]
        assert not tree.success
    assert tree.leaf_count > 1  # a cap of 4 lets the root split before it binds


def test_tree_fixes_only_free_coordinates_when_influences_underflow():
    # every squared coefficient underflows to 0, so every influence reads 0
    # and the expansion must still pick a coordinate the leaf depends on
    p = poly(3, {(0,): 1e-200, (1,): 1e-200, (2,): 1e-200, (0, 1, 2): 1e-200})
    tree = build_regularity_tree(p, CONFIG)
    for leaf in tree.leaves:
        fixed = [i for i, _ in leaf.path]
        assert len(fixed) == len(set(fixed))
        assert p.restrict(dict(leaf.path)) == leaf.polynomial
    assert tree.success


def test_tree_labels_every_balanced_leaf_of_the_scaled_sum_plus_one():
    # a balanced path of (x0 + ... + x11)/sqrt(12) restricts to exactly 0,
    # and sgn(0) = +1
    tree = build_regularity_tree(scaled_sum(12), RegularityConfig(0.01, 0.05, 0.05))
    balanced = [
        leaf for leaf in tree.leaves if leaf.depth == 12 and sum(v for _, v in leaf.path) == 0
    ]
    assert balanced
    for leaf in balanced:
        assert leaf.polynomial == MultilinearPolynomial.zero(12)
        assert leaf.label.kind is LeafKind.NEAR_CONSTANT
        assert leaf.label.sign == 1


# ---------------------------------------------------------------------------
# tree sensitivity


def test_tree_sensitivity_trivial_tree_equality():
    p = scaled_sum(5)
    tree = build_regularity_tree(p, RegularityConfig(0.25, 0.05, 0.05))
    assert tree.leaf_count == 1
    check = tree_sensitivity_check(SignFunction(p), tree)
    assert check.depth == 0
    assert check.as_exact == pytest.approx(check.leaf_expectation, abs=1e-12)
    assert check.holds


def test_tree_sensitivity_dictator():
    p = poly(1, {(0,): 1.0})
    tree = build_regularity_tree(p, RegularityConfig(0.5, 0.1, 0.1))
    check = tree_sensitivity_check(SignFunction(p), tree)
    assert check.as_exact == pytest.approx(1.0)
    assert check.depth == 1
    assert check.leaf_expectation == pytest.approx(0.0)
    assert check.holds


def test_tree_sensitivity_rejects_a_tree_of_another_dimension():
    tree = build_regularity_tree(MultilinearPolynomial.coordinate_sum(5), CONFIG)
    with pytest.raises(InputError):
        tree_sensitivity_check(SignFunction(MultilinearPolynomial.coordinate_sum(3)), tree)


def test_tree_sensitivity_random_sweep():
    for _, p in random_instances(75, 20, n_range=(3, 9)):
        tree = build_regularity_tree(p, CONFIG)
        assert tree_sensitivity_check(SignFunction(p), tree).holds


# ---------------------------------------------------------------------------
# block partitions and the sensitivity identity


def test_block_partition_examples():
    assert block_partition(4, 2).blocks == ((0, 1), (2, 3))
    assert block_partition(5, 2).blocks == ((0, 1, 2), (3, 4))
    assert block_partition(7, 7).blocks == tuple((i,) for i in range(7))


def test_block_partition_sizes():
    for n in range(1, 16):
        for b in range(1, n + 1):
            blocks = block_partition(n, b).blocks
            sizes = [len(blk) for blk in blocks]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            assert max(sizes) <= math.ceil(n / b)


def test_block_partition_validation():
    with pytest.raises(InputError):
        block_partition(4, 0)
    with pytest.raises(InputError):
        block_partition(4, 5)
    with pytest.raises(InputError):
        BlockPartition(3, ((0, 1),))


def test_block_partition_rejects_non_integer_counts():
    for n, b in ((5, 2.5), (3, True), (4.0, 2), (5, 2.0)):
        with pytest.raises(InputError):
            block_partition(n, b)


def test_block_identity_maj3():
    f = SignFunction(MultilinearPolynomial.coordinate_sum(3))
    check = block_sensitivity_identity_check(f, block_partition(3, 3))
    assert check.lhs == pytest.approx(1.5)
    assert check.rhs == pytest.approx(1.5)
    assert check.gap <= 1e-9


def test_block_identity_sweep():
    for k, p in random_instances(76, 20, n_range=(4, 10)):
        f = SignFunction(p)
        for b in (1, 2, 3, p.n):
            check = block_sensitivity_identity_check(f, block_partition(p.n, b))
            assert check.gap <= 1e-9


def test_block_identity_cap():
    f = SignFunction(MultilinearPolynomial.coordinate_sum(25))
    with pytest.raises(CapExceededError):
        block_sensitivity_identity_check(f, block_partition(25, 3))


# ---------------------------------------------------------------------------
# per-block ratio statistics


def test_block_alpha_sum_dictator_single_block():
    report = block_alpha_sum(poly(1, {(0,): 1.0}), block_partition(1, 1), 2_000, Rng(80))
    assert report.total.estimate == 1.0
    assert report.total.std_error == 0.0


def test_block_alpha_sum_constant_is_zero():
    report = block_alpha_sum(
        MultilinearPolynomial.constant(4, 2.0), block_partition(4, 2), 1_000, Rng(81)
    )
    assert report.total.estimate == 0.0


def test_block_alpha_sum_reproducible_with_reference():
    p = random_polynomial(8, 2, 10, Rng(82))
    first = block_alpha_sum(p, block_partition(8, 2), 5_000, Rng(83), tau=0.1)
    second = block_alpha_sum(p, block_partition(8, 2), 5_000, Rng(83), tau=0.1)
    assert first.total == second.total
    assert first.per_block == second.per_block
    assert len(first.per_block) == 2
    d = p.degree
    expected = (
        d**3 * first.alpha_hat.estimate * math.sqrt(2) + d**4 * 2 * 0.1 ** (1 / (8 * d))
    )
    assert first.reference == pytest.approx(expected)


def test_block_alpha_sum_partition_mismatch():
    with pytest.raises(InputError):
        block_alpha_sum(poly(2, {(0,): 1.0}), block_partition(3, 2), 100, Rng(1))


@pytest.mark.parametrize("tau", [-0.1, 0.0, math.nan, math.inf])
def test_block_alpha_sum_tau_domain(tau):
    with pytest.raises(InputError):
        block_alpha_sum(poly(2, {(0,): 1.0, (1,): 0.5}), block_partition(2, 2), 100, Rng(1), tau=tau)


def test_block_alpha_sum_total_error_counts_the_correlation_between_blocks():
    # both blocks read the one draw: the block ratios min(1, 1 / p(A)^2) are equal
    # row by row, so the total is twice one column, with twice its standard error
    p = poly(2, {(0,): 1.0, (1,): 1.0, (): 0.5})
    report = block_alpha_sum(p, block_partition(2, 2), 10_000, Rng(91))
    first, second = report.per_block
    assert first == second and first.std_error > 0.0
    assert report.total.estimate == 2 * first.estimate
    assert report.total.std_error == 2 * first.std_error


def test_block_alpha_singletons_bound_by_one_each():
    p = random_polynomial(6, 2, 8, Rng(84))
    report = block_alpha_sum(p, block_partition(6, 6), 3_000, Rng(85))
    assert all(0.0 <= r.estimate <= 1.0 for r in report.per_block)
    assert report.total.estimate <= 6.0


def test_block_alpha_sum_witness_matches_exact_restriction_average():
    # full enumeration oracle: for each block, exact alpha of every outer
    # restriction (support-compressed), averaged, is the true block value
    from ptflab import middle_layers_witness

    p = middle_layers_witness(12, 2)
    partition = block_partition(12, 3)
    report = block_alpha_sum(p, partition, 100_000, Rng(90), tau=0.1)
    assert report.reference is not None
    exact_sum = 0.0
    for j, block in enumerate(partition.blocks):
        outside = [i for i in range(12) if i not in set(block)]
        exact_total = 0.0
        for mask in range(1 << len(outside)):
            assignment = {
                coord: (1 if (mask >> bit) & 1 == 0 else -1)
                for bit, coord in enumerate(outside)
            }
            compressed, _ = p.restrict(assignment).compress_support()
            exact_total += exact_alpha(compressed)
        exact_value = exact_total / (1 << len(outside))
        exact_sum += exact_value
        estimate = report.per_block[j]
        assert abs(estimate.estimate - exact_value) <= 5.0 * max(estimate.std_error, 1e-6)
    total = report.total
    assert abs(total.estimate - exact_sum) <= 5.0 * max(total.std_error, 1e-6)


# ---------------------------------------------------------------------------
# recursion trace


def test_recursion_trace_single_level_is_alpha():
    p = scaled_sum(12)  # regular at tau = 0.1
    trace = recursion_trace(p, (1,), CONFIG, 20_000, Rng(86))
    assert len(trace.levels) == 1
    level = trace.levels[0]
    assert level.b == 1
    assert level.measured_alpha_sum == pytest.approx(exact_alpha(p), abs=0.02)


def test_recursion_trace_constant_is_all_zero():
    p = MultilinearPolynomial.constant(6, 3.0)
    trace = recursion_trace(p, (2, 2), CONFIG, 1_000, Rng(87))
    assert all(level.measured_alpha_sum == 0.0 for level in trace.levels)
    assert all(level.mean_block_alpha == 0.0 for level in trace.levels)


def test_recursion_trace_two_levels_records_leaf_counts():
    p = scaled_sum(12)
    trace = recursion_trace(p, (3, 2), CONFIG, 5_000, Rng(88))
    assert len(trace.levels) == 2
    first = trace.levels[0]
    assert first.leaf_counts["regular"] == 1
    assert first.reference is not None and first.reference > 0
    assert [level.level for level in trace.levels] == [0, 1]


def test_recursion_trace_spends_no_alpha_hat(monkeypatch):
    from ptflab import decompose, randomized

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return randomized.estimate_alpha(*args, **kwargs)

    monkeypatch.setattr(decompose, "estimate_alpha", counting)
    p = scaled_sum(12)  # regular at tau = 0.1: level 0 measures the root on stream child(0).child(0)
    trace = recursion_trace(p, (2,), CONFIG, 2_000, Rng(89))
    assert calls == []
    report = block_alpha_sum(p, block_partition(12, 2), 2_000, Rng(89).child(0).child(0))
    assert len(calls) == 1  # block_alpha_sum still reports alpha_hat
    assert trace.levels[0].per_block_alpha == tuple(r.estimate for r in report.per_block)


def test_recursion_trace_schedule_validation():
    p = scaled_sum(4)
    for blocks_per_level in ((2, 2, 2, 2), (), (0,), (2.7,), (True,)):
        with pytest.raises(InputError):
            recursion_trace(p, blocks_per_level, CONFIG, 100, Rng(1))


# ---------------------------------------------------------------------------
# small-ratio check


def test_small_alpha_dictator():
    check = small_alpha_check(poly(1, {(0,): 1.0}))
    assert (check.alpha, check.as_exact, check.ratio) == (1.0, 1.0, 1.0)


def test_small_alpha_biased_constant_sign():
    n = 8
    terms = {0: 5.0}
    terms.update({1 << i: 0.01 for i in range(n)})
    check = small_alpha_check(MultilinearPolynomial(n, terms))
    assert check.as_exact == 0.0
    assert check.ratio == 0.0
    assert check.alpha < 0.001


def test_small_alpha_biased_sweep_ratio_bounded():
    n = 10
    ratios = []
    for t in (0.05, 0.1, 0.2):
        terms = {0: 1.0}
        terms.update({1 << i: t / math.sqrt(n) for i in range(n)})
        check = small_alpha_check(MultilinearPolynomial(n, terms))
        ratios.append(check.ratio)
        assert check.alpha >= 0.0 and check.as_exact >= 0.0
    assert all(r <= 50.0 for r in ratios)


def test_small_alpha_cap():
    with pytest.raises(CapExceededError):
        small_alpha_check(MultilinearPolynomial.coordinate_sum(13))
