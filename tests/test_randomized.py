import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from ptflab import (
    BERNOULLI,
    GAUSSIAN,
    CapExceededError,
    EstimatorResult,
    InputError,
    MultilinearPolynomial,
    Rng,
    abs_comparison_gap,
    carbery_wright_estimate,
    estimate_alpha,
    estimate_beta,
    exact_alpha,
    hypercontractivity_check,
    invariance_gap,
    middle_layers_witness,
    random_polynomial,
    strong_anticoncentration_estimate,
    tail_curve,
    weak_anticoncentration_estimate,
    weak_anticoncentration_exact,
)

from ptflab import (
    RegularityConfig,
    block_alpha_sum,
    block_partition,
    build_regularity_tree,
    classify_leaf,
    randomized,
    recursion_trace,
)
from ptflab.decompose import BlockPartition
from ptflab.polynomial import KERNEL_ROWS, mask_from_indices
from ptflab.hypercube import evaluate_on_hypercube
from ptflab.randomized import _BATCH_ELEMENTS, _batch_rows, _batches, _draw, _gaussian_form, _width

from conftest import brute_alpha, brute_gradient, poly, random_instances


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def scaled_sum(n):
    return MultilinearPolynomial(n, {1 << i: 1.0 / math.sqrt(n) for i in range(n)})


X0 = poly(1, {(0,): 1.0})
# all 256 variables in the support, so one memory batch holds few rows
WIDE = MultilinearPolynomial(
    256, {**{1 << i: 1.0 / 16.0 for i in range(256)}, 0b111: 0.1, (1 << 7) | (1 << 255): -0.1}
)
# alpha is the block ratio of one block: a row holds a point, a direction, the kernel
# rows, the block column and its sum
_ALPHA_WIDTH = 2 * WIDE.n + KERNEL_ROWS + 2


# ---------------------------------------------------------------------------
# rng and samplers


def test_rng_repeat_call_is_identical():
    rng = Rng(123, 4)
    for dist in (BERNOULLI, GAUSSIAN):
        np.testing.assert_array_equal(
            _draw(rng.generator(), dist, 1, 6), _draw(rng.generator(), dist, 1, 6)
        )


def test_rng_streams_differ():
    a = _draw(Rng(1, 0).generator(), GAUSSIAN, 1, 8)
    b = _draw(Rng(1, 1).generator(), GAUSSIAN, 1, 8)
    assert not np.allclose(a, b)


def test_rng_child_is_deterministic():
    assert Rng(9, 2).child(5) == Rng(9, 2).child(5)
    assert Rng(9, 2).child(5) != Rng(9, 2).child(6)


def test_bernoulli_entries_are_pm1():
    pts = _draw(Rng(3).generator(), BERNOULLI, 1000, 5)
    assert pts.dtype == np.float64
    assert set(np.unique(pts)) == {-1.0, 1.0}


def test_bernoulli_mean_window():
    means = _draw(Rng(21).generator(), BERNOULLI, 1_000_000, 4).mean(axis=0)
    assert np.all(np.abs(means) < 0.01)


def test_gaussian_variance_window():
    variances = _draw(Rng(22).generator(), GAUSSIAN, 1_000_000, 4).var(axis=0)
    assert np.all((variances > 0.99) & (variances < 1.01))


@pytest.mark.parametrize("shape", [(3, 5), (1, 1), (7, 9), (2, 4), (0, 6)])
def test_bernoulli_draw_shapes_that_are_not_whole_bytes(shape):
    # +-1 entries are unpacked from random bytes; the element count need not be a multiple of 8
    draws = _draw(Rng(3, 1).generator(), BERNOULLI, *shape)
    assert draws.shape == shape and draws.dtype == np.float64
    assert draws.flags.c_contiguous
    assert np.all((draws == -1.0) | (draws == 1.0))


def test_bernoulli_draw_rows_and_columns_are_balanced():
    rows, cols = 101, 2003  # neither a multiple of 8, so rows start inside a byte
    draws = _draw(Rng(23).generator(), BERNOULLI, rows, cols)
    assert np.all(np.abs(draws.mean(axis=1)) <= 5.0 / math.sqrt(cols))
    assert np.all(np.abs(draws.mean(axis=0)) <= 5.0 / math.sqrt(rows))


def test_bernoulli_draw_has_no_correlation_within_or_across_bytes():
    rows, cols = 1001, 999
    flat = _draw(Rng(24).generator(), BERNOULLI, rows, cols).ravel()
    first = np.arange(flat.size - cols)
    lags = {
        "adjacent bits of one byte": (first[first % 8 != 7], 1),
        "adjacent bits across a byte boundary": (first[first % 8 == 7], 1),
        "the same bit of adjacent bytes": (first, 8),
        "adjacent rows": (first, cols),
    }
    for name, (left, lag) in lags.items():
        # products of independent signs are +-1 with mean 0 and variance 1
        correlation = float(np.mean(flat[left] * flat[left + lag]))
        assert abs(correlation) <= 4.0 / math.sqrt(left.size), f"{name}: {correlation!r}"


def test_sampler_validation():
    with pytest.raises(InputError):
        tail_curve(X0, "cauchy", [1.0], 100, Rng(1))
    with pytest.raises(InputError):
        weak_anticoncentration_estimate(X0, "cauchy", 100, Rng(1))
    with pytest.raises(InputError):
        invariance_gap(X0, None, 0, Rng(1))


# ---------------------------------------------------------------------------
# estimator result plumbing


def test_estimator_result_ci95_invariant():
    r = EstimatorResult(estimate=0.5, std_error=0.1, samples=100, seed=1, stream=0)
    lo, hi = r.ci95
    assert lo == pytest.approx(0.5 - 1.96 * 0.1)
    assert hi == pytest.approx(0.5 + 1.96 * 0.1)
    assert r.covers(0.45) and not r.covers(0.1)
    assert set(r.to_json_dict()) == {"estimate", "std_error", "ci95", "samples", "seed", "stream"}


def test_estimator_rejects_bad_budget():
    with pytest.raises(InputError):
        estimate_alpha(X0, 0, Rng(1))
    with pytest.raises(InputError):
        estimate_alpha(X0, 10, Rng(1), workers=0)


def test_estimators_are_bit_reproducible():
    p = random_polynomial(6, 2, 6, Rng(41))
    a = estimate_alpha(p, 20_000, Rng(5, 3))
    b = estimate_alpha(p, 20_000, Rng(5, 3))
    assert a == b


def test_estimators_reproducible_per_worker_count():
    p = random_polynomial(6, 2, 6, Rng(42))
    a = estimate_alpha(p, 30_000, Rng(6, 1), workers=3)
    b = estimate_alpha(p, 30_000, Rng(6, 1), workers=3)
    assert a == b


def test_invariance_gap_reproducible_per_worker_count():
    a = invariance_gap(scaled_sum(25), None, 30_001, Rng(6, 2), workers=3)
    b = invariance_gap(scaled_sum(25), None, 30_001, Rng(6, 2), workers=3)
    assert a.gap == b.gap
    np.testing.assert_array_equal(a.thresholds, b.thresholds)
    np.testing.assert_array_equal(a.per_t, b.per_t)


@pytest.mark.parametrize("workers", [0, -2])
def test_driver_rejects_nonpositive_workers(workers):
    with pytest.raises(InputError):
        invariance_gap(X0, None, 1_000, Rng(1), workers=workers)
    with pytest.raises(InputError):
        strong_anticoncentration_estimate(X0, 0.1, 1_000, Rng(1), workers=workers)


def test_batch_sizes_are_generated_as_the_batches_run():
    # the driver holds nothing per batch ahead of the one it runs, so taking the
    # first of 10^6 one-column batches peaks where taking the only one does
    def first_batch_peak(batches):
        tracemalloc.start()
        try:
            first = next(_batches(lambda gen, m: m, batches * _BATCH_ELEMENTS, Rng(1), 1, 1))
            return first, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (one, single), (first, many) = first_batch_peak(1), first_batch_peak(10**6)
    assert one == first == _BATCH_ELEMENTS
    assert many <= single + 2**20


def test_thread_pool_is_capped_at_cpu_count(monkeypatch):
    sizes = []

    class RecordingPool(randomized.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(randomized, "ThreadPoolExecutor", RecordingPool)
    samples = 3 * _batch_rows(_ALPHA_WIDTH) + 1  # four batches
    monkeypatch.setattr(randomized.os, "cpu_count", lambda: 4)
    pooled = estimate_alpha(WIDE, samples, Rng(6, 3), workers=64)
    assert sizes == [4]
    monkeypatch.setattr(randomized.os, "cpu_count", lambda: None)
    serial = estimate_alpha(WIDE, samples, Rng(6, 3), workers=64)
    assert sizes == [4]  # one CPU: the batches run without a pool
    assert pooled == serial


# three batches on WIDE: one row holds a point (_SPAN), a point, a direction and the
# one-block ratio with its sum (_SPAN2, alpha), a Gaussian point (_SPAN_G), or a Gaussian
# point and one scalar for its directional derivative (_SPAN_Z); Gaussian points are drawn
# on the merged form, whose linear-only coordinates are one.  The block pass holds more
# outputs per row than alpha when b > 1, so _SPAN2 rows span three of its batches as well.
# The abs-comparison pair draws its Gaussian half on the merged pair (_SPAN_PAIR), whose
# batches hold more rows than the +-1 half's, so both halves span three batches or more.
_MERGED = _gaussian_form(WIDE)[0].n
_PAIR = _gaussian_form(WIDE, scaled_sum(256))[0].n
_SPAN = 2 * _batch_rows(_width(WIDE.n, False)) + 1
_SPAN2 = 2 * _batch_rows(_ALPHA_WIDTH) + 1
_SPAN_G = 2 * _batch_rows(_width(_MERGED, False)) + 1
_SPAN_Z = 2 * _batch_rows(_width(_MERGED, True)) + 1
_SPAN_PAIR = 2 * _batch_rows(_width(_PAIR, False)) + 1
assert _SPAN_PAIR > _SPAN

_ENTRY_POINTS = {
    "alpha": lambda w: estimate_alpha(WIDE, _SPAN2, Rng(12, 1), workers=w),
    "beta": lambda w: estimate_beta(WIDE, _SPAN_Z, Rng(12, 2), workers=w),
    "strong": lambda w: strong_anticoncentration_estimate(WIDE, 0.1, _SPAN_Z, Rng(12, 4), workers=w),
    "tail_curve": lambda w: tail_curve(WIDE, BERNOULLI, [0.5, 1.0, 2.0], _SPAN, Rng(12, 5), workers=w),
    "weak": lambda w: weak_anticoncentration_estimate(
        WIDE, GAUSSIAN, _SPAN_G, Rng(12, 6), workers=w
    ),
    "carbery_wright": lambda w: carbery_wright_estimate(WIDE, 0.1, _SPAN_G, Rng(12, 7), workers=w),
    "invariance_gap": lambda w: _gap_fields(
        invariance_gap(WIDE, None, _SPAN_G, Rng(12, 8), workers=w)
    ),
    "abs_comparison_gap": lambda w: abs_comparison_gap(
        WIDE, scaled_sum(256), _SPAN_PAIR, Rng(12, 9), workers=w
    ),
    "block_alpha_sum": lambda w: block_alpha_sum(
        WIDE, block_partition(256, 2), _SPAN2, Rng(12, 10), tau=0.1, workers=w
    ),
    "recursion_trace": lambda w: recursion_trace(
        WIDE, (2,), RegularityConfig(tau=0.1, eps=0.05, delta=0.05), _SPAN2, Rng(12, 11), workers=w
    ),
}


@pytest.mark.parametrize("name", _ENTRY_POINTS)
def test_monte_carlo_results_do_not_depend_on_the_worker_count(name, monkeypatch):
    batches = set()
    chunk_generator = Rng.chunk_generator

    def recording(self, chunk):
        batches.add(chunk)
        return chunk_generator(self, chunk)

    monkeypatch.setattr(Rng, "chunk_generator", recording)
    run = _ENTRY_POINTS[name]
    serial = run(1)
    assert max(batches) >= 2, "the sample count must span at least three batches"
    assert run(2) == serial
    assert run(3) == serial


_SPARSE_1024 = MultilinearPolynomial(
    1024, {0: 0.2, 1 << 3: 1.0, (1 << 10) | (1 << 500): 0.5, 1 << 1023: -0.7}
)
# every coordinate in the support, and p(A) is never 0 (a multiple of 1/16 plus 0.3)
_DENSE_1024 = MultilinearPolynomial(
    1024, {0: 0.3, **{1 << i: 1.0 / 16.0 for i in range(1024)}, (1 << 10) | (1 << 500): 0.5}
)


def _block_alpha_terms(p, m):
    report = block_alpha_sum(p, block_partition(p.n, 4), m, Rng(8, 3))
    return [*report.per_block, report.alpha_hat]


def _tail_curve_terms(p, m, workers=1):
    # 4096 output columns: each batch holds the float64 outputs and their squares
    curve = tail_curve(p, GAUSSIAN, np.linspace(0.01, 3.0, 4096), m, Rng(8, 8), workers=workers)
    return [
        EstimatorResult(estimate, error, curve.samples, curve.seed, curve.stream)
        for estimate, error in zip(curve.probabilities, curve.std_errors)
    ]


def _gap_terms(p, m, t_grid=None, workers=1):
    gap = invariance_gap(p, t_grid, m, Rng(8, 9), workers=workers)
    return [EstimatorResult(d, 0.0, gap.samples, gap.seed, gap.stream) for d in gap.per_t.tolist()]


# a few hundred rows of 1024 variables, several batches
_ROWS_1024 = 3 * (_BATCH_ELEMENTS // (2 * 1024)) + 100
# 20,000 rows of 4096 columns: 625 batches, whose column sums must not be kept
_NARROW = random_polynomial(8, 3, 8, Rng(1))
# 600,000 values of each law: a whole sample alone is 4.8 MB
_GAP_ROWS = 600_000


@pytest.mark.parametrize(
    "p, samples, estimate",
    [
        (_SPARSE_1024, _ROWS_1024, lambda p, m: [estimate_beta(p, m, Rng(8, 1))]),
        (_SPARSE_1024, _ROWS_1024,
         lambda p, m: [strong_anticoncentration_estimate(p, 0.1, m, Rng(8, 2))]),
        (_DENSE_1024, _ROWS_1024, _block_alpha_terms),
        (_DENSE_1024, _ROWS_1024, lambda p, m: [estimate_alpha(p, m, Rng(8, 4))]),
        (_DENSE_1024, _ROWS_1024,
         lambda p, m: [weak_anticoncentration_estimate(p, BERNOULLI, m, Rng(8, 5))]),
        (_DENSE_1024, _ROWS_1024, lambda p, m: [carbery_wright_estimate(p, 0.1, m, Rng(8, 6))]),
        (_DENSE_1024, _ROWS_1024,
         lambda p, m: [abs_comparison_gap(p, _SPARSE_1024, m, Rng(8, 7))]),
        (_SPARSE_1024, _ROWS_1024, _tail_curve_terms),
        (_NARROW, 20_000, _tail_curve_terms),
        (_NARROW, 20_000, lambda p, m: _tail_curve_terms(p, m, workers=2)),
        (_NARROW, _GAP_ROWS, _gap_terms),
        (_NARROW, _GAP_ROWS, lambda p, m: _gap_terms(p, m, workers=2)),
        (_NARROW, _GAP_ROWS, lambda p, m: _gap_terms(p, m, np.linspace(-2.0, 2.0, 41))),
    ],
    ids=[
        "beta", "strong", "block_alpha_sum", "alpha", "weak_anticoncentration", "carbery_wright",
        "abs_comparison_gap", "tail_curve_4096_thresholds", "tail_curve_20000_rows_workers_1",
        "tail_curve_20000_rows_workers_2", "invariance_gap_workers_1", "invariance_gap_workers_2",
        "invariance_gap_fixed_grid",
    ],
)
def test_estimator_memory_is_bounded_by_the_batch_budget(p, samples, estimate):
    import tracemalloc

    tracemalloc.start()
    try:
        results = estimate(p, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for result in results:
        assert result.samples == samples and 0.0 <= result.estimate <= 1.0
    assert peak < 2 * _BATCH_ELEMENTS * 8, f"peak {peak / 2**20:.1f} MB"


def _embed(p, n, positions):
    """p with its variable i moved to positions[i] in an n-variable space."""
    return MultilinearPolynomial(n, {
        sum(1 << positions[i] for i in range(p.n) if mask >> i & 1): c
        for mask, c in p.terms.items()
    })


def _gap_fields(gap):
    return gap.gap, gap.thresholds.tolist(), gap.per_t.tolist(), gap.samples


def _split(n, block):
    """The partition of range(n) into ``block`` and the rest."""
    return BlockPartition(n, (tuple(block), tuple(i for i in range(n) if i not in block)))


_SCATTERED = (3, 64, 65, 200, 311, 402, 477, 511)
_BASE = random_polynomial(8, 3, 10, Rng(42)) + poly(8, {(): 0.3, (2,): -0.7})  # support 0..7


@pytest.mark.parametrize(
    "estimate",
    [
        lambda p, pos: estimate_alpha(p, 20_000, Rng(9, 1)),
        lambda p, pos: estimate_beta(p, 20_000, Rng(9, 2), workers=2),
        lambda p, pos: block_alpha_sum(p, _split(p.n, pos((0, 5))), 20_000, Rng(9, 3)),
        lambda p, pos: strong_anticoncentration_estimate(p, 0.1, 20_000, Rng(9, 4)),
        lambda p, pos: tail_curve(p, GAUSSIAN, [0.5, 1.0, 2.0], 20_000, Rng(9, 5)),
        lambda p, pos: weak_anticoncentration_estimate(p, BERNOULLI, 20_000, Rng(9, 6)),
        lambda p, pos: carbery_wright_estimate(p, 0.1, 20_000, Rng(9, 7)),
        lambda p, pos: _gap_fields(invariance_gap(p, None, 20_000, Rng(9, 8))),
    ],
    ids=["alpha", "beta", "block_alpha_sum", "strong", "tail", "weak", "carbery_wright",
         "invariance_gap"],
)
def test_estimators_are_invariant_under_support_compression(estimate):
    # the embedded polynomial and its compressed form draw the same k columns
    wide = _embed(_BASE, 512, _SCATTERED)
    compressed, support = wide.compress_support()
    assert support == _SCATTERED and compressed == _BASE
    in_wide = lambda block: [_SCATTERED[i] for i in block] + [0, 100]  # plus unused indices
    in_base = lambda block: list(block)
    assert estimate(wide, in_wide) == estimate(_BASE, in_base)


def test_abs_comparison_gap_is_invariant_under_union_support_compression():
    p = poly(3, {(0, 1): 1.0, (0,): 0.5})
    q = poly(3, {(1, 2): 0.8, (2,): -0.3})
    positions = (7, 130, 509)  # p lives on {7, 130}, q on {130, 509}
    wide_p, wide_q = _embed(p, 512, positions), _embed(q, 512, positions)
    assert wide_p.support != wide_q.support
    assert abs_comparison_gap(wide_p, wide_q, 20_000, Rng(9, 9)) == abs_comparison_gap(
        p, q, 20_000, Rng(9, 9)
    )


@pytest.mark.parametrize(
    "estimate",
    [
        lambda p: strong_anticoncentration_estimate(p, 0.01, 400_000, Rng(9006, 1)),
        lambda p: estimate_alpha(p, 400_000, Rng(9006, 2)),
    ],
    ids=["strong", "alpha"],
)
def test_criterion_6_polynomial_peak_allocation(estimate):
    import tracemalloc

    p = random_polynomial(8, 3, 8, Rng(900).child(0))
    p = MultilinearPolynomial(8, {m: c for m, c in p.terms.items() if m != 0})
    tracemalloc.start()
    try:
        estimate(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# alpha


def test_alpha_dictator_is_exactly_one():
    r = estimate_alpha(X0, 1000, Rng(7))
    assert r.estimate == 1.0 and r.std_error == 0.0
    assert exact_alpha(X0) == 1.0


def test_alpha_constant_is_zero():
    c = MultilinearPolynomial.constant(3, 5.0)
    assert estimate_alpha(c, 1000, Rng(8)).estimate == 0.0
    assert exact_alpha(c) == 0.0
    assert exact_alpha(MultilinearPolynomial.zero(2)) == 0.0


def test_exact_alpha_two_coordinates():
    p = poly(2, {(0,): 1.0, (1,): 1.0})
    assert brute_alpha(p) == pytest.approx(0.75, abs=1e-15)
    assert exact_alpha(p) == pytest.approx(0.75, abs=1e-12)


def test_exact_alpha_matches_brute_enumeration():
    for k in range(6):
        p = random_polynomial(4, 2, 5, Rng(640, k))
        assert exact_alpha(p) == pytest.approx(brute_alpha(p), abs=1e-12)


def test_exact_alpha_scale_invariant():
    p = random_polynomial(5, 2, 6, Rng(43))
    assert exact_alpha(p.scale(2.0)) == exact_alpha(p)
    assert exact_alpha(p.scale(-3.7)) == pytest.approx(exact_alpha(p), rel=1e-12)


def test_exact_alpha_builds_its_own_partials(partial_derivative_calls):
    # the oracle shares no derivative cache with estimate_alpha, the estimator it checks
    p = poly(4, {(0, 1): 1.0, (2,): 0.5})  # already a unit form
    exact_alpha(p)
    assert partial_derivative_calls == [0, 1, 2, 3]
    assert set(vars(p)) == {"n", "terms"}  # no derivative cache left on p


def test_exact_alpha_cap():
    with pytest.raises(CapExceededError):
        exact_alpha(MultilinearPolynomial.coordinate_sum(13))


def test_alpha_in_unit_interval_and_zero_iff_constant():
    for _, p in random_instances(44, 10, n_range=(2, 8)):
        value = exact_alpha(p)
        assert 0.0 <= value <= 1.0
        assert value > 0.0  # sweep instances are nonconstant


def test_estimate_alpha_within_ci_of_exact():
    p = poly(2, {(0,): 1.0, (1,): 1.0})
    hits = sum(
        estimate_alpha(p, 100_000, Rng(500, s)).covers(0.75) for s in range(20)
    )
    assert hits >= 17


# ---------------------------------------------------------------------------
# block ratios

# x0 (x1 + x2) + x3 - x4 is 0 on many +-1 points, on some of them with
# d_0 p = x1 + x2 = 0 as well; x3 and x4 occur only in linear terms, so their
# partials are constants, and x5 occurs in no term
_ZEROS = poly(6, {(0, 1): 1.0, (0, 2): 1.0, (3,): 1.0, (4,): -1.0})


@pytest.mark.parametrize(
    "p, blocks",
    [(_ZEROS, [[0], [1, 3], [2, 4], [5]]), (middle_layers_witness(6, 2), [[0, 1], [2, 3], [4, 5]])],
    ids=["zeros", "witness"],
)
def test_block_ratio_columns_match_the_pointwise_gradient(monkeypatch, p, blocks):
    calls = []
    monkeypatch.setattr(randomized, "_estimate", lambda batch, *args, width: calls.append((batch, width)))
    randomized._block_ratios(p, blocks, 1, Rng(1), 1)
    (batch, width), = calls
    form, support = p.compress_support()
    assert width == 2 * form.n + KERNEL_ROWS + len(blocks) + 1
    m = 512
    out = batch(Rng(5).chunk_generator(0), m)
    gen = Rng(5).chunk_generator(0)
    points, directions = _draw(gen, BERNOULLI, form.n, m), _draw(gen, BERNOULLI, form.n, m)
    local = [[support.index(i) for i in block if i in support] for block in blocks]
    zero_rule = set()
    for row, a, b in zip(out.T, points.T, directions.T):
        value = form.eval(a)
        grad = brute_gradient(form, a)
        for got, coords in zip(row, local):
            if value == 0.0:
                expected = float(np.any(grad[coords] != 0.0))
                zero_rule.add((len(coords), expected))
                assert got == expected
            else:
                assert got == pytest.approx(min(1.0, (b[coords] @ grad[coords] / value) ** 2),
                                            rel=1e-12, abs=1e-15)
        assert row[-1] == pytest.approx(row[:-1].sum(), rel=1e-12)
    if p is _ZEROS:  # the zero rule ran per block, with both outcomes and an empty block
        assert {(1, 0.0), (1, 1.0), (2, 1.0), (0, 0.0)} <= zero_rule


def test_block_ratios_evaluate_p_once_and_each_partial_once_per_batch(monkeypatch):
    p = poly(5, {(): 3.5, (0, 1): 1.0, (1, 2, 3): 1.0, (4,): 0.5})  # |p| >= 1 on the cube
    calls = []
    original = MultilinearPolynomial.eval_many

    def counting(self, points):
        calls.append((self, points.shape[0]))
        return original(self, points)

    monkeypatch.setattr(MultilinearPolynomial, "eval_many", counting)
    randomized._block_ratios(p, [[0, 4], [1], [2, 3]], 300, Rng(6), 1)
    form = randomized._sampled_form(p, BERNOULLI)
    # one value pass, then d_0, d_1, d_2 and d_3 block by block; d_4 is the constant 0.5
    expected = [form] + [form.partial_derivative(i) for i in range(4)]
    assert calls == [(q, 300) for q in expected]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "p", [_ZEROS, middle_layers_witness(6, 2), _SPARSE_1024], ids=["zeros", "witness", "sparse"]
)
def test_alpha_is_the_block_ratio_of_the_whole_support(p, workers):
    # 40,001 rows span three batches of alpha's width on each of these supports
    one_block = randomized._block_ratios(p, [p.support], 40_001, Rng(7, 2), workers)
    assert estimate_alpha(p, 40_001, Rng(7, 2), workers=workers) == one_block[0]


@pytest.mark.parametrize(
    "p, blocks",
    [(_ZEROS, [[0], [1, 3], [2, 4], [5]]), (_BASE, [[0, 1, 2], [3, 4], [5, 6, 7]])],
    ids=["zeros", "generic"],
)
def test_each_column_of_a_batch_estimate_is_its_one_column_estimate(monkeypatch, p, blocks):
    # a batch output is coordinate-major, so each column is summed over contiguous memory
    # alike whether it is one of several or alone
    calls = []
    monkeypatch.setattr(randomized, "_estimate", lambda batch, *args, width: calls.append((batch, width)))
    randomized._block_ratios(p, blocks, 1, Rng(1), 1)
    monkeypatch.undo()
    (batch, width), = calls
    samples = 3 * _batch_rows(width) + 1
    together = randomized._estimate(batch, samples, Rng(7, 3), 1, width)
    assert len(together) == len(blocks) + 1
    for j, result in enumerate(together):
        column = lambda gen, m: batch(gen, m)[j]
        assert randomized._estimate(column, samples, Rng(7, 3), 1, width) == [result]


# ---------------------------------------------------------------------------
# beta


def test_beta_constant_is_zero():
    assert estimate_beta(MultilinearPolynomial.constant(2, 4.0), 500, Rng(10)).estimate == 0.0


def test_beta_dictator_quadrature_oracle():
    # E[min(1, t^2)] for t standard Cauchy, by two smooth quadratures
    inner, _ = quad(lambda t: t * t / (math.pi * (1 + t * t)), -1, 1)
    outer, _ = quad(lambda t: 1 / (math.pi * (1 + t * t)), 1, np.inf)
    oracle = inner + 2 * outer
    assert oracle == pytest.approx(2.0 / math.pi, abs=1e-9)
    r = estimate_beta(X0, 200_000, Rng(13))
    assert abs(r.estimate - oracle) <= 4 * r.std_error


def test_beta_scale_invariance_same_seed():
    p = random_polynomial(4, 2, 5, Rng(46))
    base = estimate_beta(p, 5_000, Rng(14))
    doubled = estimate_beta(p.scale(2.0), 5_000, Rng(14))
    assert base.estimate == doubled.estimate
    general = estimate_beta(p.scale(3.0), 5_000, Rng(14))
    assert general.estimate == pytest.approx(base.estimate, rel=1e-9)


# ---------------------------------------------------------------------------
# tails and anticoncentration


def test_tail_curve_dictator_no_mass_beyond_two():
    curve = tail_curve(X0, BERNOULLI, [2.0], 5_000, Rng(15))
    assert curve.probabilities == (0.0,)
    assert curve.envelope[0] == pytest.approx(0.5)  # 2^{-(2/2)^2}


def test_tail_curve_gaussian_sum_matches_normal_tail():
    p = MultilinearPolynomial(100, {1 << i: 0.1 for i in range(100)})
    curve = tail_curve(p, GAUSSIAN, [1.0, 2.0, 3.0], 1_000_000, Rng(14))
    reference = 2.0 * (1.0 - normal_cdf(3.0))
    assert abs(curve.probabilities[2] - reference) <= 3 * curve.std_errors[2]
    assert curve.probabilities[0] >= curve.probabilities[1] >= curve.probabilities[2]


def test_tail_curve_validation():
    with pytest.raises(InputError):
        tail_curve(MultilinearPolynomial.zero(2), GAUSSIAN, [1.0], 100, Rng(1))
    with pytest.raises(InputError):
        tail_curve(X0, GAUSSIAN, [-1.0], 100, Rng(1))
    with pytest.raises(InputError):
        tail_curve(X0, "cauchy", [1.0], 100, Rng(1))


def test_weak_anticoncentration_examples():
    assert weak_anticoncentration_exact(X0) == 1.0
    p = poly(2, {(0, 1): 1.0, (0,): 1.0, (1,): 1.0, (): 1.0})
    assert p.moments().l2_norm == pytest.approx(2.0)
    assert weak_anticoncentration_exact(p) == pytest.approx(0.25)
    assert 0.25 >= 9.0 ** (-2) / 2.0


def test_weak_anticoncentration_sweep():
    for _, p in random_instances(47, 60, d_max=4):
        floor = 9.0 ** (-max(1, p.degree)) / 2.0
        assert weak_anticoncentration_exact(p) >= floor


def test_weak_anticoncentration_estimate_agrees():
    p = poly(2, {(0, 1): 1.0, (0,): 1.0, (1,): 1.0, (): 1.0})
    r = weak_anticoncentration_estimate(p, BERNOULLI, 100_000, Rng(17))
    assert abs(r.estimate - 0.25) <= 4 * r.std_error


def test_weak_anticoncentration_rejects_zero_polynomial():
    with pytest.raises(InputError):
        weak_anticoncentration_exact(MultilinearPolynomial.zero(3))


def test_carbery_wright_dictator_closed_form():
    r = carbery_wright_estimate(X0, 0.1, 1_000_000, Rng(12))
    reference = 2.0 * (normal_cdf(0.1) - 0.5)
    assert abs(r.estimate - reference) <= 3 * r.std_error


def test_carbery_wright_monotone_in_eps():
    wide = carbery_wright_estimate(X0, 0.1, 100_000, Rng(18))
    narrow = carbery_wright_estimate(X0, 0.01, 100_000, Rng(19))
    assert narrow.estimate <= wide.estimate


def test_carbery_wright_product_bessel_oracle():
    # density of x0*x1 under Gaussian inputs is K_0(|z|)/pi; the small-eps mass
    # scales like eps*log(1/eps), not eps^(1/2)
    p = poly(2, {(0, 1): 1.0})
    for eps in (1e-2, 1e-4):
        oracle = 2.0 / math.pi * quad(lambda t: kv(0, t), 0, eps, limit=200)[0]
        r = carbery_wright_estimate(p, eps, 200_000, Rng(31, int(1 / eps)))
        assert abs(r.estimate - oracle) <= 4 * max(r.std_error, 1e-6)


def test_carbery_wright_validation():
    with pytest.raises(InputError):
        carbery_wright_estimate(X0, 0.0, 100, Rng(1))


# ---------------------------------------------------------------------------
# strong anticoncentration


def test_strong_anticoncentration_dictator_closed_form():
    r = strong_anticoncentration_estimate(X0, 0.1, 1_000_000, Rng(11))
    reference = (2.0 / math.pi) * math.atan(0.1)
    assert abs(r.estimate - reference) <= 3 * r.std_error


def test_strong_anticoncentration_saturates_for_huge_eps():
    r = strong_anticoncentration_estimate(X0, 1e9, 10_000, Rng(24))
    assert r.estimate >= 0.9999


def test_strong_anticoncentration_halving_ratio():
    p = random_polynomial(8, 3, 8, Rng(900).child(0))
    p = MultilinearPolynomial(8, {m: c for m, c in p.terms.items() if m != 0})
    wide = strong_anticoncentration_estimate(p, 0.01, 1_000_000, Rng(25))
    narrow = strong_anticoncentration_estimate(p, 0.005, 1_000_000, Rng(26))
    assert 1.4 <= wide.estimate / narrow.estimate <= 2.6


def _direction_estimate(p, samples, rng, statistic):
    """The k-direction oracle: each row draws a Gaussian point X and a whole
    Gaussian direction Y and reads D_Y p(X) = sum_i Y_i d_i p(X) from the
    partial columns (``_partial_sum``)."""

    def batch(gen, m):
        points = _draw(gen, GAUSSIAN, p.n, m)
        directions = _draw(gen, GAUSSIAN, p.n, m)
        return statistic(p.eval_many(points.T), p._partial_sum(points.T, None, directions.T))

    return randomized._estimate(batch, samples, rng, 1, width=2 * p.n + KERNEL_ROWS)[0]


def _indicator(eps):
    return lambda values, deriv: (np.abs(values) <= eps * np.abs(deriv)).astype(np.float64)


def _clamp(values, deriv):
    return np.minimum(1.0, (deriv / values) ** 2)


_CRITERION_6 = MultilinearPolynomial(
    8, {m: c for m, c in random_polynomial(8, 3, 8, Rng(900).child(0)).terms.items() if m != 0}
)
# x0 and x4 occur only in linear terms, so their partials are constants
_LINEAR = poly(6, {(0,): 1.0, (1,): -0.6, (4,): 0.4, (1, 2): 0.8, (2, 3, 5): 0.5, (): 0.3})


@pytest.mark.parametrize("p", [_CRITERION_6, _LINEAR], ids=["criterion_6", "linear"])
@pytest.mark.parametrize(
    "scalar, oracle",
    [
        (lambda p, r: strong_anticoncentration_estimate(p, 0.01, 200_000, r),
         lambda p, r: _direction_estimate(p, 200_000, r, _indicator(0.01))),
        (lambda p, r: strong_anticoncentration_estimate(p, 0.005, 200_000, r),
         lambda p, r: _direction_estimate(p, 200_000, r, _indicator(0.005))),
        (lambda p, r: estimate_beta(p, 200_000, r),
         lambda p, r: _direction_estimate(p, 200_000, r, _clamp)),
    ],
    ids=["strong_0.01", "strong_0.005", "beta"],
)
def test_scalar_derivative_draw_agrees_with_the_direction_oracle(p, scalar, oracle):
    # D_Y p(X) drawn as |grad p(X)| Z has the law of Y . grad p(X) given X
    new, old = scalar(p, Rng(77, 1)), oracle(p, Rng(77, 2))
    assert abs(new.estimate - old.estimate) <= 4 * math.hypot(new.std_error, old.std_error)


# ---------------------------------------------------------------------------
# the Gaussian form: linear-only coordinates merged into one

# x2..x5 occur only in linear terms; x0 is linear too but also occurs in x0*x1,
# so it is never merged
_MIXED = poly(6, {(0, 1): 0.3, (0,): 0.2, (2,): 0.5, (3,): -0.4, (4,): 0.6, (5,): -0.5, (): 0.1})
_MIXED_L2 = _MIXED.moments().l2_norm


def _merged_points(p, points):
    """Points of the Gaussian form matched to the ``(m, n)`` points of ``p``:
    the linear-only coordinates become their first member, carrying
    a_L . x_L / |a_L|, and the others are dropped."""
    higher = {i for mask in p.terms if mask.bit_count() > 1 for i in range(p.n) if mask >> i & 1}
    linear = [i for i in range(p.n) if 1 << i in p.terms and i not in higher]
    columns = {i: points[:, i] for i in range(p.n)}
    a = np.array([p.terms[1 << i] for i in linear])
    columns[linear[0]] = points[:, linear] @ a / np.sqrt(np.sum(a * a))
    for i in linear[1:]:
        del columns[i]
    return np.column_stack(list(columns.values()))


def test_gaussian_form_keeps_the_value_and_the_squared_gradient_norm():
    (merged,) = _gaussian_form(_MIXED)
    assert merged.n == 3
    assert merged.terms[1 << 2] == math.hypot(0.5, -0.4, 0.6, -0.5)
    expected, got = _MIXED.moments(), merged.moments()
    assert got.mean == expected.mean
    assert got.variance == pytest.approx(expected.variance, rel=1e-12)
    points = _draw(Rng(71).generator(), GAUSSIAN, 50, _MIXED.n)
    matched = _merged_points(_MIXED, points)
    np.testing.assert_allclose(merged.eval_many(matched), _MIXED.eval_many(points), rtol=1e-12,
                               atol=1e-12)
    np.testing.assert_allclose(merged.squared_gradient_norm(matched),
                               _MIXED.squared_gradient_norm(points), rtol=1e-12)


@pytest.mark.parametrize(
    "p",
    [
        poly(3, {(0, 1): 1.0, (0, 1, 2): 0.5}),  # no linear-only coordinate
        poly(3, {(0,): 1.0, (1, 2): 0.5}),  # one
    ],
    ids=["none", "one"],
)
def test_gaussian_form_leaves_classes_of_fewer_than_two_unchanged(p):
    (form,) = _gaussian_form(p)
    assert form is p


# |p|_2 overflows although every coefficient is finite; at unit scale x0 + x1
# has weak anticoncentration 0.5 and is not regular at tau = 0.1
HUGE = poly(2, {(0,): 1e200, (1,): 1e200})


def _tree_shape(p):
    """The paths and labels of the restriction tree of p, with its outcome."""
    tree = build_regularity_tree(p, RegularityConfig(tau=0.1, eps=0.05, delta=0.05))
    return [(leaf.path, leaf.label) for leaf in tree.leaves], tree.success, tree.diagnostics


@pytest.mark.parametrize(
    "call",
    [
        lambda: hypercontractivity_check(HUGE, 4),
        lambda: MultilinearPolynomial(3, {0: 1e308, 1: 1e308, 2: 1e308, 4: 1e308}).restrict(
            {0: 1, 1: 1, 2: 1}
        ),
        lambda: MultilinearPolynomial(1, {0: 1e308, 1: 1e308}).restrict({0: 1}),
    ],
    ids=["hypercontractivity", "restrict_fsum", "restrict_pair"],
)
def test_overflowing_coefficient_squares_are_refused(call):
    # these report in p's units (or build p's restrictions), so |p|_2 = inf has no answer
    with pytest.raises(InputError, match="overflow"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda p: weak_anticoncentration_exact(p),
        lambda p: weak_anticoncentration_estimate(p, BERNOULLI, 1_000, Rng(1)),
        lambda p: carbery_wright_estimate(p, 0.1, 1_000, Rng(1)),
        lambda p: tail_curve(p, GAUSSIAN, [1.0], 1_000, Rng(1)),
        lambda p: estimate_alpha(p, 1_000, Rng(1)),
        lambda p: estimate_beta(p, 1_000, Rng(1)),
        lambda p: strong_anticoncentration_estimate(p, 0.1, 1_000, Rng(1)),
        lambda p: block_alpha_sum(p, block_partition(2, 2), 1_000, Rng(1)),
        lambda p: classify_leaf(p, 0.1, 0.05),
        _tree_shape,
    ],
    ids=[
        "weak_exact", "weak_estimate", "carbery_wright", "tail_curve", "alpha", "beta", "strong",
        "block_alpha_sum", "classify_leaf", "regularity_tree",
    ],
)
def test_overflowing_squares_give_the_unit_scale_results(call):
    # scale-free results are computed on the unit form of p, whose squares are finite
    assert call(HUGE) == call(poly(2, {(0,): 1.0, (1,): 1.0}))


@pytest.mark.filterwarnings("error")
def test_overflowing_squared_gradient_gives_the_unit_scale_results():
    # |p|_2^2 = 20 * 2^1016 is finite, but |grad p(X)|^2 = 2^1016 ((sum_i X_i)^2 +
    # 20 X_0^2) overflows on the rows where the bracket exceeds 2^8, about one in 600
    unit = MultilinearPolynomial(21, {1 | 1 << i: 1.0 for i in range(1, 21)})
    huge = unit.scale(2.0**508)
    assert math.isfinite(huge.moments().l2_norm)
    for statistic in (
        lambda p: strong_anticoncentration_estimate(p, 0.1, 10_000, Rng(1)),
        lambda p: estimate_beta(p, 10_000, Rng(1)),
    ):
        assert statistic(huge) == statistic(unit)


def test_gaussian_form_does_not_overflow_on_huge_coefficients():
    p = poly(4, {(0,): 1e200, (1,): -1e200, (2, 3): 1.0})
    (merged,) = _gaussian_form(p)
    assert merged.n == 3 and merged.terms[1] == pytest.approx(math.sqrt(2.0) * 1e200)
    gap = invariance_gap(p, [0.0], 10_000, Rng(72))
    assert math.isfinite(gap.gap)


def _value_estimate(p, samples, rng, statistic):
    """The every-coordinate oracle for statistics of p(X) alone: one Gaussian
    value per coordinate of p, one result per column of ``statistic``."""

    def batch(gen, m):
        return statistic(p.eval_many(_draw(gen, GAUSSIAN, p.n, m).T)).astype(np.float64)

    return randomized._estimate(batch, samples, rng, 1, width=p.n + KERNEL_ROWS)


def _within(cut):
    return lambda values: np.abs(values) <= cut


@pytest.mark.parametrize(
    "merged, oracle",
    [
        (lambda r: strong_anticoncentration_estimate(_MIXED, 0.3, 200_000, r),
         lambda r: _direction_estimate(_MIXED, 200_000, r, _indicator(0.3))),
        (lambda r: estimate_beta(_MIXED, 200_000, r),
         lambda r: _direction_estimate(_MIXED, 200_000, r, _clamp)),
        (lambda r: carbery_wright_estimate(_MIXED, 0.1, 200_000, r),
         lambda r: _value_estimate(_MIXED, 200_000, r, _within(0.1 * _MIXED_L2))[0]),
    ],
    ids=["strong", "beta", "carbery_wright"],
)
def test_gaussian_form_agrees_with_the_every_coordinate_oracle(merged, oracle):
    new, old = merged(Rng(78, 1)), oracle(Rng(78, 2))
    assert abs(new.estimate - old.estimate) <= 4 * math.hypot(new.std_error, old.std_error)


def test_gaussian_half_of_the_gap_agrees_with_the_every_coordinate_oracle():
    # |p(A)| <= sum |coefficients| on the cube, so outside that range the +-1 CDF is
    # exactly 0 or 1 and the gap is the Gaussian mass beyond it
    edge = sum(abs(c) for c in _MIXED.terms.values()) + 1e-9
    samples = 200_000
    gap = invariance_gap(_MIXED, [-edge, edge], samples, Rng(79, 1))
    oracle = _value_estimate(_MIXED, samples, Rng(79, 2),
                             lambda v: np.array([v <= -edge, v > edge]))
    for measured, reference in zip(gap.per_t, oracle):
        se = math.hypot(math.sqrt(measured * (1.0 - measured) / samples), reference.std_error)
        assert abs(measured - reference.estimate) <= 4 * se


# ---------------------------------------------------------------------------
# the merged pair of abs_comparison_gap


def _linear(n, stream, higher=None):
    """A linear form with N(0, 1) coefficients on n coordinates, plus ``higher`` terms."""
    weights = Rng(81, stream).generator().standard_normal(n)
    return MultilinearPolynomial(n, {**{1 << i: float(w) for i, w in enumerate(weights)},
                                     **(higher or {})})


def _pair_share(p, q, samples, rng, merge):
    """The Gaussian share Pr(|p(X)| <= |q(X)|), on the merged pair or on every coordinate."""
    forms = _gaussian_form(p, q) if merge else (p, q)
    return randomized._below_share(*forms, GAUSSIAN, samples, rng, 1)


@pytest.mark.parametrize("n", [100, 1000])
def test_pair_form_agrees_with_the_closed_form_of_a_linear_pair(n):
    # |a.X| <= |b.X| iff (a-b).X and (a+b).X have opposite signs, and two centred
    # Gaussians with correlation rho do so with probability arccos(rho) / pi; b leans
    # on a, so a form that drew p and q independently would read about 0.48, not 0.45
    p, c = _linear(n, 1), _linear(n, 2)
    q = p.scale(0.9) + c.scale(0.3)
    a = np.array([p.terms[1 << i] for i in range(n)])
    b = np.array([q.terms[1 << i] for i in range(n)])
    rho = np.dot(a - b, a + b) / (np.linalg.norm(a - b) * np.linalg.norm(a + b))
    exact = math.acos(rho) / math.pi
    assert [form.n for form in _gaussian_form(p, q)] == [2, 2]
    measured = _pair_share(p, q, 400_000, Rng(82, n), merge=True)
    assert abs(measured.estimate - exact) <= 4 * measured.std_error


@pytest.mark.parametrize(
    "p, q",
    [
        (_MIXED, poly(6, {(0,): 0.3, (2,): -0.2, (3,): 0.7, (4,): 0.25, (5,): 0.4})),
        (poly(6, {(0,): 0.3, (2,): -0.2, (3,): 0.7, (4,): 0.25, (5,): 0.4}), _MIXED),
        (_MIXED, poly(6, {(1,): 0.9, (4,): -0.8, (5,): 0.3})),
    ],
    ids=["mixed_first", "linear_first", "sparse_linear"],
)
def test_pair_form_agrees_with_the_every_coordinate_oracle(p, q):
    new = _pair_share(p, q, 200_000, Rng(83, 1), merge=True)
    old = _pair_share(p, q, 200_000, Rng(83, 2), merge=False)
    assert abs(new.estimate - old.estimate) <= 4 * math.hypot(new.std_error, old.std_error)


def test_pair_form_keeps_equal_and_opposite_vectors_exact():
    p = _linear(5, 3, {0b11: 0.5})  # x0 and x1 occur in x0*x1: L is x2..x4
    hypot = math.hypot(*(p.terms[1 << i] for i in (2, 3, 4)))
    merged_p, merged_q = _gaussian_form(p, p)
    assert merged_p == merged_q and merged_p.terms[1 << 2] == hypot and merged_p.n == 3
    merged_p, merged_q = _gaussian_form(p, -p)
    assert merged_q == -merged_p and merged_p.terms[1 << 2] == hypot
    # a_L = 0: p keeps no merged coordinate and q its own hypot
    q = _linear(5, 4)
    merged_p, merged_q = _gaussian_form(MultilinearPolynomial(5, {0b11: 0.5}), q)
    assert merged_p == poly(3, {(0, 1): 0.5})
    assert merged_q.terms[1 << 2] == math.hypot(*(q.terms[1 << i] for i in (2, 3, 4)))


@pytest.mark.parametrize("higher", [None, {0b11: 0.5, 0b1100: -0.3}], ids=["linear", "mixed"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["q=p", "q=-p"])
def test_abs_comparison_gap_of_a_polynomial_and_its_multiple_is_exactly_zero(higher, sign):
    p = _linear(100, 5, higher)
    r = abs_comparison_gap(p, p.scale(sign), 50_000, Rng(84))
    assert r.estimate == 0.0 and r.std_error == 0.0


@pytest.mark.parametrize(
    "p, q, k, linear_only, rank",
    [
        (_MIXED, poly(6, {(0,): 0.3, (2,): -0.2, (3,): 0.7, (4,): 0.25, (5,): 0.4}), 6, 4, 2),
        (_linear(100, 6), _linear(100, 7), 100, 100, 2),
        (scaled_sum(9), scaled_sum(9), 9, 9, 1),
        (scaled_sum(9), -scaled_sum(9), 9, 9, 1),
        (poly(4, {(0, 1): 1.0}), poly(4, {(2,): 0.5, (3,): -1.0}), 4, 2, 1),
        (poly(3, {(0, 1): 1.0, (2,): 0.5}), poly(3, {(0,): 0.4, (1,): 0.6}), 3, 1, 1),
    ],
    ids=["mixed", "linear_100", "equal", "opposite", "disjoint", "one_linear_only"],
)
def test_gaussian_half_draws_the_merged_pair(p, q, k, linear_only, rank, monkeypatch):
    # per row the +-1 half draws the k coordinates of the union support, and the
    # Gaussian half k - |L| + rank: one value per independent direction of L
    # (|L| < 2 leaves the pair as it is)
    rows = {BERNOULLI: set(), GAUSSIAN: set()}
    draw = randomized._draw

    def recording(gen, dist, r, cols):
        rows[dist].add(r)
        return draw(gen, dist, r, cols)

    monkeypatch.setattr(randomized, "_draw", recording)
    abs_comparison_gap(p, q, 1_000, Rng(85))
    merged = k if linear_only < 2 else k - linear_only + rank
    assert rows == {BERNOULLI: {k}, GAUSSIAN: {merged}}


def test_strong_anticoncentration_rejects_constant():
    with pytest.raises(InputError):
        strong_anticoncentration_estimate(MultilinearPolynomial.constant(2, 1.0), 0.1, 100, Rng(1))


# ---------------------------------------------------------------------------
# invariance measurements


def test_invariance_gap_dictator_known_value():
    gap = invariance_gap(X0, [-0.5], 100_000, Rng(15))
    assert gap.gap == pytest.approx(normal_cdf(0.5) - 0.5, abs=0.01)


def test_invariance_gap_constant_is_zero():
    gap = invariance_gap(MultilinearPolynomial.constant(2, 1.5), [0.0, 1.5, 2.0], 1_000, Rng(27))
    assert gap.gap == 0.0


def test_invariance_gap_shrinks_with_regularity():
    small = invariance_gap(scaled_sum(25), None, 100_000, Rng(28))
    large = invariance_gap(scaled_sum(100), None, 100_000, Rng(29))
    assert large.gap <= small.gap


@pytest.mark.parametrize(
    "p", [scaled_sum(25), random_polynomial(10, 3, 12, Rng(30))], ids=["scaled_sum", "random"]
)
def test_default_gap_grid_is_the_fixed_grid_path_at_the_pilot_quantiles(p):
    # the pilot draws on streams of its own, so counting at its grid is the fixed-grid path
    default = invariance_gap(p, None, 50_001, Rng(31, 2))
    fixed = invariance_gap(p, default.thresholds, 50_001, Rng(31, 2))
    assert default.thresholds.size == 201
    assert (*_gap_fields(default), default.seed, default.stream) == (
        *_gap_fields(fixed), fixed.seed, fixed.stream
    )


def test_invariance_gap_grid_validation():
    with pytest.raises(InputError):
        invariance_gap(X0, [], 100, Rng(1))
    with pytest.raises(InputError):
        invariance_gap(X0, [1.0, 0.0], 100, Rng(1))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: strong_anticoncentration_estimate(X0, bad, 100, Rng(1)),
        lambda bad: carbery_wright_estimate(X0, bad, 100, Rng(1)),
        lambda bad: tail_curve(X0, GAUSSIAN, [bad], 100, Rng(1)),
        lambda bad: tail_curve(X0, BERNOULLI, [1.0, bad], 100, Rng(1)),
        lambda bad: invariance_gap(X0, [bad], 100, Rng(1)),
        lambda bad: invariance_gap(X0, [-bad, 0.0], 100, Rng(1)),
    ],
    ids=["strong_eps", "carbery_wright_eps", "tail_curve", "tail_curve_second",
         "invariance_gap", "invariance_gap_negative"],
)
def test_non_finite_eps_and_thresholds_are_rejected(call, bad):
    # a NaN cut compares false everywhere: the estimate would read 0 with a 0 std_error
    with pytest.raises(InputError):
        call(bad)


def test_abs_comparison_gap_self_is_zero():
    p = scaled_sum(9)
    r = abs_comparison_gap(p, p, 50_000, Rng(30))
    assert r.estimate == 0.0


def test_abs_comparison_gap_equal_polynomials_reversed():
    n = 6
    p = scaled_sum(n)
    q = MultilinearPolynomial(n, {1 << (n - 1 - i): 1.0 / math.sqrt(n) for i in range(n)})
    assert q == p
    assert abs_comparison_gap(p, q, 20_000, Rng(31)).estimate == 0.0


def test_abs_comparison_gap_decays_with_dimension():
    gaps = {}
    for n in (9, 100):
        gen = Rng(16, n).generator()
        q = MultilinearPolynomial(
            n, {1 << i: float(w) for i, w in enumerate(0.1 * gen.standard_normal(n))}
        )
        gaps[n] = abs_comparison_gap(scaled_sum(n), q, 200_000, Rng(17, n)).estimate
    assert gaps[100] <= gaps[9]


def test_abs_comparison_gap_dimension_mismatch():
    with pytest.raises(InputError):
        abs_comparison_gap(scaled_sum(3), scaled_sum(4), 100, Rng(1))


@pytest.mark.filterwarnings("error")
def test_abs_comparison_gap_does_not_overflow_at_a_large_common_scale():
    # at 1e308 the values of p overflow; the pair runs at one common unit scale
    # (test_metamorphic compares common scales 2^+-600 and 2^+-1000)
    p, q = MultilinearPolynomial.coordinate_sum(3), poly(3, {(0,): 1.0, (1,): 1.0})
    gap = lambda c: abs_comparison_gap(p.scale(c), q.scale(c), 20_000, Rng(1))
    assert gap(1e308) == gap(1e308 * 2.0**-1023)


# ---------------------------------------------------------------------------
# hypercontractivity


def test_hypercontractivity_examples():
    check = hypercontractivity_check(X0, 4)
    assert check.lhs == pytest.approx(1.0)
    assert check.rhs == pytest.approx(math.sqrt(3.0))
    assert check.holds
    product = hypercontractivity_check(poly(2, {(0, 1): 1.0}), 4)
    assert product.lhs == pytest.approx(1.0)
    assert product.rhs == pytest.approx(3.0)
    assert product.holds


def test_hypercontractivity_at_large_scale():
    # the moment is taken of p / |p|_2, so (1e100)^4 never overflows
    check = hypercontractivity_check(MultilinearPolynomial.constant(2, 1e100), 4)
    assert check.lhs == check.rhs == 1e100
    assert check.holds
    zero = hypercontractivity_check(MultilinearPolynomial.zero(2), 4)
    assert zero.lhs == zero.rhs == 0.0
    assert zero.holds


@pytest.mark.parametrize("t", [4, 5000, 10**6])
def test_hypercontractivity_holds_at_every_moment_order(t):
    # the moment is taken of u / max|u|, so no power overflows: |p|_t lies
    # between |p|_2 and max|p| at any order, and the inequality holds
    p = poly(3, {(): 0.1, (0,): 1.0, (1, 2): 0.5})
    check = hypercontractivity_check(p, t)
    assert p.moments().l2_norm <= check.lhs <= np.abs(evaluate_on_hypercube(p)).max()
    assert check.holds


def test_hypercontractivity_sweep():
    for _, p in random_instances(48, 60, d_max=4):
        for t in (4, 6):
            assert hypercontractivity_check(p, t).holds


def test_hypercontractivity_validation():
    with pytest.raises(InputError):
        hypercontractivity_check(X0, 3)
    with pytest.raises(InputError):
        hypercontractivity_check(X0, 4.0)
    with pytest.raises(CapExceededError):
        hypercontractivity_check(MultilinearPolynomial.coordinate_sum(25), 4)


# ---------------------------------------------------------------------------
# random instances


def test_random_polynomial_deterministic():
    a = random_polynomial(8, 2, 10, Rng(42))
    b = random_polynomial(8, 2, 10, Rng(42))
    assert a == b


def test_random_polynomial_counts_and_degree():
    p = random_polynomial(8, 2, 10, Rng(43))
    assert p.term_count == 10
    assert p.degree <= 2


def test_random_polynomial_degree_zero_is_constant():
    p = random_polynomial(5, 0, 1, Rng(44))
    assert p.degree == 0 and p.term_count == 1


def test_random_polynomial_unsatisfiable_sparsity():
    with pytest.raises(CapExceededError):
        random_polynomial(4, 1, 99, Rng(1))


def test_random_polynomial_sparse_path_keys_are_ints():
    p = random_polynomial(200, 3, 20, Rng(1))
    assert p.term_count == 20
    assert all(type(mask) is int for mask in p.terms)
    assert any(mask >> 63 for mask in p.terms)  # a variable index >= 63
    assert MultilinearPolynomial.from_json(p.to_json()) == p


def test_random_polynomial_exhaustive_request():
    p = random_polynomial(4, 1, 5, Rng(45))  # all subsets of size <= 1
    assert p.term_count == 5


def _from_float_weights(n, degree, terms, rng):
    """random_polynomial's large branch with the size weights C(n, k) taken to
    float64 and normalised by their float sum, where none of them overflows."""
    weights = np.array([math.comb(n, k) for k in range(degree + 1)], dtype=np.float64)
    weights /= weights.sum()
    gen = rng.generator()
    chosen = {}
    while len(chosen) < terms:
        k = int(gen.choice(degree + 1, p=weights))
        mask = mask_from_indices(int(i) for i in (gen.choice(n, size=k, replace=False) if k else ()))
        if mask not in chosen:
            chosen[mask] = float(gen.standard_normal())
    return MultilinearPolynomial(n, chosen)


@pytest.mark.parametrize("n, degree, terms", [(200, 3, 30), (1000, 600, 5), (300, 5, 50),
                                              (2000, 2, 40), (1030, 4, 20)])
def test_random_polynomial_matches_the_float_weights_oracle(n, degree, terms):
    assert sum(math.comb(n, k) for k in range(degree + 1)) > 1 << 20  # the large branch
    for seed in range(20):
        p = random_polynomial(n, degree, terms, Rng(seed))
        assert p.terms == _from_float_weights(n, degree, terms, Rng(seed)).terms


@pytest.mark.parametrize("n, degree", [(1100, 600), (4096, 4096)])
def test_random_polynomial_beyond_the_float_range_of_the_subset_counts(n, degree):
    with pytest.raises(OverflowError):  # so float size weights could not be built
        float(math.comb(n, n // 2))
    p = random_polynomial(n, degree, 3, Rng(1))
    assert p.term_count == 3 and p.degree <= degree


def _from_mask_list(n, degree, terms, rng):
    """random_polynomial's small branch with the candidate list built: every subset
    of size <= degree, by size and then as itertools.combinations lists it."""
    masks = [
        mask_from_indices(combo)
        for k in range(degree + 1)
        for combo in itertools.combinations(range(n), k)
    ]
    gen = rng.generator()
    picked = gen.choice(len(masks), size=terms, replace=False)
    coeffs = gen.standard_normal(terms)
    return MultilinearPolynomial(n, {masks[int(i)]: float(c) for i, c in zip(picked, coeffs)})


def test_random_polynomial_matches_the_mask_list_oracle():
    for n in range(13):
        for degree in range(n + 1):
            available = sum(math.comb(n, k) for k in range(degree + 1))
            for terms in sorted({0, 1, min(7, available), available}):
                for seed in (3, 4):
                    rng = Rng(seed, n)
                    p = random_polynomial(n, degree, terms, rng)
                    assert p.terms == _from_mask_list(n, degree, terms, rng).terms


# ---------------------------------------------------------------------------
# ci95 calibration battery: every estimator with an exact or closed-form
# oracle covers the truth in at least 17 of 20 seeded intervals


def test_calibration_ci95_coverage_battery():
    pair = poly(2, {(0,): 1.0, (1,): 1.0})
    square = poly(2, {(0, 1): 1.0, (0,): 1.0, (1,): 1.0, (): 1.0})
    cases = [
        ("alpha", 0.75, lambda r: estimate_alpha(pair, 100_000, r)),
        ("beta", 2.0 / math.pi, lambda r: estimate_beta(X0, 100_000, r)),
        (
            "carbery_wright",
            2.0 * (normal_cdf(0.1) - 0.5),
            lambda r: carbery_wright_estimate(X0, 0.1, 100_000, r),
        ),
        (
            "strong_anticoncentration",
            (2.0 / math.pi) * math.atan(0.1),
            lambda r: strong_anticoncentration_estimate(X0, 0.1, 100_000, r),
        ),
        (
            "weak_anticoncentration",
            0.25,
            lambda r: weak_anticoncentration_estimate(square, BERNOULLI, 100_000, r),
        ),
    ]
    for name, truth, run in cases:
        hits = sum(run(Rng(7100, s)).covers(truth) for s in range(20))
        assert hits >= 17, f"{name}: ci95 covered the oracle in only {hits}/20 runs"
