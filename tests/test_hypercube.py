import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ptflab import (
    CapExceededError,
    InputError,
    MultilinearPolynomial,
    Rng,
    SignFunction,
    average_sensitivity_exact,
    average_sensitivity_fourier,
    evaluate_on_hypercube,
    fourier,
    fwht,
    gl_bound,
    gl_report_row,
    middle_layers_witness,
    noise_sensitivity_exact,
    random_polynomial,
    theorem_bound,
    theorem_log_bound,
    truth_table,
)
from ptflab.hypercube import _DIGIT_BITS
from ptflab.polynomial import _BATCH_ELEMENTS
from conftest import brute_average_sensitivity, brute_values, poly, random_instances


def point_from_mask(n, mask):
    """Decode a point bitmask into coordinates (bit set -> -1)."""
    bits = (mask >> np.arange(n)) & 1
    return 1.0 - 2.0 * bits


# ---------------------------------------------------------------------------
# transform


def test_fwht_matches_direct_definition():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(16)
    direct = np.array(
        [sum(x[b] * (-1) ** bin(a & b).count("1") for b in range(16)) for a in range(16)]
    )
    np.testing.assert_allclose(fwht(x), direct, atol=1e-10)


def test_fwht_is_involution_up_to_scale():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(32)
    np.testing.assert_allclose(fwht(fwht(x)) / 32.0, x, atol=1e-12)


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(InputError):
        fwht(np.zeros(3))


def _fwht_stage_copy(values):
    """Reference butterfly that copies the upper half at every stage."""
    a = np.array(values, dtype=np.float64, copy=True)
    size = a.shape[0]
    h = 1
    while h < size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :].copy()
        a[:, 0, :] = top + a[:, 1, :]
        a[:, 1, :] = top - a[:, 1, :]
        a = a.reshape(size)
        h *= 2
    return a


def test_fwht_bitwise_equal_to_stage_copy_reference():
    # on integer-valued input every partial sum is an integer below 2^53, so
    # any summation order gives the exact value
    rng = np.random.default_rng(11)
    for n in range(17):
        for x in (
            rng.choice([-1.0, 1.0], size=1 << n),
            rng.integers(-1000, 1001, size=1 << n).astype(np.float64),
        ):
            before = x.copy()
            assert np.array_equal(fwht(x), _fwht_stage_copy(x))
            assert np.array_equal(x, before)  # the input is left untouched


def _fwht_exact(values):
    """The transform in rational arithmetic, one Fraction per entry."""
    a = np.array([Fraction(float(v)) for v in values], dtype=object)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        top = pairs[:, 0, :].copy()
        pairs[:, 0, :] = top + pairs[:, 1, :]
        pairs[:, 1, :] = top - pairs[:, 1, :]
        h *= 2
    return a


def test_fwht_float_error_within_the_summation_bound():
    # Each pass computes fl((H_d + E_d) z) with |E_d| <= gamma_k |H_d| entrywise,
    # where k is the most additions one term passes through in that pass:
    # 2^r - 1 for a 2^r-term dot product, 1 for a radix-2 stage.  The |H_d|
    # multiply to the all-ones matrix, so |fl(y) - y| <= gamma_m * ||x||_1 with
    # m the sum of the k over the passes and gamma_m = m u / (1 - m u),
    # u = 2^-53 (Higham, Accuracy and Stability, lemma 3.3).  The digit passes
    # have m = sum_d (2^{r_d} - 1) >= n, the radix-2 stages m = n, so one bound
    # with the larger m holds for both.
    u = Fraction(1, 1 << 53)
    rng = np.random.default_rng(12)
    for n in range(13):
        digits = [min(_DIGIT_BITS, n - low) for low in range(0, n, _DIGIT_BITS)]
        m = sum((1 << r) - 1 for r in digits)
        x = rng.standard_normal(1 << n)
        exact = _fwht_exact(x)
        bound = m * u / (1 - m * u) * sum(abs(Fraction(float(v))) for v in x)
        for transform in (fwht, _fwht_stage_copy):
            y = transform(x)
            assert max(abs(Fraction(float(v)) - e) for v, e in zip(y, exact)) <= bound, (n, transform)


def test_fwht_peak_is_one_copy_plus_one_panel():
    x = np.random.default_rng(13).standard_normal(1 << 20)
    tracemalloc.start()
    try:
        fwht(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + _BATCH_ELEMENTS * 8 + (64 << 10), f"peak {peak / 2**20:.2f} MiB"


def test_evaluate_on_hypercube_matches_pointwise():
    for _, p in random_instances(21, 8, n_range=(1, 6)):
        values = evaluate_on_hypercube(p)
        expected = brute_values(p)
        for mask in range(1 << p.n):
            pt = tuple(point_from_mask(p.n, mask))
            assert values[mask] == pytest.approx(expected[pt], abs=1e-10)


# ---------------------------------------------------------------------------
# truth tables and spectra


def test_truth_table_dictator():
    t = truth_table(SignFunction(poly(1, {(0,): 1.0})))
    # mask 0 is x0 = +1, mask 1 is x0 = -1
    assert t.dtype == np.int8
    assert list(t) == [1, -1]


def test_truth_table_constant_sign_zero():
    t = truth_table(SignFunction(MultilinearPolynomial.constant(2, 5.0)))
    assert list(t) == [1, 1, 1, 1]
    z = truth_table(SignFunction(MultilinearPolynomial.zero(1)))
    assert list(z) == [1, 1]


def test_truth_table_maj3_matches_pointwise():
    p = MultilinearPolynomial.coordinate_sum(3)
    t = truth_table(SignFunction(p))
    for mask in range(8):
        pt = point_from_mask(3, mask)
        assert t[mask] == (1 if sum(pt) >= 0 else -1)


def test_truth_table_cap():
    with pytest.raises(CapExceededError):
        truth_table(SignFunction(MultilinearPolynomial.coordinate_sum(25)))


def test_truth_table_and_spectrum_built_once_read_only():
    f = SignFunction(poly(3, {(0, 1): 1.0, (2,): -0.5}))
    table = truth_table(f)
    assert truth_table(f) is table
    spectrum = fourier(f)
    assert fourier(f) is spectrum
    assert f.level_weights is f.level_weights
    assert (table.dtype, spectrum.dtype) == (np.int8, np.float64)
    assert table.shape == spectrum.shape == (8,) and f.level_weights.shape == (4,)
    for array in (table, spectrum, f.level_weights):
        assert not array.flags.writeable


def test_level_weights_match_direct_sum_across_blocks():
    # n = 16 fills one 2^16 block of the level-weight accumulation, n = 18 spans four
    for n, terms in ((0, 1), (3, 4), (16, 30), (18, 30)):
        f = SignFunction(random_polynomial(n, min(n, 3), terms, Rng(12, n)))
        sizes = np.bitwise_count(np.arange(1 << n))
        direct = np.bincount(sizes, weights=fourier(f) ** 2, minlength=n + 1)
        np.testing.assert_allclose(f.level_weights, direct, rtol=1e-12)


def test_fourier_dictator_and_constant():
    spec = fourier(SignFunction(poly(1, {(0,): 1.0})))
    assert spec[0b1] == pytest.approx(1.0)
    assert spec[0] == pytest.approx(0.0)
    const = fourier(SignFunction(MultilinearPolynomial.constant(2, 1.0)))
    assert const[0] == pytest.approx(1.0)


def test_fourier_maj3():
    spec = fourier(SignFunction(MultilinearPolynomial.coordinate_sum(3)))
    for mask in (0b001, 0b010, 0b100):
        assert spec[mask] == pytest.approx(0.5)
    assert spec[0b111] == pytest.approx(-0.5)
    for mask in (0b000, 0b011, 0b101, 0b110):
        assert spec[mask] == pytest.approx(0.0)


def test_parseval_on_random_instances():
    for _, p in random_instances(22, 20):
        f = SignFunction(p)
        assert float((fourier(f) ** 2).sum()) == pytest.approx(1.0, abs=1e-9)
        assert float(f.level_weights.sum()) == pytest.approx(1.0, abs=1e-9)


def test_fourier_recovers_polynomial_coefficients():
    p = poly(3, {(0, 2): 0.75, (1,): -2.0, (): 0.5})
    recovered = fwht(evaluate_on_hypercube(p)) / 8.0
    np.testing.assert_allclose(recovered, p.dense_coefficients(), atol=1e-12)


# ---------------------------------------------------------------------------
# average sensitivity


def test_as_maj3():
    assert average_sensitivity_exact(
        SignFunction(MultilinearPolynomial.coordinate_sum(3))
    ) == pytest.approx(1.5)


def test_as_dictator_any_n():
    for n in (1, 4, 8):
        p = MultilinearPolynomial(n, {1: 1.0})
        assert average_sensitivity_exact(SignFunction(p)) == pytest.approx(1.0)


def test_as_parity():
    for n, d in ((4, 2), (5, 3), (6, 4)):
        p = MultilinearPolynomial(n, {(1 << d) - 1: 1.0})
        assert average_sensitivity_exact(SignFunction(p)) == pytest.approx(float(d))


def test_as_matches_brute_force():
    for _, p in random_instances(23, 10, n_range=(2, 6)):
        assert average_sensitivity_exact(SignFunction(p)) == pytest.approx(
            brute_average_sensitivity(p), abs=1e-12
        )


def test_as_two_paths_agree():
    for _, p in random_instances(24, 25):
        f = SignFunction(p)
        edge = average_sensitivity_exact(f)
        weighted = average_sensitivity_fourier(f)
        assert edge == pytest.approx(weighted, abs=1e-9)


# ---------------------------------------------------------------------------
# noise sensitivity


def test_ns_dictator():
    f = SignFunction(poly(1, {(0,): 1.0}))
    for delta in (0.0, 0.05, 0.25, 0.5):
        assert noise_sensitivity_exact(f, delta) == pytest.approx(delta, abs=1e-12)


def test_ns_constant_is_zero():
    f = SignFunction(MultilinearPolynomial.constant(3, 2.0))
    assert noise_sensitivity_exact(f, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_ns_two_variable_parity():
    f = SignFunction(poly(2, {(0, 1): 1.0}))
    for delta in (0.1, 0.3, 0.5):
        assert noise_sensitivity_exact(f, delta) == pytest.approx(
            0.5 - 0.5 * (1 - 2 * delta) ** 2, abs=1e-12
        )


def test_ns_zero_and_monotone():
    grid = np.linspace(0.0, 0.5, 11)
    for _, p in random_instances(25, 6):
        f = SignFunction(p)
        values = [noise_sensitivity_exact(f, d) for d in grid]
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_ns_matches_direct_subset_sum():
    for _, p in random_instances(26, 8, n_range=(1, 8)):
        f = SignFunction(p)
        coeffs = fourier(f)
        sizes = [bin(s).count("1") for s in range(1 << p.n)]
        for delta in (0.001, 0.1, 0.37):
            rho = 1.0 - 2.0 * delta
            direct = 0.5 - 0.5 * sum(c * c * rho**k for c, k in zip(coeffs, sizes))
            assert abs(noise_sensitivity_exact(f, delta) - direct) <= 1e-12


def test_ns_rejects_bad_delta():
    f = SignFunction(poly(1, {(0,): 1.0}))
    for delta in (-0.01, 0.51):
        with pytest.raises(InputError):
            noise_sensitivity_exact(f, delta)


# ---------------------------------------------------------------------------
# the conjectured bound and its witness


def test_gl_bound_values():
    assert gl_bound(3, 1) == pytest.approx(1.5)
    assert gl_bound(2, 1) == pytest.approx(1.0)
    assert gl_bound(3, 3) == pytest.approx(3.75)


def test_gl_bound_validation():
    with pytest.raises(InputError):
        gl_bound(1, 1)
    with pytest.raises(InputError):
        gl_bound(4, 0)
    with pytest.raises(InputError):
        gl_bound(4.0, 1)


def test_gl_bound_large_n_exact_rationals():
    # C(63, 31) overflows 64-bit intermediate products; exact arithmetic must not
    value = gl_bound(63, 2)
    assert math.isfinite(value) and value > 0


def test_witness_d1_odd_n_is_majority():
    w = middle_layers_witness(3, 1)
    assert w == MultilinearPolynomial.coordinate_sum(3)
    assert average_sensitivity_exact(SignFunction(w)) == pytest.approx(gl_bound(3, 1))


def test_witness_d1_even_n_shifts_threshold():
    w = middle_layers_witness(2, 1)
    assert w == poly(2, {(0,): 1.0, (1,): 1.0, (): -1.0})
    assert average_sensitivity_exact(SignFunction(w)) == pytest.approx(gl_bound(2, 1))


def test_witness_4_2_product_structure():
    w = middle_layers_witness(4, 2)
    expected = MultilinearPolynomial.coordinate_sum(4).multiply(
        MultilinearPolynomial.coordinate_sum(4)
    ) + MultilinearPolynomial.constant(4, -1.0)
    assert w == expected
    assert w.degree == 2
    # enumeration across 16 points; equality with the bound recorded for this pair
    assert average_sensitivity_exact(SignFunction(w)) == pytest.approx(gl_bound(4, 2))


def test_witness_rejects_degree_above_dimension():
    with pytest.raises(InputError):
        middle_layers_witness(3, 4)


def test_witness_thresholds_avoid_vertices():
    # no point of the cube may evaluate to zero under the product
    for n, d in ((2, 1), (3, 2), (4, 2), (5, 3), (6, 2)):
        values = evaluate_on_hypercube(middle_layers_witness(n, d))
        assert np.all(values != 0.0)


def test_as_majority_meets_bound_small_odd_n():
    for n in (3, 5, 7, 9):
        f = SignFunction(MultilinearPolynomial.coordinate_sum(n))
        assert average_sensitivity_exact(f) == pytest.approx(gl_bound(n, 1), abs=1e-9)


def test_gl_report_row_fields():
    row = gl_report_row(3, 1)
    assert row == {
        "n": 3,
        "d": 1,
        "as_exact": 1.5,
        "gl_bound": 1.5,
        "ratio": 1.0,
        "witness_flag": True,
    }
    # layer double-counting at this parity: witness strictly below the bound
    skew = gl_report_row(3, 2)
    assert skew["as_exact"] == pytest.approx(2.25)
    assert skew["gl_bound"] == pytest.approx(3.0)
    assert not skew["witness_flag"]


# ---------------------------------------------------------------------------
# parameterized envelope


def test_theorem_bound_zero_constants_is_sqrt_n():
    for n in (2.0, 10.0, 1e6):
        assert theorem_bound(n, 3, 0.0, 0.0) == pytest.approx(math.sqrt(n))


def test_theorem_bound_convention_frozen_value():
    # d = 1: both exponents collapse to the constants via max(1, ln d) = 1,
    # so the value at n = e^2 is e * (ln n)^1 * 2^1 = 4e
    value = theorem_bound(math.e**2, 1, 1.0, 1.0)
    assert value == pytest.approx(4.0 * math.e, rel=1e-12)


def test_theorem_bound_monotone_in_n():
    values = [theorem_bound(float(n), 2, 1.0, 1.0) for n in (3, 10, 100, 10_000)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_theorem_bound_overflow_is_inf_with_finite_log():
    assert theorem_bound(40, 30) == math.inf
    assert math.isfinite(theorem_log_bound(40, 30))
    value = theorem_bound(22.0, 3, 1.0, 1.0)
    assert math.log(value) == pytest.approx(theorem_log_bound(22.0, 3, 1.0, 1.0), rel=1e-14)


def test_theorem_bound_validation():
    with pytest.raises(InputError):
        theorem_bound(1.0, 1)
    with pytest.raises(InputError):
        theorem_bound(4.0, 0)
    with pytest.raises(InputError):
        theorem_bound(4.0, 1, -1.0, 0.0)
