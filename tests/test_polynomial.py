import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptflab import (
    CapExceededError,
    InputError,
    MultilinearPolynomial,
    SignFunction,
    block_partition,
    block_sensitivity_identity_check,
    evaluate_on_hypercube,
    exact_alpha,
    hypercontractivity_check,
    sign_pm1,
    small_alpha_check,
    truth_table,
    weak_anticoncentration_exact,
)
from ptflab.hypercube import all_points
from ptflab.polynomial import ENUMERATION_BUDGET, check_enumeration, iter_bits, mask_from_indices

from conftest import brute_gradient, brute_influence, brute_second_moment, iter_cube, poly, random_instances


# ---------------------------------------------------------------------------
# hypothesis strategy


@st.composite
def polynomials(draw, max_n=6, max_terms=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    count = draw(st.integers(min_value=0, max_value=max_terms))
    masks = draw(
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=count, unique=True)
    )
    coeffs = draw(
        st.lists(
            st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=32),
            min_size=len(masks),
            max_size=len(masks),
        )
    )
    return MultilinearPolynomial(n, dict(zip(masks, coeffs)))


# ---------------------------------------------------------------------------
# evaluation


def test_eval_examples():
    p = poly(2, {(0, 1): 1.0, (0,): 1.0})
    assert p.eval([1.0, 1.0]) == 2.0
    assert p.eval([-1.0, 1.0]) == -2.0
    assert MultilinearPolynomial.zero(3).eval([0.5, 2.0, -1.0]) == 0.0


def test_eval_dimension_mismatch():
    p = poly(2, {(0,): 1.0})
    with pytest.raises(InputError):
        p.eval([1.0, 1.0, 1.0])


def test_eval_many_matches_eval():
    p = poly(3, {(0, 2): 2.0, (1,): -0.5, (): 3.0})
    pts = np.array([[1.0, -1.0, 1.0], [0.5, 2.0, -3.0], [0.0, 0.0, 0.0]])
    batch = p.eval_many(pts)
    for row, expected in zip(pts, batch):
        assert p.eval(row) == pytest.approx(expected, abs=1e-12)


def test_sign_convention():
    assert sign_pm1(0.0) == 1
    assert sign_pm1(-0.0) == 1
    assert sign_pm1(-1e-300) == -1


# ---------------------------------------------------------------------------
# derivatives


def test_partial_derivative_examples():
    p = poly(2, {(0, 1): 1.0, (0,): 1.0})
    assert p.partial_derivative(0) == poly(2, {(1,): 1.0, (): 1.0})
    assert poly(2, {(0,): 1.0}).partial_derivative(1) == MultilinearPolynomial.zero(2)
    assert poly(3, {(0, 1, 2): 1.0}).partial_derivative(0) == poly(3, {(1, 2): 1.0})


def test_partial_derivative_index_error():
    with pytest.raises(InputError):
        poly(2, {(0,): 1.0}).partial_derivative(2)


def _gradient(p, x):
    """The pointwise gradient, term by term: the oracle of the batched kernels."""
    grad = np.zeros(p.n)
    for mask, coeff in p.terms.items():
        for i in iter_bits(mask):
            prod = coeff
            for j in iter_bits(mask):
                if j != i:
                    prod *= x[j]
            grad[i] += prod
    return grad


def _directional_derivative(p, x, v):
    """D_v p(x) from one row of the partial-column sum the estimators read."""
    return float(p._partial_sum(np.array([x], dtype=float), None, np.array([v], dtype=float))[0])


def test_directional_derivative_examples():
    assert _directional_derivative(poly(2, {(0, 1): 1.0}), [1.0, 1.0], [1.0, 0.0]) == 1.0
    assert _directional_derivative(poly(2, {(0,): 1.0, (1,): 1.0}), [0.3, -2.0], [1.0, 1.0]) == 2.0
    p = poly(2, {(0, 1): 1.0, (0,): 1.0})
    assert _directional_derivative(p, [-1.0, 2.0], [0.0, 1.0]) == pytest.approx(-1.0)


@st.composite
def kernel_cases(draw):
    """A polynomial of degree <= 6 (possibly empty, constant, or n = 0, or a
    sparse support inside n = 64), points and directions, and a memory layout."""
    n = draw(st.sampled_from([0, 1, 2, 5, 8, 64]))
    support = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=8)) if n else []
    subsets = st.lists(st.sampled_from(support), unique=True, max_size=6) if support else st.just([])
    masks = draw(st.lists(subsets.map(mask_from_indices), unique=True, max_size=10))
    coeff = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=32)
    p = MultilinearPolynomial(n, {mask: draw(coeff) for mask in masks})
    m = draw(st.integers(0, 4))
    entry = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, width=32)
    grid = st.lists(entry, min_size=m * n, max_size=m * n)
    if draw(st.booleans()):  # C-order (m, n)
        points = np.array(draw(grid)).reshape(m, n)
        directions = np.array(draw(grid)).reshape(m, n)
    else:  # the .T view of a C-order (n, m) array, as the estimators pass it
        points = np.array(draw(grid)).reshape(n, m).T
        directions = np.array(draw(grid)).reshape(n, m).T
    return p, points, directions


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_eval_many_value_and_derivative_match_pointwise(case):
    p, points, directions = case
    magnitude = MultilinearPolynomial(p.n, {mask: abs(c) for mask, c in p.terms.items()})
    values = p.eval_many(points)
    deriv = p._partial_sum(points, None, directions)
    assert values.shape == deriv.shape == (points.shape[0],)
    for x, v, value, d in zip(points, directions, values, deriv):
        # 1e-12 relative to the sum of the absolute term values
        value_scale = magnitude.eval(np.abs(x))
        deriv_scale = float(np.dot(np.abs(v), _gradient(magnitude, np.abs(x))))
        assert abs(value - p.eval(x)) <= 1e-12 * value_scale
        assert abs(d - np.dot(v, _gradient(p, x))) <= 1e-12 * deriv_scale


@given(kernel_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_squared_gradient_norm_matches_pointwise_gradient(case, data):
    p, points, _ = case
    subsets = st.lists(st.integers(0, p.n - 1), unique=True) if p.n else st.just([])
    coords = data.draw(st.none() | subsets)
    index = list(range(p.n)) if coords is None else coords
    magnitude = MultilinearPolynomial(p.n, {mask: abs(c) for mask, c in p.terms.items()})
    squared = p.squared_gradient_norm(points, coords)
    assert squared.shape == (points.shape[0],)
    for x, got in zip(points, squared):
        grad = _gradient(p, x)[index]
        bound = _gradient(magnitude, np.abs(x))[index]
        assert abs(got - float(grad @ grad)) <= 1e-12 * float(bound @ bound)


def test_squared_gradient_norm_edge_cases():
    rows = np.array([[0.5, -2.0, 3.0], [1.0, 1.0, -1.0]])
    assert MultilinearPolynomial.zero(0).squared_gradient_norm(np.zeros((3, 0))).tolist() == [0.0] * 3
    constant = MultilinearPolynomial.constant(3, 2.5)
    assert constant.squared_gradient_norm(rows).tolist() == [0.0, 0.0]
    # constant partials fold into one scalar: 3^2 + 4^2 on every row
    linear = poly(3, {(0,): 3.0, (2,): -4.0, (): 1.0})
    assert linear.squared_gradient_norm(rows).tolist() == [25.0, 25.0]
    assert linear.squared_gradient_norm(rows, [2]).tolist() == [16.0, 16.0]
    assert linear.squared_gradient_norm(rows, []).tolist() == [0.0, 0.0]
    assert linear._partial_split is linear._partial_split
    with pytest.raises(InputError):
        linear.squared_gradient_norm(rows, [3])
    with pytest.raises(InputError):
        linear.squared_gradient_norm(rows[:, :2])


def _split_of_every_partial(p):
    """The split as built from all n partials, one partial_derivative(i) per coordinate."""
    partials = [p.partial_derivative(i) for i in range(p.n)]
    constants = np.array([0.0 if q.degree else q.terms.get(0, 0.0) for q in partials])
    return constants, tuple((i, q) for i, q in enumerate(partials) if q.degree)


def _assert_split_of_every_partial(p):
    constants, varying = p._partial_split
    expected_constants, expected_varying = _split_of_every_partial(p)
    assert constants.dtype == np.float64 and constants.shape == (p.n,)
    assert not constants.flags.writeable
    assert constants.tobytes() == expected_constants.tobytes()  # bit for bit, signs of 0 too
    assert varying == expected_varying


@pytest.mark.parametrize(
    "p",
    [
        MultilinearPolynomial.zero(3),
        MultilinearPolynomial.zero(0),
        MultilinearPolynomial.constant(0, 1.5),
        MultilinearPolynomial.constant(4, -2.0),
        MultilinearPolynomial.coordinate_sum(6),
        poly(5, {(0,): 3.0, (3,): -0.25, (): 1.0}),  # x1, x2 and x4 occur in no term
        poly(6, {(0, 1): 1.0, (2,): 1.0, (3,): -1.0}),  # x4 and x5 occur in no term
        # x1 occurs in a linear and in a higher term, x0 in none
        poly(6, {(1, 4): 0.5, (1,): 2.0, (5,): -1.0, (2, 3, 4): 1e-300, (): 7.0}),
    ],
    ids=["zero", "zero_n0", "constant_n0", "constant", "coordinate_sum", "linear", "mixed",
         "linear_and_higher"],
)
def test_partial_split_is_the_split_of_every_partial(p):
    _assert_split_of_every_partial(p)


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_partial_split_is_the_split_of_every_partial_on_drawn_polynomials(case):
    _assert_split_of_every_partial(case[0])


@pytest.mark.parametrize(
    "p, built",
    [
        (MultilinearPolynomial.coordinate_sum(400), []),
        (poly(4, {(0, 1): 1.0, (2,): 1.0, (3,): 1.0}), [0, 1]),
    ],
    ids=["coordinate_sum", "one_product"],
)
def test_partial_split_builds_the_partials_of_higher_term_coordinates_only(
    partial_derivative_calls, p, built
):
    p._partial_split
    assert partial_derivative_calls == built


@pytest.mark.parametrize("mask", [0b01, 0b11], ids=["constant_partial", "linear_partial"])
def test_squared_gradient_norm_refuses_overflowing_coefficient_squares(mask):
    # (1e200)^2 overflows in the folded constant or in the evaluated partial
    with pytest.raises(InputError, match="overflow"):
        MultilinearPolynomial(2, {mask: 1e200}).squared_gradient_norm(np.ones((1, 2)))


def test_eval_many_derivative_reads_partials_without_refusing_overflowing_squares():
    # the derivative squares no coefficient, so only squared_gradient_norm refuses |p|_2 = inf
    p = MultilinearPolynomial(2, {0b11: 1e200})
    values = p.eval_many(np.ones((1, 2)))
    deriv = p._partial_sum(np.ones((1, 2)), None, np.array([[1.0, 0.0]]))
    assert (values.tolist(), deriv.tolist()) == ([1e200], [1e200])
    with pytest.raises(InputError, match="overflow"):
        p.squared_gradient_norm(np.ones((1, 2)))


def test_eval_many_validates_shapes():
    p = poly(3, {(0, 2): 1.0})
    with pytest.raises(InputError):
        p.eval_many(np.zeros((4, 2)))
    with pytest.raises(InputError):
        p.eval_many(np.zeros(3))


def test_gradient_matches_difference_oracle():
    for _, p in random_instances(101, 10, n_range=(2, 5)):
        for pt in [np.ones(p.n), -np.ones(p.n)]:
            np.testing.assert_allclose(_gradient(p, pt), brute_gradient(p, pt), atol=1e-12)


# ---------------------------------------------------------------------------
# restriction


def test_restrict_examples():
    p = poly(3, {(0, 1): 1.0, (2,): 1.0})
    assert p.restrict({0: 1}) == poly(3, {(1,): 1.0, (2,): 1.0})
    assert p.restrict({0: -1, 2: 1}) == poly(3, {(): 1.0, (1,): -1.0})
    assert p.restrict({}) == p
    q = poly(2, {(0, 1): 1.0, (1,): 1.0})
    assert q.restrict({0: -1}) == MultilinearPolynomial.zero(2)


def test_restrict_validates():
    p = poly(2, {(0,): 1.0})
    for assignment in ({5: 1}, {-1: 1}, {0.0: 1}, {0: 2}, {0: 0}, {1: 1, 0: -2}):
        with pytest.raises(InputError):
            p.restrict(assignment)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: p.restrict({True: -1}),
        lambda p: p.restrict({0: True}),
        lambda p: p.partial_derivative(True),
        lambda p: p.partial_derivative(False),
        lambda p: p.influence(True),
        lambda p: p.squared_gradient_norm(np.ones((2, 3)), [True]),
        lambda p: MultilinearPolynomial.from_vars(p.n, {(True,): 1.0}),
    ],
    ids=[
        "restrict_index", "restrict_value", "partial_true", "partial_false", "influence",
        "gradient", "from_vars",
    ],
)
def test_bool_coordinates_and_values_are_refused(call):
    with pytest.raises(InputError):
        call(MultilinearPolynomial.coordinate_sum(3))


def test_restrict_is_the_correctly_rounded_exact_sum():
    gen = np.random.default_rng(2024)
    for _, p in random_instances(103, 120, n_range=(2, 12), terms_range=(2, 14)):
        assignment = {i: int(gen.choice((-1, 1))) for i in range(p.n) if gen.random() < 0.6}
        fixed, negated = mask_from_indices(assignment), mask_from_indices(
            i for i, v in assignment.items() if v == -1
        )
        exact: dict[int, Fraction] = {}
        for mask, coeff in p.terms.items():
            sign = -1 if (mask & negated).bit_count() % 2 else 1
            key = mask & ~fixed
            exact[key] = exact.get(key, Fraction(0)) + sign * Fraction(coeff)
        assert p.restrict(assignment).terms == {k: float(v) for k, v in exact.items() if v}


def test_balanced_restrictions_of_the_scaled_sum_cancel_exactly():
    # one coordinate at a time, the running constant is rounded at each step
    # and can end at +-1.1e-16 instead of 0
    p = MultilinearPolynomial.coordinate_sum(12).scale(1.0 / math.sqrt(12))
    for plus in itertools.combinations(range(12), 6):
        assignment = {i: 1 if i in plus else -1 for i in range(12)}
        assert p.restrict(assignment) == MultilinearPolynomial.zero(12)


@settings(max_examples=60, deadline=None)
@given(polynomials(), st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
def test_restrict_commutes_on_disjoint_indices(p, s, t):
    if p.n < 2:
        return
    a = p.restrict({0: s, 1: t})
    assert p.restrict({1: t, 0: s}) == a
    chained = p.restrict({0: s}).restrict({1: t})
    for mask in a.terms.keys() | chained.terms.keys():
        assert a.terms.get(mask, 0.0) == pytest.approx(chained.terms.get(mask, 0.0), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(polynomials(), st.sampled_from([-1, 1]))
def test_restrict_consistent_with_substitution(p, s):
    restricted = p.restrict({0: s})
    for pt in iter_cube(p.n):
        substituted = (float(s),) + pt[1:]
        assert restricted.eval(np.array(pt)) == pytest.approx(
            p.eval(np.array(substituted)), abs=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_degree_never_increases(p):
    d = p.degree
    if p.n >= 1:
        assert p.restrict({0: 1}).degree <= d
        assert p.partial_derivative(0).degree <= max(0, d - 1) if p.degree else True


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_influence_conserved_under_restriction(p):
    if p.n < 2:
        return
    for j in range(1, p.n):
        avg = 0.5 * (p.restrict({0: 1}).influence(j) + p.restrict({0: -1}).influence(j))
        assert avg == pytest.approx(p.influence(j), abs=1e-11)


# ---------------------------------------------------------------------------
# moments and influences


def test_moments_examples():
    m = poly(2, {(0, 1): 1.0, (0,): 1.0}).moments()
    assert (m.mean, m.variance) == (0.0, 2.0)
    assert m.l2_norm == pytest.approx(math.sqrt(2.0))
    c = MultilinearPolynomial.constant(1, 3.0).moments()
    assert (c.mean, c.variance, c.l2_norm) == (3.0, 0.0, 3.0)


def test_moments_l2_identity():
    for _, p in random_instances(55, 8):
        m = p.moments()
        assert m.l2_norm**2 == pytest.approx(m.mean**2 + m.variance, rel=1e-12)


def test_l2_bridge_against_enumeration():
    for _, p in random_instances(56, 12, n_range=(2, 8)):
        assert p.moments().l2_norm**2 == pytest.approx(brute_second_moment(p), abs=1e-10)


def test_influence_examples():
    p = poly(2, {(0, 1): 1.0, (0,): 1.0})
    assert p.influence(0) == 2.0
    assert p.influence(1) == 1.0
    assert p.total_influence() == 3.0
    assert poly(1, {(0,): 1.0}).influence(0) == 1.0
    mom = p.moments()
    assert mom.variance <= p.total_influence() <= p.degree * mom.variance


def test_influence_flip_oracle():
    for _, p in random_instances(57, 12, n_range=(2, 7)):
        for i in range(p.n):
            assert p.influence(i) == pytest.approx(brute_influence(p, i), abs=1e-10)


def test_influence_equals_derivative_norm():
    for _, p in random_instances(58, 8):
        for i in range(p.n):
            d = p.partial_derivative(i).moments()
            assert p.influence(i) == pytest.approx(d.l2_norm**2, rel=1e-12, abs=1e-12)


def test_sandwich_on_random_instances():
    for _, p in random_instances(59, 30, d_max=4):
        mom = p.moments()
        total = p.total_influence()
        assert mom.variance <= total + 1e-9
        assert total <= p.degree * mom.variance + 1e-9


def test_max_influence_tie_breaks_low_index():
    p = poly(3, {(0,): 1.0, (1,): 1.0})
    assert p.max_influence() == (0, 1.0)


# ---------------------------------------------------------------------------
# regularity


def test_is_regular_examples():
    n = 5
    p = MultilinearPolynomial.coordinate_sum(n)
    assert p.is_regular(1.0 / n)
    assert not p.is_regular(1.0 / n - 1e-9)
    assert not poly(1, {(0,): 1.0}).is_regular(0.5)
    q = poly(2, {(0, 1): 1.0, (0,): 1.0})
    assert q.is_regular(1.0)
    assert not q.is_regular(0.9)


def test_is_regular_rejects_constants():
    with pytest.raises(InputError):
        MultilinearPolynomial.constant(2, 5.0).is_regular(0.5)
    with pytest.raises(InputError):
        poly(2, {(0,): 1.0}).is_regular(0.0)


# ---------------------------------------------------------------------------
# canonical form and construction


def test_canonicalization_drops_only_exact_zeros():
    p = MultilinearPolynomial(3, {0b001: 1e-16, 0b010: 5e-324, 0b100: 0.0, 0b011: -0.0, 0: 1.0})
    assert p.terms == {0: 1.0, 0b001: 1e-16, 0b010: 5e-324}
    assert p.degree == 1
    q = MultilinearPolynomial(2, {0b11: 1e-300})
    assert MultilinearPolynomial.from_json(q.to_json()).terms == {0b11: 1e-300}


def test_zero_polynomial_degree():
    assert MultilinearPolynomial.zero(4).degree == 0


def test_constructor_validations():
    with pytest.raises(InputError):
        MultilinearPolynomial(2, {0b100: 1.0})
    with pytest.raises(InputError):
        MultilinearPolynomial(2, {0b01: float("nan")})
    with pytest.raises(InputError):
        MultilinearPolynomial(-1, {})
    with pytest.raises(InputError):
        MultilinearPolynomial.from_vars(3, {(0, 0): 1.0})


@pytest.mark.parametrize(
    "n, terms",
    [(True, {1: 2.0}), (False, {}), (2, {True: 1.0}), (2, {False: 1.0})],
    ids=["n_true", "n_false", "key_true", "key_false"],
)
def test_constructor_refuses_bool_dimension_and_keys(n, terms):
    # a bool n would be written as "n": true, which from_json refuses
    with pytest.raises(InputError):
        MultilinearPolynomial(n, terms)


def test_add_and_sub_take_real_numbers_as_constants():
    p = poly(2, {(0, 1): 1.0, (0,): 0.5, (): -0.25})
    one = MultilinearPolynomial.constant(2, 1.0)
    assert p + 1.0 == p + one == 1.0 + p
    assert p - 1 == p - one
    assert 1.0 - p == one - p
    assert p + np.float64(2.0) == p + MultilinearPolynomial.constant(2, 2.0)
    assert p * 0.5 + 1.0 == p.scale(0.5) + one
    assert sum([p, p]) == p.scale(2.0)
    for other in ("x", None, object()):
        for op in (lambda: p + other, lambda: other + p, lambda: p - other, lambda: other - p):
            with pytest.raises(TypeError):
                op()


def test_multiply_uses_cube_semantics():
    # (x0 + 1) * (x0 - 1) = x0^2 - 1 = 0 on the cube
    a = poly(1, {(0,): 1.0, (): 1.0})
    b = poly(1, {(0,): 1.0, (): -1.0})
    assert a.multiply(b) == MultilinearPolynomial.zero(1)


def test_multiply_matches_product_on_cube_points():
    for _, p in random_instances(60, 6, n_range=(2, 5), terms_range=(2, 5)):
        q = p.partial_derivative(p.support[0]) + MultilinearPolynomial.constant(p.n, 0.5)
        product = p.multiply(q)
        for pt in iter_cube(p.n):
            x = np.array(pt)
            assert product.eval(x) == pytest.approx(p.eval(x) * q.eval(x), rel=1e-10, abs=1e-10)


def test_compress_support_preserves_moments():
    p = MultilinearPolynomial(10, {(1 << 3) | (1 << 7): 2.0, (1 << 7): -1.0})
    compressed, support = p.compress_support()
    assert support == (3, 7)
    assert compressed.n == 2
    assert compressed.moments() == p.moments()


def test_compress_support_onto_a_shared_support():
    p = MultilinearPolynomial(10, {(1 << 3) | (1 << 7): 2.0})
    q = MultilinearPolynomial(10, {(1 << 5): 1.0})
    compressed, support = p.compress_support((3, 5, 7))
    assert support == (3, 5, 7)
    assert compressed == MultilinearPolynomial(3, {0b101: 2.0})
    assert q.compress_support((3, 5, 7))[0] == MultilinearPolynomial(3, {0b010: 1.0})
    for bad in [(3,), (3, 7, 7)]:
        with pytest.raises(InputError):
            p.compress_support(bad)


# ---------------------------------------------------------------------------
# JSON wire format


def test_json_round_trip():
    p = poly(3, {(0, 2): 1.5, (): -2.0, (1,): 0.25})
    assert MultilinearPolynomial.from_json(p.to_json()) == p


def test_json_term_order_is_deterministic():
    p = poly(3, {(2,): 1.0, (0,): 2.0, (0, 1): 3.0})
    assert p.to_json() == MultilinearPolynomial.from_json(p.to_json()).to_json()


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 2, "terms": [{"vars": [0], "coeff": 1.0}, {"vars": [0], "coeff": 2.0}]},
        {"n": 2, "terms": [{"vars": [1, 0], "coeff": 1.0}]},
        {"n": 2, "terms": [{"vars": [0, 0], "coeff": 1.0}]},
        {"n": 2, "terms": [{"vars": [2], "coeff": 1.0}]},
        {"n": 2, "terms": [{"vars": [0], "coeff": float("inf")}]},
        {"n": 2, "terms": [{"vars": [0], "coeff": "x"}]},
        {"n": -1, "terms": []},
        {"n": 2, "terms": {"vars": []}},
        [1, 2, 3],
        {"n": 2, "terms": [{"vars": [0], "coeff": 10**400}]},  # beyond the float range
    ],
)
def test_json_loader_rejections(payload):
    with pytest.raises(InputError):
        MultilinearPolynomial.from_json_dict(payload)


def test_json_loader_rejects_bad_text():
    with pytest.raises(InputError):
        MultilinearPolynomial.from_json("{not json")


@pytest.mark.parametrize(
    "build",
    [
        lambda big: MultilinearPolynomial(1, {1: big}),
        lambda big: MultilinearPolynomial.from_vars(2, {(0, 1): big}),
        lambda big: MultilinearPolynomial(1, {1: 1.0}).scale(big),
    ],
    ids=["constructor", "from_vars", "scale"],
)
def test_integers_beyond_the_float_range_are_refused(build):
    for big in (10**400, -(10**400)):
        with pytest.raises(InputError, match="beyond the float range"):
            build(big)


def test_json_empty_vars_is_constant_term():
    p = MultilinearPolynomial.from_json(json.dumps({"n": 1, "terms": [{"vars": [], "coeff": 2.5}]}))
    assert p == MultilinearPolynomial.constant(1, 2.5)


# ---------------------------------------------------------------------------
# the enumeration budget


def test_enumeration_budget_boundary():
    assert ENUMERATION_BUDGET == 1 << 24
    check_enumeration("probe", 1 << 24)
    with pytest.raises(CapExceededError) as info:
        check_enumeration("probe", (1 << 24) + 1)
    message = str(info.value)
    assert "probe" in message
    assert str((1 << 24) + 1) in message
    assert str(1 << 24) in message


@pytest.mark.parametrize(
    "call, cost",
    [
        (lambda: MultilinearPolynomial.coordinate_sum(25).dense_coefficients(), 1 << 25),
        (lambda: truth_table(SignFunction(MultilinearPolynomial.coordinate_sum(25))), 1 << 25),
        (lambda: evaluate_on_hypercube(MultilinearPolynomial.coordinate_sum(25)), 1 << 25),
        (lambda: all_points(20), 20 << 20),
        (lambda: exact_alpha(MultilinearPolynomial.coordinate_sum(13)), 1 << 26),
        (lambda: small_alpha_check(MultilinearPolynomial.coordinate_sum(13)), 1 << 26),
        (
            lambda: weak_anticoncentration_exact(MultilinearPolynomial.coordinate_sum(25)),
            1 << 25,
        ),
        (
            lambda: hypercontractivity_check(MultilinearPolynomial.coordinate_sum(25), 4),
            1 << 25,
        ),
        (
            lambda: block_sensitivity_identity_check(
                SignFunction(MultilinearPolynomial.coordinate_sum(25)), block_partition(25, 3)
            ),
            1 << 25,
        ),
    ],
)
def test_every_exact_path_states_cost_and_budget(call, cost):
    with pytest.raises(CapExceededError) as info:
        call()
    assert str(cost) in str(info.value)
    assert str(ENUMERATION_BUDGET) in str(info.value)


def test_enumeration_limits_in_variables():
    # 2^n for one pass over the cube, n * 2^n for the point matrix, 4^n for pairs
    assert all_points(19).shape == (1 << 19, 19)
    assert exact_alpha(MultilinearPolynomial.coordinate_sum(12)) >= 0.0
