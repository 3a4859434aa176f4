"""Shared brute-force oracles, kept independent of the library's fast paths.

Everything here enumerates with plain Python loops and single-point
``eval`` calls: no Walsh-Hadamard transform, no batched evaluation, no
stored partial derivatives.  Tests compare these against the production
implementations.
"""

import itertools
import math

import numpy as np
import pytest

from ptflab import MultilinearPolynomial, Rng, random_polynomial, sign_pm1


def iter_cube(n):
    return itertools.product((-1.0, 1.0), repeat=n)


def brute_values(p):
    """Map from point tuple to value via single-point evaluation."""
    return {pt: p.eval(np.array(pt)) for pt in iter_cube(p.n)}


def brute_second_moment(p):
    vals = brute_values(p)
    return sum(v * v for v in vals.values()) / len(vals)


def brute_gradient(p, point):
    """Central difference in each coordinate; exact for multilinear p."""
    grad = []
    for i in range(p.n):
        hi = np.array(point, dtype=float)
        lo = np.array(point, dtype=float)
        hi[i] = 1.0
        lo[i] = -1.0
        grad.append((p.eval(hi) - p.eval(lo)) / 2.0)
    return np.array(grad)


def brute_partial(p, i):
    """d_i p by its definition: every term that contains x_i, with x_i taken out."""
    return MultilinearPolynomial(p.n, {m ^ (1 << i): c for m, c in p.terms.items() if m & 1 << i})


def brute_influence(p, i):
    """Quarter of the mean squared change when coordinate i is negated."""
    total = 0.0
    for pt in iter_cube(p.n):
        flipped = list(pt)
        flipped[i] = -flipped[i]
        diff = p.eval(np.array(pt)) - p.eval(np.array(flipped))
        total += diff * diff
    return total / (4 * 2**p.n)


def brute_average_sensitivity(p):
    """Expected number of sign-pivotal coordinates of sgn(p)."""
    total = 0
    for pt in iter_cube(p.n):
        s = sign_pm1(p.eval(np.array(pt)))
        for i in range(p.n):
            flipped = list(pt)
            flipped[i] = -flipped[i]
            if sign_pm1(p.eval(np.array(flipped))) != s:
                total += 1
    return total / 2**p.n


def brute_alpha(p):
    """Double enumeration of the clamped ratio with the zero-value rule.

    When p(A) = 0 the integrand is 1 if the gradient of p at A is nonzero
    and 0 otherwise.
    """
    total = 0.0
    count = 0
    for a in iter_cube(p.n):
        value = p.eval(np.array(a))
        grad = brute_gradient(p, a)
        for b in iter_cube(p.n):
            deriv = float(np.dot(np.array(b), grad))
            if value == 0.0:
                total += 1.0 if np.any(grad != 0.0) else 0.0
            else:
                total += min(1.0, (deriv / value) ** 2)
            count += 1
    return total / count


def random_instances(seed, count, n_range=(2, 10), d_max=3, terms_range=(2, 12)):
    """Deterministic stream of random nonconstant instances for sweeps."""
    rng = Rng(seed)
    for k in range(count):
        inst = rng.child(k)
        gen = inst.generator()
        n = int(gen.integers(n_range[0], n_range[1] + 1))
        d = int(gen.integers(1, min(d_max, n) + 1))
        total = sum(math.comb(n, j) for j in range(d + 1))
        lo = min(terms_range[0], total)
        hi = min(terms_range[1], total)
        t = max(int(gen.integers(lo, hi + 1)), min(2, total))
        yield k, random_polynomial(n, d, t, inst.child(1))


def poly(n, mapping):
    """Shorthand: poly(2, {(0, 1): 1.0, (0,): 1.0}) builds x0*x1 + x0."""
    return MultilinearPolynomial.from_vars(n, mapping)


@pytest.fixture()
def partial_derivative_calls(monkeypatch):
    """The coordinate of every ``MultilinearPolynomial.partial_derivative`` call, in call order."""
    calls = []
    original = MultilinearPolynomial.partial_derivative

    def counting(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(MultilinearPolynomial, "partial_derivative", counting)
    return calls
