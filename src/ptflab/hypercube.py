"""Exact Boolean-function analytics by full enumeration.

Truth tables and spectra are indexed by point bitmask with the fixed
convention: bit ``i`` set means coordinate ``x_i = -1`` (so mask 0 is the
all-ones point).  Under this convention the vector of evaluations of a
multilinear polynomial over the whole cube is the Walsh-Hadamard transform
of its coefficient vector, and the transform of a truth table divided by
2^n gives the correlation coefficients E[f(A) * prod_{i in S} A_i].

Every function here enumerates the cube within the element budget
:data:`ptflab.polynomial.ENUMERATION_BUDGET`.  A :class:`SignFunction` is
the one exact view of f = sgn p: its +-1 table, spectrum and level weights,
each built once from p alone and cached read-only; every exact quantity of
f reads them.  A quantity of p's own cube values (a moment, a share of
large values) takes the polynomial and enumerates it itself.

Both 2^n-point transforms, evaluation and spectrum, are one in-place kernel
(:func:`fwht` runs it on a copy): a pass of 32 x 32 Hadamard matrix products
per 5-bit digit of the index, through one scratch panel of the memory batch.
It is exact on +-1 tables, so spectra do not depend on its summation order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InputError
from .polynomial import _BATCH_ELEMENTS, MultilinearPolynomial, check_enumeration


@dataclass(frozen=True)
class SignFunction:
    """A polynomial threshold function f(x) = sgn(p(x)) with sgn(0) = +1.

    Holds three read-only arrays, each built on first use and cached:
    :func:`truth_table` (int8 +-1 by point mask), :func:`fourier` (float64
    by subset mask) and :attr:`level_weights` (W_0..W_n).  p's float values
    over the cube are not kept.
    """

    source: MultilinearPolynomial

    @property
    def n(self) -> int:
        return self.source.n

    @cached_property
    def _table(self) -> np.ndarray:
        signs = np.where(evaluate_on_hypercube(self.source) >= 0.0, np.int8(1), np.int8(-1))
        signs.flags.writeable = False
        return signs

    @cached_property
    def _spectrum(self) -> np.ndarray:
        coeffs = fwht(truth_table(self))  # its float64 copy of the table is the spectrum
        coeffs /= float(1 << self.n)
        coeffs.flags.writeable = False
        return coeffs

    @cached_property
    def level_weights(self) -> np.ndarray:
        """W_k = sum of coeff(S)^2 over the sets S of size k, for k = 0..n."""
        # blocks of 2^16 aligned masks: |S| = popcount(block start) + popcount(offset)
        coefficients = fourier(self)  # by name, so the benchmark tracer counts the call
        block = min(1 << self.n, 1 << 16)
        low_sizes = np.bitwise_count(np.arange(block, dtype=np.uint32))
        weights = np.zeros(self.n + 1)
        for start in range(0, 1 << self.n, block):
            chunk = coefficients[start : start + block]
            counts = np.bincount(low_sizes, weights=chunk * chunk)
            high = start.bit_count()
            weights[high : high + counts.size] += counts
        weights.flags.writeable = False
        return weights


# bits per digit of the index: one pass applies the 32 x 32 Hadamard matrix
_DIGIT_BITS = 5


@functools.cache
def _hadamard(r: int) -> np.ndarray:
    """The 2^r x 2^r Sylvester-Hadamard matrix, (-1)^popcount(a & b), read-only."""
    index = np.arange(1 << r)
    h = 1.0 - 2.0 * (np.bitwise_count(index[:, None] & index[None, :]) & 1)
    h.flags.writeable = False
    return h


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform (Hadamard ordering).

    Returns y with y[a] = sum_b x[b] * (-1)^popcount(a & b); applying it
    twice multiplies by the length.  The index is cut into 5-bit digits
    (the highest one may be shorter), and H_{2^n} is the Kronecker product
    of one Sylvester-Hadamard matrix H_{2^r} per digit, so each digit is
    one pass of dense matrix products: the digit is the middle axis of an
    ``(A, 2^r, 2^low)`` view and the pass is ``H @ view`` (``rows @ H``
    for the lowest digit); n = 22 takes 5 passes.  The passes run in place
    on one float64 copy of the input (:func:`_transform`), so the input is
    left untouched.

    On integer-valued input whose absolute values sum below 2^53, such as
    a +-1 table, every partial sum is an integer that a float64 holds, so
    the result is exact whatever the summation order.  Otherwise each
    output is rounded like any sum of 2^n signed terms in which a term
    passes through at most sum_d (2^{r_d} - 1) additions.
    """
    return _transform(np.array(values, dtype=np.float64, copy=True))


def _transform(a: np.ndarray) -> np.ndarray:
    """:func:`fwht` of the float64 vector ``a``, in place through one scratch panel."""
    size = a.size
    if a.ndim != 1 or size & (size - 1):
        raise InputError(f"transform needs a vector of power-of-two length, got shape {a.shape}")
    n = size.bit_length() - 1
    scratch = np.empty(min(size, _BATCH_ELEMENTS))
    for low in range(0, n, _DIGIT_BITS):
        r = min(_DIGIT_BITS, n - low)
        h = _hadamard(r)
        if low == 0:
            rows = a.reshape(-1, 1 << r)
            step = _BATCH_ELEMENTS >> r
            for i in range(0, rows.shape[0], step):
                panel = rows[i : i + step]
                out = scratch[: panel.size].reshape(panel.shape)
                np.matmul(panel, h, out=out)
                panel[...] = out
            continue
        blocks = a.reshape(-1, 1 << r, 1 << low)
        step = max(1, _BATCH_ELEMENTS >> (r + low))  # whole blocks per panel
        width = min(1 << low, _BATCH_ELEMENTS >> r)  # or columns of one block
        for i in range(0, blocks.shape[0], step):
            for j in range(0, 1 << low, width):
                panel = blocks[i : i + step, :, j : j + width]
                out = scratch[: panel.size].reshape(panel.shape)
                np.matmul(h, panel, out=out)
                panel[...] = out
    return a


def all_points(n: int) -> np.ndarray:
    """The full (2^n, n) matrix of hypercube points in mask order."""
    check_enumeration(f"the point matrix of n={n}", n << n)
    masks = np.arange(1 << n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
    return 1.0 - 2.0 * bits


def evaluate_on_hypercube(p: MultilinearPolynomial) -> np.ndarray:
    """p evaluated at every point, in mask order: its dense coefficients transformed in place."""
    return _transform(p.dense_coefficients())


def truth_table(f: SignFunction) -> np.ndarray:
    """The +-1 table of f by point mask, built on first use and cached on f."""
    return f._table


def fourier(f: SignFunction) -> np.ndarray:
    """The spectrum of f by subset mask, built on first use and cached on f.

    Satisfies Parseval: its squares sum to 1.
    """
    return f._spectrum


def _table_average_sensitivity(values: np.ndarray, n: int) -> float:
    """Mean sensitivity of the length-2^n tables along the last axis of ``values``."""
    # each edge along coordinate i joins the two halves of one reshaped pair
    edges = 0
    for i in range(n):
        pairs = values.reshape(*values.shape[:-1], -1, 2, 1 << i)
        edges += int(np.count_nonzero(pairs[..., 0, :] != pairs[..., 1, :]))
    return 2 * edges / values.size


def average_sensitivity_exact(f: SignFunction) -> float:
    """Expected number of pivotal coordinates, by edge enumeration."""
    return _table_average_sensitivity(truth_table(f), f.n)


def average_sensitivity_fourier(f: SignFunction) -> float:
    """Second path for the same quantity: sum over S of |S| * coeff(S)^2."""
    return float(np.dot(np.arange(f.n + 1, dtype=np.float64), f.level_weights))


def noise_sensitivity_exact(f: SignFunction, delta: float) -> float:
    """Pr[f(A) != f(A~)] where A~ flips each coordinate with probability delta.

    Computed through the spectrum: 1/2 - 1/2 * sum_k W_k (1-2 delta)^k, with
    W_k the spectral weight at level k.
    """
    if not 0.0 <= delta <= 0.5:
        raise InputError(f"noise rate must lie in [0, 1/2], got {delta}")
    weights = f.level_weights
    rho = 1.0 - 2.0 * delta
    return float(0.5 - 0.5 * np.dot(weights, rho ** np.arange(f.n + 1, dtype=np.float64)))


def gl_bound(n: int, d: int) -> float:
    """Gotsman-Linial conjectured average-sensitivity bound, verbatim.

    2^{-n+1} * sum_{k=0}^{d-1} C(n, floor((n-k)/2)) * (n - floor((n-k)/2)),
    evaluated in exact rational arithmetic and returned as a float.  The
    formula is reproduced as printed; no parity correction is attempted.
    """
    if not isinstance(n, int) or not isinstance(d, int):
        raise InputError("gl_bound expects integer arguments")
    if n <= 1:
        raise InputError(f"the bound is stated for n > 1, got n={n}")
    if d < 1:
        raise InputError(f"degree must be at least 1, got d={d}")
    total = 0
    for k in range(d):
        half = (n - k) // 2
        total += math.comb(n, half) * (n - half)
    return float(Fraction(total, 1 << (n - 1)))


def middle_layers_witness(n: int, d: int) -> MultilinearPolynomial:
    """Product of linear forms slicing the middle ``d`` layers of the cube.

    Thresholds are theta_j = 2j - (d-1) + sigma for j = 0..d-1, with
    sigma in {0, 1} minimal so that every theta_j has parity opposite to n;
    then no vertex lies on any hyperplane sum(x) = theta_j.  The product is
    expanded with x_i^2 = 1, so the result is the canonical multilinear
    representative, equal to the real product on every hypercube point.
    """
    if not isinstance(n, int) or not isinstance(d, int) or n < 1 or d < 1:
        raise InputError("middle_layers_witness expects positive integers")
    if d > n:
        raise InputError(f"need d <= n, got d={d} > n={n}")
    sigma = 0 if (n + d) % 2 == 0 else 1
    linear = MultilinearPolynomial.coordinate_sum(n)
    out = MultilinearPolynomial.constant(n, 1.0)
    for j in range(d):
        theta = 2 * j - (d - 1) + sigma
        out = out.multiply(linear + MultilinearPolynomial.constant(n, -float(theta)))
    return out


def gl_report_row(n: int, d: int) -> dict:
    """One witness-versus-bound comparison row.

    Keys: n, d, as_exact (sensitivity of the middle-layers witness),
    gl_bound, ratio, and witness_flag (True when the witness meets the
    bound to within 1e-9).
    """
    value = average_sensitivity_exact(SignFunction(middle_layers_witness(n, d)))
    bound = gl_bound(n, d)
    return {
        "n": n,
        "d": d,
        "as_exact": value,
        "gl_bound": bound,
        "ratio": value / bound,
        "witness_flag": abs(value - bound) <= 1e-9,
    }


def theorem_log_bound(n: float, d: int, c_log: float = 1.0, c_exp: float = 1.0) -> float:
    """Natural log of :func:`theorem_bound`, finite where the bound overflows.

    The constants must be finite and non-negative.
    """
    if not n > 1:
        raise InputError(f"need n > 1, got n={n}")
    if not isinstance(d, int) or d < 1:
        raise InputError(f"degree must be a positive integer, got d={d}")
    if not (0 <= c_log < math.inf and 0 <= c_exp < math.inf):
        raise InputError(f"constants must be non-negative and finite, got {c_log}, {c_exp}")
    log_d, ln_n = max(1.0, math.log(d)), math.log(n)
    return 0.5 * ln_n + d * log_d * (c_log * math.log(ln_n) + c_exp * d * math.log(2.0))


def theorem_bound(n: float, d: int, c_log: float = 1.0, c_exp: float = 1.0) -> float:
    """Parameterized bound template sqrt(n) * (ln n)^{c_log d ln d} * 2^{c_exp d^2 ln d}.

    The asymptotic constants are user parameters, so the value is a
    comparison envelope rather than a literature claim.  Convention: natural
    logs, and the ln(d) factor in both exponents is replaced by
    max(1, ln d) so the degree factors never vanish (in particular d = 1
    contributes exponent c_log resp. c_exp, not 0).  Computed from
    :func:`theorem_log_bound`; ``math.inf`` when the value exceeds a float.
    """
    try:
        return math.exp(theorem_log_bound(n, d, c_log, c_exp))
    except OverflowError:
        return math.inf
