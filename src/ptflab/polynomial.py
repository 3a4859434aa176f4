"""Sparse multilinear polynomials over {-1,+1}^n and R^n.

A polynomial is stored as a map from subset bitmasks to real coefficients
(bit ``i`` set means variable ``i`` occurs in the monomial).  Keys are
plain Python integers, so the representation itself scales to the sampling
regime (hundreds of variables); only the full-enumeration paths are limited,
all by the one element budget ``ENUMERATION_BUDGET``.  Canonical form drops
a term only when its coefficient is exactly zero, so every result depends on
the polynomial only up to scale; all operations return new canonical
polynomials, so instances are safe to share between workers.  This module
owns the scale rule: a scale-free quantity is computed on the unit form
(:func:`_unit`), exactly p times the power of two that puts its largest
|coefficient| in [1, 2), so it is the same at any finite scale of p.

Points are plain numpy vectors: a ``RealPoint`` is any finite length-n float
vector, a ``HypercubePoint`` additionally has every entry equal to +-1.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CapExceededError, InputError

MAX_VARIABLES = 4096
ENUMERATION_BUDGET = 1 << 24
# 2 MiB of float64, one core's L2: the memory batch of the Monte Carlo
# kernels, whose elementwise passes are memory-bound, and the scratch panel
# of the Walsh-Hadamard transform
_BATCH_ELEMENTS = 1 << 18
# float64 rows eval_many holds besides its inputs: value, derivative, one
# term's running product and derivative, and a scratch row
KERNEL_ROWS = 5

RealPoint = np.ndarray
HypercubePoint = np.ndarray


def sign_pm1(value: float) -> int:
    """Sign with the fixed convention sgn(0) = +1."""
    return 1 if value >= 0 else -1


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _as_float(value, what: str) -> float:
    """``float(value)``, with an integer beyond the float range refused as bad input."""
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{what} is beyond the float range") from None


def mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def check_enumeration(operation: str, cost: int) -> None:
    """Refuse an exact path whose ``cost`` in elements (2^n, n 2^n or 4^n) is over budget."""
    if cost > ENUMERATION_BUDGET:
        raise CapExceededError(
            f"{operation} needs {cost} elements, over the enumeration budget of"
            f" {ENUMERATION_BUDGET}"
        )


def _as_point(x, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise InputError(f"point must be a length-{n} vector, got shape {arr.shape}")
    return arr


# ----------------------------------------------------------------------
# the scale rule


def _exponent(p: "MultilinearPolynomial") -> int:
    """The e with 2^e <= max |coefficient of p| < 2^(e+1); 0 for the zero polynomial."""
    return math.frexp(max(map(abs, p.terms.values()), default=1.0))[1] - 1


def _ldexp(p: "MultilinearPolynomial", e: int) -> "MultilinearPolynomial":
    """p times 2^e, exactly while no coefficient leaves the normal range; p itself when e is 0."""
    if e == 0:
        return p
    return MultilinearPolynomial(p.n, {m: math.ldexp(c, e) for m, c in p.terms.items()})


def _unit(p: "MultilinearPolynomial") -> "MultilinearPolynomial":
    """The unit form of p: p times 2^-e (:func:`_exponent`), exactly, so its largest
    |coefficient| lies in [1, 2).  A coefficient more than about 2^1074 below the
    largest underflows and drops: no +-1 value of p resolves it."""
    return _ldexp(p, -_exponent(p))


@dataclass(frozen=True)
class Moments:
    """Mean, variance and L2 norm of a polynomial under uniform +-1 inputs.

    By orthonormality of the monomial basis these equal the Gaussian-input
    moments as well: mean is the constant coefficient, the second moment is
    the coefficient sum of squares.
    """

    mean: float
    variance: float
    l2_norm: float


@dataclass(frozen=True)
class MultilinearPolynomial:
    """Immutable sparse multilinear polynomial on ``n`` variables."""

    n: int
    terms: Mapping[int, float]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise InputError(f"variable count must be a non-negative integer, got {self.n!r}")
        if self.n > MAX_VARIABLES:
            raise InputError(f"at most {MAX_VARIABLES} variables supported, got n={self.n}")
        checked: dict[int, float] = {}
        for mask, coeff in self.terms.items():
            if not isinstance(mask, int) or mask < 0:
                raise InputError(f"term key must be a non-negative bitmask, got {mask!r}")
            if mask >> self.n:
                raise InputError(f"term {bin(mask)} references variables >= n={self.n}")
            c = _as_float(coeff, f"coefficient for term {bin(mask)}")
            if not math.isfinite(c):
                raise InputError(f"coefficient for term {bin(mask)} is not finite: {coeff!r}")
            if c == 0.0:
                continue
            checked[mask] = c
        # mask-sorted storage makes every term iteration, and hence all
        # floating-point summation orders, a function of the canonical form
        object.__setattr__(self, "terms", dict(sorted(checked.items())))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, n: int) -> "MultilinearPolynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, value: float) -> "MultilinearPolynomial":
        return cls(n, {0: value})

    @classmethod
    def from_vars(cls, n: int, terms: Mapping[tuple[int, ...], float]) -> "MultilinearPolynomial":
        """Build from ``{(i, j, ...): coeff}`` with variable-index tuples as keys."""
        out: dict[int, float] = {}
        for indices, coeff in terms.items():
            if len(set(indices)) != len(indices):
                raise InputError(f"repeated variable in term {indices}")
            for i in indices:
                if isinstance(i, bool) or not 0 <= i < n:
                    raise InputError(f"variable index {i} out of range for n={n}")
            mask = mask_from_indices(indices)
            if mask in out:
                raise InputError(f"duplicate term {tuple(sorted(indices))}")
            out[mask] = coeff
        return cls(n, out)

    @classmethod
    def coordinate_sum(cls, n: int) -> "MultilinearPolynomial":
        """The linear form x_0 + x_1 + ... + x_{n-1}."""
        return cls(n, {1 << i: 1.0 for i in range(n)})

    # ------------------------------------------------------------------
    # structure

    @property
    def degree(self) -> int:
        """Largest monomial size; 0 for the empty polynomial (eval == 0)."""
        return max((mask.bit_count() for mask in self.terms), default=0)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @property
    def support_mask(self) -> int:
        out = 0
        for mask in self.terms:
            out |= mask
        return out

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of variables that actually occur in some term."""
        return tuple(iter_bits(self.support_mask))

    def compress_support(
        self, support: Sequence[int] | None = None
    ) -> tuple["MultilinearPolynomial", tuple[int, ...]]:
        """Re-index onto the support variables only.

        Returns the compressed polynomial on ``k = len(support)`` variables
        together with the original indices, position ``j`` holding the old
        index of new variable ``j``.  Distributional quantities (moments,
        sign probabilities, sensitivities) are unchanged because dropped
        coordinates never occur in any term.  A given ``support`` (distinct
        indices covering :attr:`support`) re-indexes onto those variables
        instead, so that several polynomials share one index space.
        """
        support = self.support if support is None else tuple(support)
        position = {old: new for new, old in enumerate(support)}
        if len(position) != len(support) or self.support_mask & ~mask_from_indices(support):
            raise InputError(f"{support} are not distinct indices covering {self.support}")
        new_terms = {
            mask_from_indices(position[i] for i in iter_bits(mask)): coeff
            for mask, coeff in self.terms.items()
        }
        return MultilinearPolynomial(len(support), new_terms), support

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, x: RealPoint) -> float:
        """Evaluate at a real point: sum over terms of coeff * prod of coords."""
        arr = _as_point(x, self.n)
        total = 0.0
        for mask, coeff in self.terms.items():
            prod = coeff
            for i in iter_bits(mask):
                prod *= arr[i]
            total += prod
        return total

    @cached_property
    def _kernel(self) -> tuple[float, np.ndarray | None, tuple[tuple[float, tuple[int, ...]], ...]]:
        """What :meth:`eval_many` runs: the constant, the dense linear
        coefficients (None without linear terms: the matrix-vector product
        would run BLAS threads for zeros) and the (coefficient, variables)
        of each higher term."""
        linear = np.zeros(self.n)
        higher = []
        for mask, coeff in self.terms.items():
            if mask & (mask - 1):
                higher.append((coeff, tuple(iter_bits(mask))))
            elif mask:
                linear[mask.bit_length() - 1] = coeff
        linear.flags.writeable = False
        return self.terms.get(0, 0.0), linear if linear.any() else None, tuple(higher)

    def eval_many(
        self, points: np.ndarray, directions: np.ndarray | None = None
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Evaluate on the rows of an ``(m, n)`` matrix of points.

        With ``directions``, a matrix of the same shape, returns the pair
        ``(p(x), D_v p(x))`` row by row from one forward-mode pass: along
        each term the running product P and its derivative D advance as
        ``D <- D x_j + P v_j`` and ``P <- P x_j``.  The linear part is one
        matrix-vector product.  Columns are read one at a time, so the
        ``.T`` view of a C-order ``(n, m)`` array reads contiguous memory.
        """
        pts = self._rows(points)
        constant, linear, higher = self._kernel
        values = np.zeros(pts.shape[0]) if linear is None else pts @ linear
        values += constant
        if directions is None:
            for coeff, idx in higher:
                prod = pts[:, idx[0]] * coeff
                for j in idx[1:]:
                    prod *= pts[:, j]
                values += prod
            return values
        dirs = np.asarray(directions, dtype=np.float64)
        if dirs.shape != pts.shape:
            raise InputError(f"directions of shape {dirs.shape} for points of shape {pts.shape}")
        deriv = np.zeros(pts.shape[0]) if linear is None else dirs @ linear
        scratch = np.empty(pts.shape[0])
        for coeff, idx in higher:
            prod = pts[:, idx[0]] * coeff
            part = dirs[:, idx[0]] * coeff
            for j in idx[1:]:
                part *= pts[:, j]
                part += np.multiply(prod, dirs[:, j], out=scratch)
                prod *= pts[:, j]
            values += prod
            deriv += part
        return values, deriv

    @cached_property
    def partials(self) -> tuple["MultilinearPolynomial", ...]:
        """The n partial derivatives, built once with :meth:`partial_derivative`.

        Refused with ``InputError`` when the coefficient squares of p overflow
        (:meth:`moments`), so no squared partial coefficient does.
        """
        self.moments()
        return tuple(self.partial_derivative(i) for i in range(self.n))

    def squared_gradient_norm(
        self, points: np.ndarray, coords: Iterable[int] | None = None
    ) -> np.ndarray:
        """|grad p(x)|^2 over ``coords`` (default all) on the rows of an ``(m, n)`` matrix.

        Each non-constant partial in :attr:`partials` runs through
        :meth:`eval_many`; the constant ones fold into one scalar, so the
        linear part of p costs nothing per row.
        """
        pts = self._rows(points)
        if coords is None:
            parts = self.partials
        else:
            coords = list(coords)
            for i in coords:
                self._check_index(i)
            parts = [self.partials[i] for i in coords]
        folded = sum(part.terms.get(0, 0.0) ** 2 for part in parts if part.degree == 0)
        out = np.full(pts.shape[0], float(folded))
        for part in parts:
            if part.degree:
                values = part.eval_many(pts)
                out += np.square(values, out=values)
        return out

    # ------------------------------------------------------------------
    # calculus and restriction

    def partial_derivative(self, i: int) -> "MultilinearPolynomial":
        self._check_index(i)
        bit = 1 << i
        return MultilinearPolynomial(
            self.n, {mask ^ bit: coeff for mask, coeff in self.terms.items() if mask & bit}
        )

    def restrict(self, assignment: Mapping[int, int]) -> "MultilinearPolynomial":
        """Fix each coordinate ``i`` of ``assignment`` to its value in {-1, +1}.

        The result lives on the same index space but mentions no fixed
        coordinate.  Each coefficient is the correctly rounded exact sum of
        the signed coefficients that fold into it, so one whose exact value
        is 0 comes out 0 at any scale and sgn(0) = +1 labels it; fixing one
        coordinate at a time would round at every step and can leave a
        residue such as -1.1e-16 instead.
        """
        fixed = negated = 0
        for i, value in assignment.items():
            self._check_index(i)
            if isinstance(value, bool) or value not in (-1, 1):
                raise InputError(f"restriction value must be -1 or +1, got {value!r}")
            fixed |= 1 << i
            if value == -1:
                negated |= 1 << i
        groups: dict[int, list[float]] = {}
        for mask, coeff in self.terms.items():
            addend = -coeff if (mask & negated).bit_count() & 1 else coeff
            groups.setdefault(mask & ~fixed, []).append(addend)
        try:
            terms = {k: math.fsum(a) for k, a in groups.items()}
        except OverflowError:  # fsum's, for a sum beyond the float range
            raise InputError("a restricted coefficient is not finite: its sum overflows") from None
        return MultilinearPolynomial(self.n, terms)

    # ------------------------------------------------------------------
    # moments, influences, regularity

    def moments(self) -> Moments:
        """The :class:`Moments` of p, refused when its coefficient squares overflow.

        A finite |p|_2 bounds the variance, every influence and every squared coefficient.
        """
        mean = self.terms.get(0, 0.0)
        variance = sum(c * c for mask, c in self.terms.items() if mask != 0)
        l2_norm = math.sqrt(mean * mean + variance)
        if not math.isfinite(l2_norm):
            raise InputError("the coefficient squares overflow: |p|_2 is infinite")
        return Moments(mean=mean, variance=variance, l2_norm=l2_norm)

    def influence(self, i: int) -> float:
        """Squared L2 norm of the i-th partial derivative."""
        self._check_index(i)
        bit = 1 << i
        return sum(c * c for mask, c in self.terms.items() if mask & bit)

    def influences(self) -> np.ndarray:
        out = np.zeros(self.n)
        for mask, coeff in self.terms.items():
            sq = coeff * coeff
            for i in iter_bits(mask):
                out[i] += sq
        return out

    def total_influence(self) -> float:
        return float(self.influences().sum())

    def max_influence(self) -> tuple[int, float]:
        """Most influential coordinate, lowest index winning ties, and its influence.

        The coordinate is chosen on the unit form (:func:`_unit`), so it is the
        same at any finite scale of p; the influence is in p's units.
        """
        if self.n == 0:
            raise InputError("polynomial has no coordinates")
        idx = int(np.argmax(_unit(self).influences()))
        return idx, self.influence(idx)

    def is_regular(self, tau: float) -> bool:
        """True iff every influence is at most tau times the variance.

        Compared on the unit form (:func:`_unit`), so the answer is the same
        at any finite scale of p.  Undefined for constant polynomials (zero
        variance): callers must handle constants separately.
        """
        if tau <= 0:
            raise InputError(f"tau must be positive, got {tau}")
        unit = _unit(self)
        variance = unit.moments().variance
        if variance == 0.0:
            raise InputError("regularity is undefined for a constant polynomial (zero variance)")
        return float(unit.influences().max()) <= tau * variance

    # ------------------------------------------------------------------
    # algebra

    def scale(self, c: float) -> "MultilinearPolynomial":
        c = _as_float(c, "scale factor")
        return MultilinearPolynomial(self.n, {m: c * v for m, v in self.terms.items()})

    def __add__(self, other):
        """Sum with a polynomial on the same variables, or with a real number as a constant."""
        if isinstance(other, numbers.Real):
            other = MultilinearPolynomial.constant(self.n, other)
        elif not isinstance(other, MultilinearPolynomial):
            return NotImplemented
        self._check_same_space(other)
        out = dict(self.terms)
        for mask, coeff in other.terms.items():
            out[mask] = out.get(mask, 0.0) + coeff
        return MultilinearPolynomial(self.n, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (MultilinearPolynomial, numbers.Real)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if not isinstance(other, numbers.Real):
            return NotImplemented
        return -self + other

    def __neg__(self) -> "MultilinearPolynomial":
        return self.scale(-1.0)

    def multiply(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        """Product inside the function algebra on {-1,+1}^n.

        Uses x_i^2 = 1, i.e. monomial masks combine by XOR, so the result
        agrees with the real product on hypercube points (not on general
        real inputs).
        """
        self._check_same_space(other)
        out: dict[int, float] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = m1 ^ m2
                out[key] = out.get(key, 0.0) + c1 * c2
        return MultilinearPolynomial(self.n, out)

    def __mul__(self, other):
        if isinstance(other, MultilinearPolynomial):
            return self.multiply(other)
        return self.scale(other)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # dense view for enumeration paths

    def dense_coefficients(self) -> np.ndarray:
        """Length-2^n coefficient vector indexed by subset bitmask."""
        check_enumeration(f"the dense coefficient vector of n={self.n}", 1 << self.n)
        out = np.zeros(1 << self.n)
        for mask, coeff in self.terms.items():
            out[mask] = coeff
        return out

    # ------------------------------------------------------------------
    # JSON wire format

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"vars": list(iter_bits(mask)), "coeff": self.terms[mask]}
                for mask in sorted(self.terms)
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data) -> "MultilinearPolynomial":
        """Parse the wire format, rejecting anything non-canonical.

        Rejects duplicate subsets, unsorted or repeated indices inside a
        term, indices >= n, and non-finite coefficients.
        """
        if not isinstance(data, dict):
            raise InputError("polynomial JSON must be an object")
        n = data.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InputError(f"polynomial JSON field 'n' must be a non-negative integer, got {n!r}")
        raw_terms = data.get("terms")
        if not isinstance(raw_terms, list):
            raise InputError("polynomial JSON field 'terms' must be a list")
        seen: dict[int, float] = {}
        for k, item in enumerate(raw_terms):
            if not isinstance(item, dict) or set(item) != {"vars", "coeff"}:
                raise InputError(f"term {k} must be an object with keys 'vars' and 'coeff'")
            variables = item["vars"]
            if not isinstance(variables, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in variables
            ):
                raise InputError(f"term {k}: 'vars' must be a list of integers")
            if variables != sorted(variables):
                raise InputError(f"term {k}: variable indices must be sorted, got {variables}")
            if len(set(variables)) != len(variables):
                raise InputError(f"term {k}: repeated variable index in {variables}")
            if variables and (variables[0] < 0 or variables[-1] >= n):
                raise InputError(f"term {k}: variable index out of range for n={n}: {variables}")
            coeff = item["coeff"]
            if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
                raise InputError(f"term {k}: coefficient must be a number, got {coeff!r}")
            value = _as_float(coeff, f"term {k}: coefficient")
            if not math.isfinite(value):
                raise InputError(f"term {k}: coefficient must be finite, got {coeff!r}")
            mask = mask_from_indices(variables)
            if mask in seen:
                raise InputError(f"term {k}: duplicate subset {variables}")
            seen[mask] = value
        return cls(n, seen)

    @classmethod
    def from_json(cls, text: str) -> "MultilinearPolynomial":
        try:
            data = json.loads(text)
        except ValueError as e:  # a syntax error, or an integer literal past the digit limit
            raise InputError(f"invalid polynomial JSON: {e}") from e
        return cls.from_json_dict(data)

    # ------------------------------------------------------------------

    def _rows(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise InputError(f"expected an (m, {self.n}) matrix, got shape {pts.shape}")
        return pts

    def _check_index(self, i: int) -> None:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.n:
            raise InputError(f"coordinate index {i!r} is not an integer in [0, {self.n})")

    def _check_same_space(self, other: "MultilinearPolynomial") -> None:
        if self.n != other.n:
            raise InputError(f"dimension mismatch: n={self.n} vs n={other.n}")

    def __repr__(self) -> str:
        if not self.terms:
            return f"MultilinearPolynomial(n={self.n}, 0)"
        parts = []
        for mask in sorted(self.terms):
            name = "1" if mask == 0 else "*".join(f"x{i}" for i in iter_bits(mask))
            parts.append(f"{self.terms[mask]:+g}*{name}")
        return f"MultilinearPolynomial(n={self.n}, {' '.join(parts)})"
