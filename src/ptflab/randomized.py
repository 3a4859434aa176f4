"""Seeded Monte Carlo estimators, with exact small-n oracles.

Reproducibility contract: every estimator is a pure function of
``(polynomial, parameters, seed, stream, samples)``; the worker count sets
threads and nothing else.  Every estimator first compresses the
polynomial onto its k support variables
(:meth:`MultilinearPolynomial.compress_support`, exact for every
distributional quantity since the other coordinates occur in no term) and
draws only those k coordinates.  Every statistic here runs on the unit
form (:func:`ptflab.polynomial._unit`), exactly p times a power of two,
and ``abs_comparison_gap`` on p and q times one common power of two: each
scale-free result is bit for bit that of p at any finite scale, no square
it reads overflows, and any finite coefficients are accepted.
``hypercontractivity_check`` and the thresholds of ``invariance_gap`` are
scaled back exactly to p's units; the check refuses |p|_2 = inf
(:meth:`MultilinearPolynomial.moments`).

Gaussian draws run on the Gaussian form (:func:`_gaussian_form`) of the
polynomials drawn at one point, whose linear-only coordinates (those whose
only term in the coordinate index of every polynomial is x_i itself) are
merged into one per independent direction with the same joint law: one
polynomial keeps the law of (p(X), |grad p(X)|^2) and the linear form at
n = 400 draws one value per row instead of 400; the pair of
``abs_comparison_gap`` keeps the joint law of (p(X), q(X)) on at most two
merged coordinates.  A +-1 draw
of ``rows * cols`` values takes ``ceil(rows * cols / 8)`` random bytes and
unpacks their bits in C order, bit 1 to +1 and bit 0 to -1.

Every estimator draws through one sampler, :func:`_sample`, in one of
two layouts: values, a C-order ``(k, m)`` point and p(X), or the Gaussian
derivative block, one C-order ``(k+1, m)`` array holding the point in rows
``0..k-1`` and one N(0, 1) scalar Z in row ``k``.  An integrand takes the
points, p(X) and, in the block layout, D_Y p(X).  One driver,
:func:`_batches`, runs the memory batches, and one mean,
:func:`_estimate`, reduces each batch to its column sums;
``invariance_gap`` reduces each batch to its counts at the threshold grid
instead.  No statistic holds a whole sample.  Draws and batch outputs are
coordinate-major: a point's ``.T`` view goes to ``eval_many``, so each
column the kernel reads is contiguous, and an integrand returns an
``(m,)`` vector or a ``(columns, m)`` array, so each column sum reads
contiguous memory.

Every derivative is summed by :meth:`MultilinearPolynomial._partial_sum`
from one split of the partials: the constant partials, those of the
coordinates in no higher term, fold into one matrix-vector product or one
scalar, and the partial of each coordinate of a higher term is read off
the polynomial's coordinate index of the terms once per polynomial and
evaluated once per batch.  The exact oracle :func:`exact_alpha` shares
none of it: it takes its partials' tables off the dense coefficients.
Under Gaussian inputs no direction is drawn: given X,
D_Y p(X) = Y . grad p(X) is exactly N(0, |grad p(X)|^2), the law of
|grad p(X)| Z, and |grad p(X)|^2 comes from
:meth:`MultilinearPolynomial.squared_gradient_norm`.  Under +-1 inputs the
ratios of b disjoint blocks (:func:`_block_ratios`) draw the point and
p(X) in the values layout, then one direction Y, and block j sums
Y_i d_i p(X) over its own coordinates' partial columns only; alpha is the
ratio of the one block that holds every coordinate.

The memory batch is the one unit of the draws: it holds at most 2^18 float64
elements, 2 MiB, about one core's L2 cache (``r = 2^18 // w`` rows when one
row materialises ``w`` elements, :func:`_width`: the k or k + 1 values
its layout draws plus the kernel's ``KERNEL_ROWS``, or twice the output
column count if that is larger, since an estimate holds each output and its
float64 copy; the block ratios take 2k + ``KERNEL_ROWS`` + b + 1, point,
direction, kernel rows and the b block columns with their sum), so no
statistic's memory grows with n or the sample count.  There are
``ceil(samples / r)`` batches; batch ``c`` covers rows ``[c*r, (c+1)*r)``,
the last one cut at ``samples``, and draws from numpy's PCG64 seeded through
``SeedSequence(seed, spawn_key=(stream, c))``.  The driver computes each
batch's size and generator as the batch is started, so it holds nothing for
the batches still to come; batch results are merged in batch order as they
arrive, and the batches run on ``min(workers, batches, os.cpu_count())``
threads, one batch per thread ahead of the merge.  Seeded
values depend on that batch rule and draw layout, never on the worker count.
Gaussian draws use numpy's ziggurat, fixed within one build.

The ratio statistics clamp at 1.  When the denominator value p(A) is
exactly zero the integrand is defined as 1 if the gradient of p at A is
nonzero and 0 otherwise, the limit of the clamp along generic directions;
under Gaussian inputs the case has probability zero and the rule only
exists for robustness.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import CapExceededError, InputError
from .hypercube import _transform, all_points, evaluate_on_hypercube
from .polynomial import (
    _BATCH_ELEMENTS,
    KERNEL_ROWS,
    MultilinearPolynomial,
    _exponent,
    _integer,
    _ldexp,
    _real,
    _unit,
    check_enumeration,
    mask_from_indices,
)

BERNOULLI = "bernoulli"
GAUSSIAN = "gaussian"
_DISTRIBUTIONS = (BERNOULLI, GAUSSIAN)

_M64 = (1 << 64) - 1
# invariance_gap without a threshold grid: evenly spaced quantiles of a pilot draw
_QUANTILE_GRID_POINTS = 201

T = TypeVar("T")


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Rng:
    """A (seed, stream) pair; identical pairs reproduce identical draws."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        object.__setattr__(self, "stream", _integer(self.stream, "stream"))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed & _M64, spawn_key=(self.stream & _M64,))
        )

    def chunk_generator(self, chunk: int) -> np.random.Generator:
        """Generator for Monte Carlo memory batch ``chunk``; distinct from :meth:`generator`."""
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed & _M64, spawn_key=(self.stream & _M64, chunk & _M64)
            )
        )

    def child(self, index: int) -> "Rng":
        """Derive a practically independent sub-stream via splitmix64 mixing."""
        mixed = _splitmix64(_splitmix64(self.stream & _M64) ^ ((index + 1) & _M64))
        return Rng(self.seed, mixed)


@dataclass(frozen=True)
class EstimatorResult:
    """Point estimate with its sampling error and provenance."""

    estimate: float
    std_error: float
    samples: int
    seed: int
    stream: int

    @property
    def ci95(self) -> tuple[float, float]:
        half = 1.96 * self.std_error
        return (self.estimate - half, self.estimate + half)

    def covers(self, value: float) -> bool:
        lo, hi = self.ci95
        return lo <= value <= hi

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "ci95": list(self.ci95),
            "samples": self.samples,
            "seed": self.seed,
            "stream": self.stream,
        }


# ---------------------------------------------------------------------------
# Monte Carlo engine


def _batch_rows(width: int) -> int:
    """Rows per batch when one row materialises ``width`` float64 elements."""
    return max(1, _BATCH_ELEMENTS // max(1, width))


def _batches(
    batch_fn: Callable[[np.random.Generator, int], T],
    samples: int,
    rng: Rng,
    workers: int,
    width: int,
) -> Iterator[T]:
    """Yield ``batch_fn(rng.chunk_generator(c), m)`` for each batch ``c`` of ``m`` rows, in order."""
    samples = _integer(samples, "sample count", 1)
    workers = _integer(workers, "worker count", 1)
    rows = _batch_rows(width)
    count = -(-samples // rows)
    sizes = (min(rows, samples - start) for start in range(0, samples, rows))
    generators = map(rng.chunk_generator, range(count))
    threads = min(workers, count, os.cpu_count() or 1)
    if threads == 1:
        yield from map(batch_fn, generators, sizes)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = []  # at most one batch per thread past the one merged next
        for args in zip(generators, sizes):
            ahead.append(pool.submit(batch_fn, *args))
            if len(ahead) > threads:
                yield ahead.pop(0).result()
        yield from (future.result() for future in ahead)


def _estimate(
    batch_fn: Callable[[np.random.Generator, int], np.ndarray],
    samples: int,
    rng: Rng,
    workers: int,
    width: int,
) -> list[EstimatorResult]:
    """Sample means of ``batch_fn`` values, one :class:`EstimatorResult` per output column.

    ``batch_fn`` returns its ``m`` rows coordinate-major: an ``(m,)`` vector
    or a ``(columns, m)`` array, so each column is summed over contiguous memory.
    """

    def column_sums(gen: np.random.Generator, m: int) -> np.ndarray:
        values = np.asarray(batch_fn(gen, m), dtype=np.float64).reshape(-1, m)
        return np.array([values.sum(axis=1), np.square(values, out=values).sum(axis=1)])

    total, total_sq = sum(_batches(column_sums, samples, rng, workers, width))
    out = []
    for t, t_sq in zip(total, total_sq):
        var = max(0.0, (t_sq - t * t / samples) / (samples - 1)) if samples > 1 else 0.0
        out.append(
            EstimatorResult(
                estimate=float(t / samples),
                std_error=float(math.sqrt(var / samples)),
                samples=samples,
                seed=rng.seed,
                stream=rng.stream,
            )
        )
    return out


def _draw(gen: np.random.Generator, dist: str, rows: int, cols: int) -> np.ndarray:
    """A C-order ``(rows, cols)`` float64 matrix of uniform +-1 or standard normal entries.

    The +-1 entries are the bits of ``ceil(rows * cols / 8)`` uniform random
    bytes, unpacked in C order (bit 1 gives +1, bit 0 gives -1).
    """
    if dist == BERNOULLI:
        size = rows * cols
        random_bytes = gen.integers(0, 256, size=-(-size // 8), dtype=np.uint8)
        signs = np.unpackbits(random_bytes, count=size).view(np.int8)
        signs *= 2
        signs -= 1
        return signs.reshape(rows, cols).astype(np.float64)
    return gen.standard_normal((rows, cols))


def _gaussian_form(*polys: MultilinearPolynomial) -> tuple[MultilinearPolynomial, ...]:
    """The Gaussian form of polynomials drawn at one point: their linear-only coordinates merged.

    A coordinate that occurs in no higher term of any of the n-variable
    ``polys`` contributes a_i X_i to each and nothing else.  Over the class L
    of those coordinates the sums a_L . X_L of the polynomials are jointly
    exactly N(0, Gram of their vectors a_L), which Gram-Schmidt writes as
    one coordinate per orthonormal direction: a vector equal to an earlier
    one or to its negation takes that one's coefficients, or their
    negations, and any other takes its dot products with the directions so
    far and the hypot of its remainder, which opens a new direction unless
    it is 0.  So the first polynomial gets ``hypot(*a_L)``, the values at one
    point keep their joint law, and so does (p(X), |grad p(X)|^2) for each.
    The forms share the lowest indices of L for the merged coordinates and
    are compressed onto the union of their supports.  When fewer than two
    coordinates are linear-only the polynomials are returned as given.
    """
    n = polys[0].n
    # L: the coordinates whose only term in any of the polys is x_i itself
    linear = [i for i in range(n) if {m for p in polys for m, _ in p._terms_of[i]} == {1 << i}]
    if len(linear) < 2:
        return polys
    linear_only = mask_from_indices(linear)
    directions: list[list[float]] = []
    written: dict[tuple[float, ...], list[float]] = {}  # each a_L so far, in the directions
    merged = []
    for p in polys:
        a = tuple(p.terms.get(1 << i, 0.0) for i in linear)
        negated = tuple(-x for x in a)
        if a in written:
            coeffs = written[a]
        elif negated in written:
            coeffs = [-c for c in written[negated]]
        else:
            coeffs = [math.fsum(x * y for x, y in zip(u, a)) for u in directions]
            rest = list(a)
            for c, u in zip(coeffs, directions):
                rest = [x - c * y for x, y in zip(rest, u)]
            norm = math.hypot(*rest)
            if norm > 0.0:
                directions.append([x / norm for x in rest])
                coeffs.append(norm)
            written[a] = coeffs
        terms = {mask: c for mask, c in p.terms.items() if not mask & linear_only}
        terms.update((1 << i, c) for i, c in zip(linear, coeffs))
        merged.append(MultilinearPolynomial(n, terms))
    support = sorted({i for form in merged for i in form.support})
    return tuple(form.compress_support(support)[0] for form in merged)


def _sampled_form(p: MultilinearPolynomial, dist: str) -> MultilinearPolynomial:
    """The polynomial whose support a ``dist`` draw of p's values runs on.

    The unit form (:func:`_unit`) of the support compression of ``p``, with
    its linear-only coordinates merged (:func:`_gaussian_form`) under
    Gaussian inputs.  An unknown ``dist`` is refused.
    """
    if dist not in _DISTRIBUTIONS:
        raise InputError(f"distribution must be one of {_DISTRIBUTIONS}, got {dist!r}")
    unit = _unit(p.compress_support()[0])
    return _gaussian_form(unit)[0] if dist == GAUSSIAN else unit


def _width(k: int, derivative: bool, columns: int = 1) -> int:
    """float64 elements one row of a :func:`_sample` batch materialises.

    The values its layout draws for ``k`` coordinates (k, or k + 1 with
    ``derivative``) plus the kernel's ``KERNEL_ROWS``, or twice the
    ``columns`` outputs if that is larger: :func:`_estimate` holds each
    output column and its float64 copy, squared in place.
    """
    return max(k + derivative + KERNEL_ROWS, 2 * columns)


def _sample(
    gen: np.random.Generator, form: MultilinearPolynomial, dist: str, m: int, derivative: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(points, p(X), D_Y p(X) or None)`` for ``m`` ``dist`` rows of ``form``.

    ``points`` is the coordinate-major ``(k, m)`` draw.  With ``derivative``,
    a Gaussian layout only, the batch draws one ``(k+1, m)`` block whose
    last row Z gives D_Y p(X) = |grad p(X)| Z.
    """
    k = form.n
    draws = _draw(gen, dist, k + derivative, m)
    points = draws[:k]
    values = form.eval_many(points.T)
    if not derivative:
        return points, values, None
    deriv = np.sqrt(form.squared_gradient_norm(points.T))
    deriv *= draws[k]
    return points, values, deriv


def _run_sampler(
    integrand: Callable[[np.ndarray, np.ndarray, np.ndarray | None], np.ndarray],
    form: MultilinearPolynomial,
    dist: str,
    samples: int,
    rng: Rng,
    workers: int,
    *,
    derivative: bool = False,
    columns: int = 1,
) -> list[EstimatorResult]:
    """:func:`_estimate` of ``integrand(*_sample(...))``.

    The batch width comes from the layout and the ``columns`` the integrand
    returns (:func:`_width`).
    """

    def batch(gen: np.random.Generator, m: int) -> np.ndarray:
        return integrand(*_sample(gen, form, dist, m, derivative))

    return _estimate(batch, samples, rng, workers, _width(form.n, derivative, columns))


# ---------------------------------------------------------------------------
# clamped derivative-to-value ratio (the alpha / beta integrand)


def _clamped_ratio(
    p: MultilinearPolynomial,
    coords: Sequence[int] | None,
    points: np.ndarray,
    values: np.ndarray,
    deriv: np.ndarray,
) -> np.ndarray:
    """min(1, (D_v p(x) / p(x))^2), computed in ``deriv``, with the zero-denominator rule.

    ``points`` is the coordinate-major ``(k, m)`` draw and ``v`` is supported
    on ``coords`` (None: every coordinate); the squared gradient over
    ``coords`` is evaluated only on the rows where p(x) = 0.  ``values`` is
    read, not written, so one value column serves several derivatives.
    """
    zero = values == 0.0
    np.divide(deriv, values, out=deriv, where=~zero)
    np.square(deriv, out=deriv)
    np.minimum(deriv, 1.0, out=deriv)
    if zero.any():
        deriv[zero] = p.squared_gradient_norm(points[:, zero].T, coords) > 0.0
    return deriv


def _block_ratios(
    p: MultilinearPolynomial,
    blocks: Sequence[Sequence[int]],
    samples: int,
    rng: Rng,
    workers: int,
) -> list[EstimatorResult]:
    """Clamped ratios along each of the disjoint ``blocks``, from one +-1 draw per row.

    Each row draws one point A and its value p(A) through :func:`_sample`,
    then one direction B, on the support of ``p``.  The column of block j is
    min(1, (D_{B_j} p(A) / p(A))^2), with B_j equal to B on the block and 0
    off it: D_{B_j} p(A) sums B_i d_i p(A) over the block's own coordinates
    only, so each partial is evaluated once per batch, and the
    zero-denominator rule reads the gradient over the block.  A last column
    holds each row's sum over the blocks, so its standard error counts the
    correlation between blocks.  A row materialises A, B, the kernel rows
    and the ``b + 1`` outputs.
    """
    form = _sampled_form(p, BERNOULLI)
    position = {old: new for new, old in enumerate(p.support)}
    local = [[position[i] for i in block if i in position] for block in blocks]

    def batch(gen: np.random.Generator, m: int) -> np.ndarray:
        points, values, _ = _sample(gen, form, BERNOULLI, m, False)
        directions = _draw(gen, BERNOULLI, form.n, m)
        out = np.empty((len(local) + 1, m))
        for j, coords in enumerate(local):
            deriv = form._partial_sum(points.T, coords, directions.T)
            out[j] = _clamped_ratio(form, coords, points, values, deriv)
        out[-1] = out[:-1].sum(axis=0)
        return out

    width = 2 * form.n + KERNEL_ROWS + len(local) + 1
    return _estimate(batch, samples, rng, workers, width=width)


def estimate_alpha(
    p: MultilinearPolynomial, samples: int, rng: Rng, *, workers: int = 1
) -> EstimatorResult:
    """Expected clamped squared derivative-to-value ratio under +-1 inputs.

    Each draw uses an independent point A and direction B; the statistic is
    scale invariant and always lies in [0, 1].  It is the block ratio
    (:func:`_block_ratios`) of the one block that holds every support coordinate.
    """
    return _block_ratios(p, [p.support], samples, rng, workers)[0]


def estimate_beta(
    p: MultilinearPolynomial, samples: int, rng: Rng, *, workers: int = 1
) -> EstimatorResult:
    """Gaussian analogue of :func:`estimate_alpha`: E min(1, (D_Y p(X) / p(X))^2).

    Draws D_Y p(X) as |grad p(X)| Z with one N(0, 1) scalar Z per row, which
    has the same joint law with X (see :func:`_sample`).
    """
    form = _sampled_form(p, GAUSSIAN)
    ratio = functools.partial(_clamped_ratio, form, None)
    return _run_sampler(ratio, form, GAUSSIAN, samples, rng, workers, derivative=True)[0]


def _partial_tables(p: MultilinearPolynomial) -> np.ndarray:
    """The ``(n, 2^n)`` values of every partial d_i p on the cube, in mask order.

    Taken off p's dense coefficients alone, so the oracle shares no
    derivative with the estimators it checks: row i gets the coefficient at
    each S with i in S moved to S minus i (the middle axis of a
    ``(2^(n-1-i), 2, 2^i)`` view of the masks is bit i), then one in-place
    transform turns the row into values.
    """
    dense = p.dense_coefficients()
    tables = np.zeros((p.n, dense.size))
    for i, row in enumerate(tables):
        row.reshape(-1, 2, 1 << i)[:, 0] = dense.reshape(-1, 2, 1 << i)[:, 1]
        _transform(row)
    return tables


def exact_alpha(p: MultilinearPolynomial) -> float:
    """Exact expectation of the alpha integrand over all 2^{2n} (A, B) pairs.

    Serves as the oracle for :func:`estimate_alpha`.  Its cost is the 4^n
    pairs, so the enumeration budget admits n <= 12.
    """
    n = p.n
    check_enumeration(f"exact alpha over the (A, B) pairs of n={n}", 1 << (2 * n))
    p = _unit(p)
    size = 1 << n
    values = evaluate_on_hypercube(p)
    grads = _partial_tables(p)
    grad_sq = (grads**2).sum(axis=0)
    zero = values == 0.0
    safe = np.where(zero, 1.0, values)
    points = all_points(n)
    total = 0.0
    chunk = _batch_rows(size)
    for start in range(0, size, chunk):
        deriv = points[start : start + chunk] @ grads
        ratio = deriv / safe[None, :]
        block = np.minimum(1.0, ratio * ratio)
        if zero.any():
            block[:, zero] = (grad_sq[zero] > 0.0).astype(np.float64)[None, :]
        total += float(block.sum())
    return total / (size * size)


# ---------------------------------------------------------------------------
# concentration and anticoncentration


def _unit_l2(p: MultilinearPolynomial) -> tuple[MultilinearPolynomial, float]:
    """The unit form of p (:func:`_unit`) and its L2 norm, refused for the zero polynomial."""
    unit = _unit(p)
    if not unit.terms:
        raise InputError("operation requires a nonzero polynomial")
    return unit, unit.moments().l2_norm


@dataclass(frozen=True)
class TailCurve:
    """Estimated upper-tail probabilities next to the reference envelope.

    ``probabilities[k]`` estimates Pr(|p| > thresholds[k] * |p|_2) and
    ``envelope[k] = 2^{-(N/2)^{2/d}}`` with N the threshold and d the
    polynomial degree (taken as 1 for constants).
    """

    thresholds: tuple[float, ...]
    probabilities: tuple[float, ...]
    envelope: tuple[float, ...]
    std_errors: tuple[float, ...]
    samples: int
    seed: int
    stream: int


def tail_curve(
    p: MultilinearPolynomial,
    dist: str,
    thresholds: Sequence[float],
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
) -> TailCurve:
    """Estimate Pr(|p| > N |p|_2) on a grid of thresholds N."""
    unit, l2 = _unit_l2(p)
    levels = sorted(_real(t, "threshold", 0) for t in thresholds)
    if not levels:
        raise InputError("thresholds must be nonempty")
    cuts = np.array(levels) * l2
    above = lambda points, values, deriv: np.abs(values) > cuts[:, None]
    form = _sampled_form(unit, dist)
    results = _run_sampler(above, form, dist, samples, rng, workers, columns=cuts.size)
    d_eff = max(1, p.degree)
    envelope = tuple(2.0 ** (-((t / 2.0) ** (2.0 / d_eff))) for t in levels)
    return TailCurve(
        thresholds=tuple(levels),
        probabilities=tuple(r.estimate for r in results),
        envelope=envelope,
        std_errors=tuple(r.std_error for r in results),
        samples=samples,
        seed=rng.seed,
        stream=rng.stream,
    )


def weak_anticoncentration_exact(p: MultilinearPolynomial) -> float:
    """Pr(|p(A)| >= |p|_2 / 2) by full enumeration (Paley-Zygmund check)."""
    unit, l2 = _unit_l2(p)
    return float(np.mean(np.abs(evaluate_on_hypercube(unit)) >= l2 / 2.0))


def weak_anticoncentration_estimate(
    p: MultilinearPolynomial,
    dist: str,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
) -> EstimatorResult:
    unit, l2 = _unit_l2(p)
    large = lambda points, values, deriv: np.abs(values) >= l2 / 2.0
    return _run_sampler(large, _sampled_form(unit, dist), dist, samples, rng, workers)[0]


def carbery_wright_estimate(
    p: MultilinearPolynomial,
    eps: float,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
) -> EstimatorResult:
    """Estimate Pr(|p(X)| <= eps |p|_2) under Gaussian input."""
    eps = _real(eps, "eps", 0)
    unit, l2 = _unit_l2(p)
    small = lambda points, values, deriv: np.abs(values) <= eps * l2
    form = _sampled_form(unit, GAUSSIAN)
    return _run_sampler(small, form, GAUSSIAN, samples, rng, workers)[0]


def strong_anticoncentration_estimate(
    p: MultilinearPolynomial,
    eps: float,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
) -> EstimatorResult:
    """Estimate Pr(|p(X)| <= eps |D_Y p(X)|) with independent Gaussian X, Y.

    Each row draws X and one N(0, 1) scalar Z and takes D_Y p(X) =
    |grad p(X)| Z, which has the same joint law with X, so no direction
    vector is drawn (see :func:`_sample`).
    """
    eps = _real(eps, "eps", 0)
    if p.degree < 1:
        raise InputError("degenerate for constant polynomials: the event has probability 0")
    small = lambda points, values, deriv: np.abs(values) <= eps * np.abs(deriv)
    form = _sampled_form(p, GAUSSIAN)
    return _run_sampler(small, form, GAUSSIAN, samples, rng, workers, derivative=True)[0]


# ---------------------------------------------------------------------------
# invariance measurements


@dataclass(frozen=True)
class InvarianceGap:
    """Measured CDF distance between Gaussian and +-1 input distributions."""

    gap: float
    thresholds: np.ndarray
    per_t: np.ndarray
    samples: int
    seed: int
    stream: int


def invariance_gap(
    p: MultilinearPolynomial,
    t_grid: Sequence[float] | None,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
) -> InvarianceGap:
    """Estimate sup_t |Pr(p(X) <= t) - Pr(p(A) <= t)| on a threshold grid.

    Both CDFs are estimated from ``samples`` fresh draws, each memory batch
    reduced to its counts at the grid.  When ``t_grid`` is None the grid is
    201 evenly spaced quantiles of a pilot: one batch of each law, equal in
    size, drawn on streams of its own, so the grid adapts to wherever the
    distributions put mass and is not read from the draws it is counted on.
    """
    forms = {dist: _sampled_form(p, dist) for dist in (GAUSSIAN, BERNOULLI)}
    widths = {dist: _width(form.n, False) for dist, form in forms.items()}

    def draws(dist: str, rows: int, stream: Rng, reduce: Callable[[np.ndarray], T]) -> Iterator[T]:
        """``reduce`` of the values of each memory batch of ``rows`` ``dist`` draws."""
        batch = lambda gen, m: reduce(_sample(gen, forms[dist], dist, m, False)[1])
        return _batches(batch, rows, stream, workers, widths[dist])

    if t_grid is None:
        rows = min(samples, *map(_batch_rows, widths.values()))  # one batch of each law
        pilot = [*draws(GAUSSIAN, rows, rng.child(2), np.asarray),
                 *draws(BERNOULLI, rows, rng.child(3), np.asarray)]
        cuts = np.quantile(np.concatenate(pilot), np.linspace(0.0, 1.0, _QUANTILE_GRID_POINTS))
    else:
        grid = np.array([_real(t, "threshold") for t in t_grid])
        if grid.size == 0:
            raise InputError("threshold grid must be nonempty")
        if np.any(np.diff(grid) < 0):
            raise InputError("threshold grid must be sorted")
    e = _exponent(p)  # the draws are of p times 2^-e
    with np.errstate(over="ignore"):  # a threshold beyond the float range at one scale is inf
        cuts, grid = (cuts, np.ldexp(cuts, e)) if t_grid is None else (np.ldexp(grid, -e), grid)
    count = lambda values: np.searchsorted(np.sort(values), cuts, side="right")
    cdf_x = sum(draws(GAUSSIAN, samples, rng.child(0), count)) / samples
    cdf_a = sum(draws(BERNOULLI, samples, rng.child(1), count)) / samples
    per_t = np.abs(cdf_x - cdf_a)
    return InvarianceGap(
        gap=float(per_t.max()),
        thresholds=grid,
        per_t=per_t,
        samples=samples,
        seed=rng.seed,
        stream=rng.stream,
    )


def _below_share(
    p: MultilinearPolynomial,
    q: MultilinearPolynomial,
    dist: str,
    samples: int,
    rng: Rng,
    workers: int,
) -> EstimatorResult:
    """Pr(|p| <= |q|) under ``dist`` inputs, for p and q on one index space drawn at one point."""
    below = lambda points, values, deriv: np.abs(values) <= np.abs(q.eval_many(points.T))
    return _run_sampler(below, p, dist, samples, rng, workers)[0]


def abs_comparison_gap(
    p: MultilinearPolynomial,
    q: MultilinearPolynomial,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
) -> EstimatorResult:
    """|Pr(|p(A)| <= |q(A)|) - Pr(|p(X)| <= |q(X)|)| from paired sample sets.

    The reported ``std_error`` is that of the signed difference of the two
    independent proportion estimates.  Both polynomials are compressed onto
    the union of their supports and scaled by one common power of two, which
    puts the largest |coefficient| of the pair in [1, 2) and leaves every
    comparison as it is, so the result is the same at any finite common scale.
    The +-1 half draws every coordinate of that support; the Gaussian half
    draws the merged pair (:func:`_gaussian_form`), whose joint law of
    (p(X), q(X)) is exact, so the linear-only coordinates of the pair cost
    at most two values per row.
    """
    if p.n != q.n:
        raise InputError(f"dimension mismatch: n={p.n} vs n={q.n}")
    support = tuple(sorted(set(p.support) | set(q.support)))
    e = max(_exponent(p), _exponent(q))
    pc, qc = (_ldexp(r.compress_support(support)[0], -e) for r in (p, q))

    bern = _below_share(pc, qc, BERNOULLI, samples, rng.child(0), workers)
    gauss = _below_share(*_gaussian_form(pc, qc), GAUSSIAN, samples, rng.child(1), workers)
    return EstimatorResult(
        estimate=abs(bern.estimate - gauss.estimate),
        std_error=math.hypot(bern.std_error, gauss.std_error),
        samples=samples,
        seed=rng.seed,
        stream=rng.stream,
    )


# ---------------------------------------------------------------------------
# hypercontractivity


@dataclass(frozen=True)
class HypercontractivityCheck:
    t: int
    lhs: float
    rhs: float
    holds: bool
    degree: int


def hypercontractivity_check(p: MultilinearPolynomial, t: int) -> HypercontractivityCheck:
    """Exact check of |p|_t <= sqrt(t-1)^degree * |p|_2 under +-1 inputs.

    The left side is the enumerated t-th moment, the right side comes from
    coefficient arithmetic.  t is an even integer of at most 2^53, so a
    float holds t - 1 exactly and sqrt(t-1)^degree stays finite within the
    enumeration budget.  The moment is taken of u / max|u| for the unit
    form u of p (:func:`_unit`), so no power overflows, the largest term is
    exactly 1 and the left side lies between |p|_2 and max|p| at every t;
    the 1e-9 slack is relative to |p|_2.  Both sides are reported in p's
    units, so |p|_2 = inf is refused (:meth:`MultilinearPolynomial.moments`).
    """
    t = _integer(t, "moment order", 2, 1 << 53)
    if t % 2:
        raise InputError(f"the exact path needs an even moment order, got {t}")
    p.moments()  # refuses |p|_2 = inf
    e = _exponent(p)
    unit = _ldexp(p, -e)
    norm = unit.moments().l2_norm
    values = np.abs(evaluate_on_hypercube(unit))
    top = float(values.max()) or 1.0  # the zero polynomial has zero values
    moment = top * float(np.mean((values / top) ** t) ** (1.0 / t))  # |u|_t
    factor = math.sqrt(t - 1.0) ** p.degree
    return HypercontractivityCheck(
        t=t,
        lhs=math.ldexp(moment, e),
        rhs=factor * math.ldexp(norm, e),
        holds=moment <= (factor + 1e-9) * norm,
        degree=p.degree,
    )


# ---------------------------------------------------------------------------
# random instances


def _subset_of_rank(n: int, rank: int) -> int:
    """The mask of the subset of ``range(n)`` at ``rank`` in the order by size, then
    lexicographic (that of ``itertools.combinations`` size by size)."""
    size = 0
    while rank >= (count := math.comb(n, size)):
        rank, size = rank - count, size + 1
    mask = i = 0
    for left in range(size, 0, -1):
        # the next element is i unless rank passes the C(n-i-1, left-1) subsets that take it
        while rank >= (count := math.comb(n - i - 1, left - 1)):
            rank, i = rank - count, i + 1
        mask, i = mask | 1 << i, i + 1
    return mask


def random_polynomial(
    n: int, degree: int, terms: int, rng: Rng
) -> MultilinearPolynomial:
    """Random multilinear polynomial: distinct uniform subsets of size <= degree,
    standard normal coefficients, deterministic per (seed, stream)."""
    n = MultilinearPolynomial.zero(n).n  # the constructor's checks of n, before any draw
    degree, terms = _integer(degree, "degree", 0, n), _integer(terms, "term count", 0)
    available = sum(math.comb(n, k) for k in range(degree + 1))
    if terms > available:
        raise CapExceededError(
            f"requested {terms} distinct subsets but only {available} of size <= {degree} exist"
        )
    gen = rng.generator()
    chosen: dict[int, float] = {}
    if available <= (1 << 20):
        picked = gen.choice(available, size=terms, replace=False)
        for rank, coeff in zip(picked, gen.standard_normal(terms)):
            chosen[_subset_of_rank(n, int(rank))] = float(coeff)
    else:
        # exact integer ratios: C(n, k) itself can be beyond the float range
        weights = np.array([math.comb(n, k) / available for k in range(degree + 1)])
        while len(chosen) < terms:
            k = int(gen.choice(degree + 1, p=weights))
            indices = gen.choice(n, size=k, replace=False) if k else ()
            mask = mask_from_indices(int(i) for i in indices)
            if mask in chosen:
                continue
            chosen[mask] = float(gen.standard_normal())
    return MultilinearPolynomial(n, chosen)
