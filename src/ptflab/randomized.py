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

Gaussian draws of one polynomial run on its Gaussian form
(:func:`_gaussian_form`), whose linear-only coordinates are merged into
one with the same joint law of (p(X), |grad p(X)|^2): the linear form
at n = 400 draws one value per row instead of 400.  ``abs_comparison_gap``
draws two polynomials at one point and keeps every coordinate.  A +-1 draw
of ``rows * cols`` values takes ``ceil(rows * cols / 8)`` random bytes and
unpacks their bits in C order, bit 1 to +1 and bit 0 to -1.

Every estimator draws through one sampler, :func:`_sample`, and passes
it an integrand of the points, p(X) and, for a derivative statistic,
D_Y p(X).  One driver, :func:`_batches`, runs the memory batches, and one
mean, :func:`_estimate`, reduces each batch to its column sums;
``invariance_gap`` reduces each batch to its counts at the threshold grid
instead.  No statistic holds a whole sample.  A point is a C-order
``(k, m)`` array whose ``.T`` view goes to ``eval_many``, so each column
the kernel reads is contiguous.  Under +-1 inputs a direction is drawn
after the point, for one fused value-and-derivative pass.  Under Gaussian
inputs no direction is drawn:
given X, D_Y p(X) = Y . grad p(X) is exactly N(0, |grad p(X)|^2), the law
of |grad p(X)| Z for one scalar Z ~ N(0, 1).  So one C-order ``(k+1, m)``
block holds the point in rows ``0..k-1`` and Z in row ``k``, and
|grad p(X)|^2 comes from the cached partial derivatives
(:meth:`MultilinearPolynomial.squared_gradient_norm`).  The per-block
ratios of b disjoint blocks (:func:`_block_ratios`) keep their own
layout: one +-1 point and direction and one fused pass per block, with
the direction zeroed off the block.

The memory batch is the one unit of the draws: it holds at most 2^18 float64
elements, 2 MiB, about one core's L2 cache (``r = 2^18 // w`` rows when one
row materialises ``w`` elements, :func:`_width`: the k, 2k or k + 1 values
its layout draws plus the kernel's ``KERNEL_ROWS``, or twice the output
column count if that is larger, since an estimate holds each output and its
float64 copy; the block ratios take 3k + ``KERNEL_ROWS`` + b + 1), so no
statistic's memory grows with n or the sample count.  Batch ``c`` covers rows
``[c*r, (c+1)*r)`` and draws from numpy's PCG64 seeded through
``SeedSequence(seed, spawn_key=(stream, c))``; batch results are merged in
batch order as they arrive, and the batches run on ``min(workers, batches,
os.cpu_count())`` threads, one batch per thread ahead of the merge.  Seeded
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
from .hypercube import all_points, evaluate_on_hypercube
from .polynomial import (
    _BATCH_ELEMENTS,
    KERNEL_ROWS,
    MultilinearPolynomial,
    _exponent,
    _ldexp,
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
    if samples < 1:
        raise InputError(f"need at least one sample, got {samples}")
    if workers < 1:
        raise InputError(f"worker count must be positive, got {workers}")
    rows = _batch_rows(width)
    sizes = [min(rows, samples - start) for start in range(0, samples, rows)]
    generators = map(rng.chunk_generator, range(len(sizes)))
    threads = min(workers, len(sizes), os.cpu_count() or 1)
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
    """Sample means of ``batch_fn`` values, one :class:`EstimatorResult` per column."""

    def column_sums(gen: np.random.Generator, m: int) -> np.ndarray:
        values = np.asarray(batch_fn(gen, m), dtype=np.float64).reshape(m, -1)
        return np.array([values.sum(axis=0), np.square(values, out=values).sum(axis=0)])

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


def _gaussian_form(p: MultilinearPolynomial) -> MultilinearPolynomial:
    """The Gaussian form of ``p``: its linear-only coordinates merged into one.

    A coordinate that occurs only in its degree-1 term contributes a_i X_i
    and nothing else, and the sum of such terms over the class L of those
    coordinates is exactly N(0, |a_L|^2): one coordinate with coefficient
    ``hypot(*a_L)`` has the same law, and (p(X), |grad p(X)|^2) has the law
    of the merged pair.  When fewer than two coordinates are linear-only
    ``p`` itself is returned.
    """
    higher = 0
    for mask in p.terms:
        if mask & (mask - 1):
            higher |= mask
    linear = [i for i in range(p.n) if 1 << i in p.terms and not higher >> i & 1]
    if len(linear) < 2:
        return p
    terms = dict(p.terms)
    first, *rest = linear
    terms[1 << first] = math.hypot(terms[1 << first], *(terms.pop(1 << i) for i in rest))
    return MultilinearPolynomial(p.n, terms).compress_support()[0]


def _sampled_form(p: MultilinearPolynomial, dist: str) -> MultilinearPolynomial:
    """The polynomial whose support a ``dist`` draw of p's values runs on.

    The unit form (:func:`_unit`) of the support compression of ``p``, with
    its linear-only coordinates merged (:func:`_gaussian_form`) under
    Gaussian inputs.  An unknown ``dist`` is refused.
    """
    if dist not in _DISTRIBUTIONS:
        raise InputError(f"distribution must be one of {_DISTRIBUTIONS}, got {dist!r}")
    unit = _unit(p.compress_support()[0])
    return _gaussian_form(unit) if dist == GAUSSIAN else unit


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:
        raise InputError(f"eps must be positive and finite, got {eps}")


def _width(k: int, dist: str, derivative: bool, columns: int = 1) -> int:
    """float64 elements one row of a :func:`_sample` batch materialises.

    The values its layout draws for ``k`` coordinates plus the kernel's
    ``KERNEL_ROWS``, or twice the ``columns`` outputs if that is larger:
    :func:`_estimate` holds each output column and its float64 copy, squared in place.
    """
    if derivative:
        k = k + 1 if dist == GAUSSIAN else 2 * k
    return max(k + KERNEL_ROWS, 2 * columns)


def _sample(
    gen: np.random.Generator, form: MultilinearPolynomial, dist: str, m: int, derivative: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(points, p(X), D_Y p(X) or None)`` for ``m`` ``dist`` rows of ``form``.

    ``points`` is the coordinate-major ``(k, m)`` draw.  With
    ``derivative`` a +-1 batch draws its directions after its points, for
    one fused pass, and a Gaussian batch draws one ``(k+1, m)`` block whose
    last row Z gives D_Y p(X) = |grad p(X)| Z.
    """
    k = form.n
    if derivative and dist == GAUSSIAN:
        draws = _draw(gen, GAUSSIAN, k + 1, m)
        points = draws[:k]
        deriv = np.sqrt(form.squared_gradient_norm(points.T))
        deriv *= draws[k]
        return points, form.eval_many(points.T), deriv
    points = _draw(gen, dist, k, m)
    if derivative:
        return points, *form.eval_many(points.T, _draw(gen, dist, k, m).T)
    return points, form.eval_many(points.T), None


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

    return _estimate(batch, samples, rng, workers, _width(form.n, dist, derivative, columns))


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
    ``coords`` is evaluated only on the rows where p(x) = 0.
    """
    zero = values == 0.0
    values[zero] = 1.0
    np.divide(deriv, values, out=deriv)
    np.square(deriv, out=deriv)
    np.minimum(deriv, 1.0, out=deriv)
    if zero.any():
        deriv[zero] = p.squared_gradient_norm(points[:, zero].T, coords) > 0.0
    return deriv


def ratio_estimate(
    p: MultilinearPolynomial, dist: str, samples: int, rng: Rng, *, workers: int = 1
) -> EstimatorResult:
    """Expected clamped squared derivative-to-value ratio under ``dist`` inputs.

    Each draw uses an independent point A and direction B from ``dist``;
    under Gaussian inputs D_B p(A) is drawn as |grad p(A)| Z, which has the
    same joint law with A (see :func:`_sample`).
    """
    form = _sampled_form(p, dist)
    ratio = functools.partial(_clamped_ratio, form, None)
    return _run_sampler(ratio, form, dist, samples, rng, workers, derivative=True)[0]


def _block_ratios(
    p: MultilinearPolynomial,
    blocks: Sequence[Sequence[int]],
    samples: int,
    rng: Rng,
    workers: int,
) -> list[EstimatorResult]:
    """Clamped ratios along each of the disjoint ``blocks``, from one +-1 draw per row.

    Each row draws one point A and one direction B on the support of ``p``;
    the column of block j is min(1, (D_{B_j} p(A) / p(A))^2), with B_j equal
    to B on the block and 0 off it, from one fused pass per block, and the
    zero-denominator rule reads the gradient over the block.  A last column
    holds each row's sum over the blocks, so its standard error counts the
    correlation between blocks.  A row materialises A, B, the masked
    direction, the kernel rows and the ``b + 1`` outputs.
    """
    form = _sampled_form(p, BERNOULLI)
    position = {old: new for new, old in enumerate(p.support)}
    local = [[position[i] for i in block if i in position] for block in blocks]

    def batch(gen: np.random.Generator, m: int) -> np.ndarray:
        points = _draw(gen, BERNOULLI, form.n, m)
        directions = _draw(gen, BERNOULLI, form.n, m)
        masked = np.zeros_like(directions)
        out = np.empty((m, len(local) + 1))
        for j, coords in enumerate(local):
            masked[coords] = directions[coords]
            values, deriv = form.eval_many(points.T, masked.T)
            out[:, j] = _clamped_ratio(form, coords, points, values, deriv)
            masked[coords] = 0.0
        out[:, -1] = out[:, :-1].sum(axis=1)
        return out

    width = 3 * form.n + KERNEL_ROWS + len(local) + 1
    return _estimate(batch, samples, rng, workers, width=width)


def estimate_alpha(
    p: MultilinearPolynomial, samples: int, rng: Rng, *, workers: int = 1
) -> EstimatorResult:
    """Expected clamped squared derivative-to-value ratio under +-1 inputs.

    Each draw uses an independent point A and direction B; the statistic is
    scale invariant and always lies in [0, 1].
    """
    return ratio_estimate(p, BERNOULLI, samples, rng, workers=workers)


def estimate_beta(
    p: MultilinearPolynomial, samples: int, rng: Rng, *, workers: int = 1
) -> EstimatorResult:
    """Gaussian analogue of :func:`estimate_alpha`: E min(1, (D_Y p(X) / p(X))^2).

    Draws D_Y p(X) as |grad p(X)| Z with one N(0, 1) scalar Z per row
    (see :func:`ratio_estimate`).
    """
    return ratio_estimate(p, GAUSSIAN, samples, rng, workers=workers)


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
    grads = np.array([evaluate_on_hypercube(part) for part in p.partials])
    grads = grads.reshape(n, size)
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
    levels = sorted(float(t) for t in thresholds)
    if not levels or not all(0.0 < t < math.inf for t in levels):
        raise InputError(f"thresholds must be positive and finite, got {levels}")
    cuts = np.array(levels) * l2
    above = lambda points, values, deriv: np.abs(values)[:, None] > cuts[None, :]
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
    _check_eps(eps)
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
    _check_eps(eps)
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
    widths = {dist: _width(form.n, dist, False) for dist, form in forms.items()}

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
        grid = np.asarray(list(t_grid), dtype=np.float64)
        if grid.size == 0:
            raise InputError("threshold grid must be nonempty")
        if not np.all(np.isfinite(grid)):
            raise InputError(f"thresholds must be finite, got {grid.tolist()}")
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
    """
    if p.n != q.n:
        raise InputError(f"dimension mismatch: n={p.n} vs n={q.n}")
    support = tuple(sorted(set(p.support) | set(q.support)))
    e = max(_exponent(p), _exponent(q))
    pc, qc = (_ldexp(r.compress_support(support)[0], -e) for r in (p, q))

    def share(dist: str, stream: Rng) -> EstimatorResult:
        below = lambda points, values, deriv: np.abs(values) <= np.abs(qc.eval_many(points.T))
        return _run_sampler(below, pc, dist, samples, stream, workers)[0]

    bern, gauss = share(BERNOULLI, rng.child(0)), share(GAUSSIAN, rng.child(1))
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

    The left side is the enumerated t-th moment (even t only), the right
    side comes from coefficient arithmetic.  The moment is taken of
    u / |u|_2 for the unit form u of p (:func:`_unit`), so no power
    overflows or underflows, and the 1e-9 slack is relative to |p|_2.  Both
    sides are reported in p's units, so |p|_2 = inf is refused
    (:meth:`MultilinearPolynomial.moments`).
    """
    if not isinstance(t, int) or t % 2 != 0 or t < 2:
        raise InputError(f"the exact path needs an even moment order >= 2, got {t!r}")
    p.moments()  # refuses |p|_2 = inf
    e = _exponent(p)
    unit = _ldexp(p, -e)
    norm = unit.moments().l2_norm
    scale = norm or 1.0  # the zero polynomial has zero values
    ratio = float(np.mean(np.abs(evaluate_on_hypercube(unit) / scale) ** t) ** (1.0 / t))
    factor = math.sqrt(t - 1.0) ** p.degree
    l2 = math.ldexp(norm, e)  # |p|_2
    return HypercontractivityCheck(
        t=t, lhs=ratio * l2, rhs=factor * l2, holds=ratio <= factor + 1e-9, degree=p.degree
    )


# ---------------------------------------------------------------------------
# random instances


def random_polynomial(
    n: int, degree: int, terms: int, rng: Rng
) -> MultilinearPolynomial:
    """Random multilinear polynomial: distinct uniform subsets of size <= degree,
    standard normal coefficients, deterministic per (seed, stream)."""
    MultilinearPolynomial.zero(n)  # the constructor's checks of n, before any draw
    if degree < 0 or degree > n:
        raise InputError(f"need 0 <= degree <= n, got degree={degree}")
    if terms < 0:
        raise InputError(f"term count must be non-negative, got {terms}")
    available = sum(math.comb(n, k) for k in range(degree + 1))
    if terms > available:
        raise CapExceededError(
            f"requested {terms} distinct subsets but only {available} of size <= {degree} exist"
        )
    gen = rng.generator()
    chosen: dict[int, float] = {}
    if available <= (1 << 20):
        import itertools

        masks = [
            mask_from_indices(combo)
            for k in range(degree + 1)
            for combo in itertools.combinations(range(n), k)
        ]
        picked = gen.choice(len(masks), size=terms, replace=False)
        coeffs = gen.standard_normal(terms)
        for idx, coeff in zip(picked, coeffs):
            chosen[masks[int(idx)]] = float(coeff)
    else:
        weights = np.array([math.comb(n, k) for k in range(degree + 1)], dtype=np.float64)
        weights /= weights.sum()
        while len(chosen) < terms:
            k = int(gen.choice(degree + 1, p=weights))
            indices = gen.choice(n, size=k, replace=False) if k else ()
            mask = mask_from_indices(int(i) for i in indices)
            if mask in chosen:
                continue
            chosen[mask] = float(gen.standard_normal())
    return MultilinearPolynomial(n, chosen)
