"""Seeded Monte Carlo samplers and estimators, with exact small-n oracles.

Reproducibility contract: every estimator is a pure function of
``(polynomial, parameters, seed, stream, samples, workers)``.  Draws come
from numpy's PCG64 seeded through ``SeedSequence(seed, spawn_key=...)``;
the sample budget is split into ``workers`` contiguous chunks, chunk ``c``
using spawn key ``(stream, c)``, and chunk results are merged in index
order.  Results are therefore bit-stable for a fixed worker count (and may
legitimately differ between worker counts).  Gaussian draws use numpy's
ziggurat, fixed within one build.

The ratio statistics clamp at 1.  When the denominator value p(A) is
exactly zero the integrand is defined as 1 if the gradient of p at A is
nonzero and 0 otherwise, the limit of the clamp along generic directions;
under Gaussian inputs the case has probability zero and the rule only
exists for robustness.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CapExceededError, InputError
from .hypercube import all_points, evaluate_on_hypercube
from .polynomial import MultilinearPolynomial, check_enumeration, mask_from_indices

BERNOULLI = "bernoulli"
GAUSSIAN = "gaussian"
_DISTRIBUTIONS = (BERNOULLI, GAUSSIAN)

_M64 = (1 << 64) - 1
_BATCH_ELEMENTS = 1 << 22


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
        """Generator for worker chunk ``chunk``; distinct from :meth:`generator`."""
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


def _chunk_sizes(samples: int, workers: int) -> list[int]:
    base, extra = divmod(samples, workers)
    return [base + (1 if c < extra else 0) for c in range(workers)]


def _run_mc(
    batch_fn: Callable[[np.random.Generator, int], np.ndarray],
    samples: int,
    rng: Rng,
    workers: int = 1,
    columns: int = 1,
) -> list[EstimatorResult]:
    """Accumulate ``batch_fn`` values over a chunked, seeded sample budget.

    ``batch_fn(gen, m)`` must return ``m`` integrand values (or an
    ``(m, columns)`` matrix).  One :class:`EstimatorResult` per column.
    """
    if samples < 1:
        raise InputError(f"need at least one sample, got {samples}")
    if workers < 1:
        raise InputError(f"worker count must be positive, got {workers}")
    workers = min(workers, samples)
    batch_rows = max(1, _BATCH_ELEMENTS // max(1, columns))

    def run_chunk(args: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, int]:
        index, size = args
        gen = rng.chunk_generator(index)
        total = np.zeros(columns)
        total_sq = np.zeros(columns)
        done = 0
        while done < size:
            m = min(batch_rows, size - done)
            values = np.asarray(batch_fn(gen, m), dtype=np.float64)
            if values.ndim == 1:
                values = values[:, None]
            total += values.sum(axis=0)
            total_sq += (values * values).sum(axis=0)
            done += m
        return total, total_sq, size

    tasks = list(enumerate(_chunk_sizes(samples, workers)))
    if workers == 1:
        chunk_results = [run_chunk(tasks[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(run_chunk, tasks))

    total = np.zeros(columns)
    total_sq = np.zeros(columns)
    count = 0
    for part_total, part_sq, part_count in chunk_results:
        total += part_total
        total_sq += part_sq
        count += part_count

    out = []
    for j in range(columns):
        mean = total[j] / count
        if count > 1:
            var = max(0.0, (total_sq[j] - total[j] * total[j] / count) / (count - 1))
        else:
            var = 0.0
        out.append(
            EstimatorResult(
                estimate=float(mean),
                std_error=float(math.sqrt(var / count)),
                samples=count,
                seed=rng.seed,
                stream=rng.stream,
            )
        )
    return out


# ---------------------------------------------------------------------------
# samplers


def _pm1_batch(gen: np.random.Generator, m: int, n: int) -> np.ndarray:
    return (gen.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1).astype(np.float64)


def sample_bernoulli(n: int, rng: Rng) -> np.ndarray:
    """One uniform +-1 point; the same (seed, stream) repeats the same point."""
    if n < 1:
        raise InputError(f"dimension must be positive, got {n}")
    return _pm1_batch(rng.generator(), 1, n)[0]


def sample_gaussian(n: int, rng: Rng) -> np.ndarray:
    """One standard normal point; deterministic per (seed, stream)."""
    if n < 1:
        raise InputError(f"dimension must be positive, got {n}")
    return rng.generator().standard_normal(n)


def sample_bernoulli_many(n: int, count: int, rng: Rng) -> np.ndarray:
    if n < 1 or count < 1:
        raise InputError("dimension and count must be positive")
    return _pm1_batch(rng.generator(), count, n)


def sample_gaussian_many(n: int, count: int, rng: Rng) -> np.ndarray:
    if n < 1 or count < 1:
        raise InputError("dimension and count must be positive")
    return rng.generator().standard_normal((count, n))


def _draw(gen: np.random.Generator, dist: str, m: int, n: int) -> np.ndarray:
    if dist == BERNOULLI:
        return _pm1_batch(gen, m, n)
    return gen.standard_normal((m, n))


def _check_dist(dist: str) -> str:
    if dist not in _DISTRIBUTIONS:
        raise InputError(f"distribution must be one of {_DISTRIBUTIONS}, got {dist!r}")
    return dist


# ---------------------------------------------------------------------------
# clamped derivative-to-value ratio (the alpha / beta integrand)


def _support_partials(
    p: MultilinearPolynomial, coords: Sequence[int] | None = None
) -> list[tuple[int, MultilinearPolynomial]]:
    active = p.support if coords is None else [i for i in coords if i in set(p.support)]
    return [(i, p.partial_derivative(i)) for i in active]


def _clamped_ratio_values(
    p: MultilinearPolynomial,
    parts: Sequence[tuple[int, MultilinearPolynomial]],
    points: np.ndarray,
    directions: np.ndarray,
) -> np.ndarray:
    """min(1, |D_v p(x)|^2 / |p(x)|^2) rows, with the zero-denominator rule."""
    values = p.eval_many(points)
    deriv = np.zeros(points.shape[0])
    for i, part in parts:
        deriv += directions[:, i] * part.eval_many(points)
    zero = values == 0.0
    safe = np.where(zero, 1.0, values)
    ratio = deriv / safe
    out = np.minimum(1.0, ratio * ratio)
    if zero.any():
        grad_sq = np.zeros(int(zero.sum()))
        at = points[zero]
        for _, part in parts:
            grad_sq += part.eval_many(at) ** 2
        out[zero] = (grad_sq > 0.0).astype(np.float64)
    return out


def _ratio_estimator(
    p: MultilinearPolynomial,
    dist: str,
    samples: int,
    rng: Rng,
    workers: int,
    antithetic: bool,
) -> EstimatorResult:
    parts = _support_partials(p)
    n = p.n

    def batch(gen: np.random.Generator, m: int) -> np.ndarray:
        points = _draw(gen, dist, m, n)
        directions = _draw(gen, dist, m, n)
        if antithetic:
            return 0.5 * (
                _clamped_ratio_values(p, parts, points, directions)
                + _clamped_ratio_values(p, parts, -points, directions)
            )
        return _clamped_ratio_values(p, parts, points, directions)

    return _run_mc(batch, samples, rng, workers)[0]


def estimate_alpha(
    p: MultilinearPolynomial,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
    antithetic: bool = False,
) -> EstimatorResult:
    """Expected clamped squared derivative-to-value ratio under +-1 inputs.

    Each draw uses an independent point A and direction B; the statistic is
    scale invariant and always lies in [0, 1].  With ``antithetic`` on,
    ``samples`` counts (A, -A) pair averages.
    """
    return _ratio_estimator(p, BERNOULLI, samples, rng, workers, antithetic)


def estimate_beta(
    p: MultilinearPolynomial,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
    antithetic: bool = False,
) -> EstimatorResult:
    """Gaussian analogue of :func:`estimate_alpha`."""
    return _ratio_estimator(p, GAUSSIAN, samples, rng, workers, antithetic)


def exact_alpha(p: MultilinearPolynomial) -> float:
    """Exact expectation of the alpha integrand over all 2^{2n} (A, B) pairs.

    Serves as the oracle for :func:`estimate_alpha`.  Its cost is the 4^n
    pairs, so the enumeration budget admits n <= 12.
    """
    n = p.n
    check_enumeration(f"exact alpha over the (A, B) pairs of n={n}", 1 << (2 * n))
    size = 1 << n
    values = evaluate_on_hypercube(p)
    grads = np.array([evaluate_on_hypercube(p.partial_derivative(i)) for i in range(n)])
    grads = grads.reshape(n, size)
    grad_sq = (grads**2).sum(axis=0)
    zero = values == 0.0
    safe = np.where(zero, 1.0, values)
    points = all_points(n)
    total = 0.0
    chunk = max(1, _BATCH_ELEMENTS // size)
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


def _require_nonzero(p: MultilinearPolynomial) -> float:
    l2 = p.moments().l2_norm
    if l2 == 0.0:
        raise InputError("operation requires a nonzero polynomial")
    return l2


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

    def to_csv(self) -> str:
        lines = ["threshold,probability,envelope"]
        for t, prob, env in zip(self.thresholds, self.probabilities, self.envelope):
            lines.append(f"{t!r},{prob!r},{env!r}")
        return "\r\n".join(lines) + "\r\n"


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
    _check_dist(dist)
    l2 = _require_nonzero(p)
    levels = sorted(float(t) for t in thresholds)
    if not levels or levels[0] <= 0.0:
        raise InputError("thresholds must be positive")
    cuts = np.array(levels) * l2
    n = p.n

    def batch(gen: np.random.Generator, m: int) -> np.ndarray:
        magnitudes = np.abs(p.eval_many(_draw(gen, dist, m, n)))
        return (magnitudes[:, None] > cuts[None, :]).astype(np.float64)

    results = _run_mc(batch, samples, rng, workers, columns=len(levels))
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
    l2 = _require_nonzero(p)
    values = evaluate_on_hypercube(p)
    return float(np.mean(np.abs(values) >= l2 / 2.0))


def weak_anticoncentration_estimate(
    p: MultilinearPolynomial,
    dist: str,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
) -> EstimatorResult:
    _check_dist(dist)
    l2 = _require_nonzero(p)
    n = p.n

    def batch(gen: np.random.Generator, m: int) -> np.ndarray:
        return (np.abs(p.eval_many(_draw(gen, dist, m, n))) >= l2 / 2.0).astype(np.float64)

    return _run_mc(batch, samples, rng, workers)[0]


def carbery_wright_estimate(
    p: MultilinearPolynomial,
    eps: float,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
) -> EstimatorResult:
    """Estimate Pr(|p(X)| <= eps |p|_2) under Gaussian input."""
    if eps <= 0.0:
        raise InputError(f"eps must be positive, got {eps}")
    l2 = _require_nonzero(p)
    n = p.n

    def batch(gen: np.random.Generator, m: int) -> np.ndarray:
        return (np.abs(p.eval_many(gen.standard_normal((m, n)))) <= eps * l2).astype(np.float64)

    return _run_mc(batch, samples, rng, workers)[0]


def rotation_pair(x: np.ndarray, y: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotate a pair of vectors: (cos t * x + sin t * y, -sin t * x + cos t * y).

    For independent standard Gaussians the output pair is again a pair of
    independent standard Gaussians, for every fixed angle.
    """
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"length mismatch: {a.shape} vs {b.shape}")
    c, s = math.cos(theta), math.sin(theta)
    return c * a + s * b, -s * a + c * b


def strong_anticoncentration_estimate(
    p: MultilinearPolynomial,
    eps: float,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
) -> EstimatorResult:
    """Estimate Pr(|p(X)| <= eps |D_Y p(X)|) with independent Gaussian X, Y."""
    if eps <= 0.0:
        raise InputError(f"eps must be positive, got {eps}")
    if p.degree < 1:
        raise InputError("degenerate for constant polynomials: the event has probability 0")
    parts = _support_partials(p)
    n = p.n

    def batch(gen: np.random.Generator, m: int) -> np.ndarray:
        points = gen.standard_normal((m, n))
        directions = gen.standard_normal((m, n))
        values = np.abs(p.eval_many(points))
        deriv = np.zeros(m)
        for i, part in parts:
            deriv += directions[:, i] * part.eval_many(points)
        return (values <= eps * np.abs(deriv)).astype(np.float64)

    return _run_mc(batch, samples, rng, workers)[0]


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


def _collect_values(
    p: MultilinearPolynomial, dist: str, samples: int, rng: Rng, workers: int
) -> np.ndarray:
    n = p.n
    batch_rows = max(1, _BATCH_ELEMENTS // max(1, n))
    pieces = []
    for index, size in enumerate(_chunk_sizes(samples, min(workers, samples))):
        gen = rng.chunk_generator(index)
        done = 0
        while done < size:
            m = min(batch_rows, size - done)
            pieces.append(p.eval_many(_draw(gen, dist, m, n)))
            done += m
    return np.concatenate(pieces)


def invariance_gap(
    p: MultilinearPolynomial,
    t_grid: Sequence[float] | None,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
    grid_points: int = 201,
) -> InvarianceGap:
    """Estimate sup_t |Pr(p(X) <= t) - Pr(p(A) <= t)| on a threshold grid.

    Both CDFs are estimated from ``samples`` fresh draws.  When ``t_grid``
    is None the grid is ``grid_points`` evenly spaced quantiles of the
    pooled sample, which adapts to wherever the distributions put mass.
    """
    if samples < 1:
        raise InputError(f"need at least one sample, got {samples}")
    gaussian = _collect_values(p, GAUSSIAN, samples, rng.child(0), workers)
    bernoulli = _collect_values(p, BERNOULLI, samples, rng.child(1), workers)
    if t_grid is None:
        pooled = np.concatenate([gaussian, bernoulli])
        grid = np.quantile(pooled, np.linspace(0.0, 1.0, grid_points))
    else:
        grid = np.asarray(list(t_grid), dtype=np.float64)
        if grid.size == 0:
            raise InputError("threshold grid must be nonempty")
        if np.any(np.diff(grid) < 0):
            raise InputError("threshold grid must be sorted")
    gaussian.sort()
    bernoulli.sort()
    cdf_x = np.searchsorted(gaussian, grid, side="right") / samples
    cdf_a = np.searchsorted(bernoulli, grid, side="right") / samples
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
    independent proportion estimates.
    """
    if p.n != q.n:
        raise InputError(f"dimension mismatch: n={p.n} vs n={q.n}")
    n = p.n

    def make_batch(dist: str):
        def batch(gen: np.random.Generator, m: int) -> np.ndarray:
            pts = _draw(gen, dist, m, n)
            return (np.abs(p.eval_many(pts)) <= np.abs(q.eval_many(pts))).astype(np.float64)

        return batch

    bern = _run_mc(make_batch(BERNOULLI), samples, rng.child(0), workers)[0]
    gauss = _run_mc(make_batch(GAUSSIAN), samples, rng.child(1), workers)[0]
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
    side comes from coefficient arithmetic.
    """
    if not isinstance(t, int) or t % 2 != 0 or t < 2:
        raise InputError(f"the exact path needs an even moment order >= 2, got {t!r}")
    values = evaluate_on_hypercube(p)
    lhs = float(np.mean(np.abs(values) ** t) ** (1.0 / t))
    rhs = math.sqrt(t - 1.0) ** p.degree * p.moments().l2_norm
    return HypercontractivityCheck(t=t, lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-9, degree=p.degree)


# ---------------------------------------------------------------------------
# random instances


def random_polynomial(
    n: int, degree: int, terms: int, rng: Rng
) -> MultilinearPolynomial:
    """Random multilinear polynomial: distinct uniform subsets of size <= degree,
    standard normal coefficients, deterministic per (seed, stream)."""
    if n < 0:
        raise InputError(f"dimension must be non-negative, got {n}")
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
