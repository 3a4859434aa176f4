"""Restriction trees, leaf classification and block decomposition checks.

``build_regularity_tree`` repeatedly restricts the most influential
coordinates of every leaf whose polynomial is neither regular nor almost
surely of one sign, until the probability mass of such "bad" leaves drops
below the configured target or a budget runs out.  A tree is held as its
leaves in depth-first order, -1 branch first; their paths partition the
cube, so no interior node is stored.  The remaining operations verify
the structural facts the tree and the block split rest on: the
tree-sensitivity inequality, the exact block decomposition of average
sensitivity, and the per-block ratio statistics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InputError
from .hypercube import SignFunction, average_sensitivity_exact, evaluate_on_hypercube, truth_table
from .hypercube import _table_average_sensitivity
from .polynomial import MultilinearPolynomial, _unit, sign_pm1
from .randomized import EstimatorResult, Rng, _block_ratios, estimate_alpha, exact_alpha

_FORMULA_DOMAIN_CAP = 0.2499999999
# per-leaf cost policy, not a feasibility limit: a leaf whose support has at
# most this many variables gets its sign label verified by enumeration
_EXACT_LEAF_SUPPORT = 12
# at most this many influential coordinates are restricted per leaf and round
_EXPAND_BUDGET = 12
# a tree stops splitting at this many leaves, which bounds its memory
_MAX_LEAVES = 1 << 16
# recursion trace: leaves measured and restrictions carried per level, and
# random outside assignments drawn per block
_RECURSION_POOL = 6
_RESTRICTIONS_PER_BLOCK = 2


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RegularityConfig:
    """The four parameters of the restriction tree.

    ``tau`` is the regularity target, ``eps`` the sign-constancy tolerance,
    ``delta`` the acceptable probability mass of unresolved leaves and
    ``big_m`` the exponent constant of the influence-threshold formula.
    The tree runs at most 8 * 2^degree * ceil(ln(1/delta)) rounds and
    stops splitting at 2^16 leaves, which bounds its memory.  Each round
    restricts at most 12 coordinates per bad leaf, and leaves are labelled
    by :func:`classify_leaf`, which enumerates leaves of at most 12 support
    variables; none of these numbers is configurable.
    """

    tau: float
    eps: float
    delta: float
    big_m: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.tau < math.inf:
            raise InputError(f"tau must be positive and finite, got {self.tau}")
        if not 0 < self.eps < 0.25:
            raise InputError(f"eps must lie in (0, 1/4), got {self.eps}")
        if not 0 < self.delta < 0.25:
            raise InputError(f"delta must lie in (0, 1/4), got {self.delta}")
        if not 0 < self.big_m < math.inf:
            raise InputError(f"big_m must be positive and finite, got {self.big_m}")

    def rounds_budget(self, degree: int) -> int:
        return 8 * (1 << max(1, degree)) * max(1, math.ceil(-math.log(self.delta)))


class LeafKind(Enum):
    REGULAR = "regular"
    NEAR_CONSTANT = "near_constant"
    BAD = "bad"


@dataclass(frozen=True)
class LeafClass:
    kind: LeafKind
    sign: int | None = None
    exact_verified: bool = False

    def __post_init__(self) -> None:
        if self.kind is LeafKind.NEAR_CONSTANT:
            if self.sign not in (-1, 1):
                raise InputError("near-constant leaves carry a +-1 sign label")
        elif self.sign is not None:
            raise InputError(f"{self.kind.value} leaves carry no sign label")


@dataclass(frozen=True)
class Leaf:
    polynomial: MultilinearPolynomial
    label: LeafClass
    path: tuple[tuple[int, int], ...]

    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def probability(self) -> float:
        return 2.0 ** (-self.depth)


def _bad_mass(leaves: Sequence[Leaf]) -> float:
    return sum(leaf.probability for leaf in leaves if leaf.label.kind is LeafKind.BAD)


@dataclass(frozen=True)
class DecisionTree:
    """Restriction tree held as its classified leaves.

    The leaves come in depth-first order with the -1 branch before the +1
    branch, so two consecutive leaves share a path prefix and then fix the
    same coordinate to -1 and to +1.  Their paths partition the cube, so
    they determine the tree.  Every path fixes each coordinate at most
    once, and each leaf polynomial is ``root.restrict(dict(path))``.
    ``success`` reports truthfully whether the bad-leaf mass target was
    met before the budgets ran out.
    """

    leaves: tuple[Leaf, ...]
    n: int
    success: bool
    diagnostics: dict

    @property
    def depth(self) -> int:
        return max(leaf.depth for leaf in self.leaves)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def bad_mass(self) -> float:
        return _bad_mass(self.leaves)

    def leaf_counts(self) -> dict[str, int]:
        counts = Counter(leaf.label.kind.value for leaf in self.leaves)
        return {kind.value: counts.get(kind.value, 0) for kind in LeafKind}


# ---------------------------------------------------------------------------
# classification


def influential_set(p: MultilinearPolynomial, m: float) -> set[int]:
    """Coordinates whose influence exceeds ``m >= 0``; at most total_influence/m many if m > 0."""
    if not m >= 0:
        raise InputError(f"influence threshold must be non-negative, got {m}")
    infl = p.influences()
    return {i for i in range(p.n) if infl[i] > m}


def default_threshold(tau: float, eps: float, d: int, big_m: float) -> float:
    """Influence cutoff tau * (d ln(1/tau) ln(1/eps))^(-big_m d), for |p|_2 = 1."""
    if not 0 < tau < 0.25:
        raise InputError(f"tau must lie in (0, 1/4), got {tau}")
    if not 0 < eps < 0.25:
        raise InputError(f"eps must lie in (0, 1/4), got {eps}")
    if not isinstance(d, int) or d < 1:
        raise InputError(f"degree must be a positive integer, got {d!r}")
    if not big_m >= 0:
        raise InputError(f"big_m must be non-negative, got {big_m}")
    base = d * math.log(1.0 / tau) * math.log(1.0 / eps)
    return tau * base ** (-big_m * d)


def classify_leaf(p: MultilinearPolynomial, tau: float, eps: float) -> LeafClass:
    """Label a restricted polynomial Regular, NearConstant(sign) or Bad.

    Checked in that order, on the unit form of p (:func:`_unit`), so the
    label is the same at any finite scale of p and no square overflows.
    The sign test enumerates the support variables when there are at most
    12 of them (a per-leaf cost policy, far inside the enumeration budget);
    otherwise it falls back to the variance criterion
    var <= (4 ln(1/eps))^(-d/2) * mean^2.  ``tau`` must be positive and
    finite and ``eps`` lie in (0, 1), for constants too.
    """
    if not 0 < tau < math.inf:
        raise InputError(f"tau must be positive and finite, got {tau}")
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    p = _unit(p)
    mom = p.moments()
    if mom.variance > 0 and p.is_regular(tau):
        return LeafClass(LeafKind.REGULAR)
    sign = sign_pm1(mom.mean)
    compressed, _ = p.compress_support()
    if compressed.n <= _EXACT_LEAF_SUPPORT:
        mismatch = float(np.mean((evaluate_on_hypercube(compressed) >= 0.0) != (sign > 0)))
        if mismatch <= eps:
            return LeafClass(LeafKind.NEAR_CONSTANT, sign, exact_verified=True)
        return LeafClass(LeafKind.BAD)
    criterion = (4.0 * math.log(1.0 / eps)) ** (-p.degree / 2.0) * mom.mean**2
    if mom.variance <= criterion:
        return LeafClass(LeafKind.NEAR_CONSTANT, sign=sign)
    return LeafClass(LeafKind.BAD)


# ---------------------------------------------------------------------------
# tree construction


def _expansion_threshold(poly: MultilinearPolynomial, config: RegularityConfig) -> float:
    # The threshold formula is stated for tau, eps in (0, 1/4) and a unit-norm
    # polynomial; clamp the former and rescale by the actual norm.
    tau = min(config.tau, _FORMULA_DOMAIN_CAP)
    eps = min(config.eps, _FORMULA_DOMAIN_CAP)
    d = max(1, poly.degree)
    return default_threshold(tau, eps, d, config.big_m) * poly.moments().l2_norm ** 2


def _expansion_order(poly: MultilinearPolynomial, config: RegularityConfig) -> list[int]:
    # on the unit form, so the order is the same at any finite scale: the
    # influential coordinates (else the most influential free one of the
    # support), by decreasing influence with ties to the lower index, at
    # most _EXPAND_BUDGET of them
    poly = _unit(poly)
    coords = influential_set(poly, _expansion_threshold(poly, config))
    infl = poly.influences()
    order = sorted(coords or poly.support, key=lambda i: (-infl[i], i))
    return order[:_EXPAND_BUDGET] if coords else order[:1]


def build_regularity_tree(p: MultilinearPolynomial, config: RegularityConfig) -> DecisionTree:
    """Expand bad leaves round by round until their mass is at most delta.

    Each round walks the leaves in order and replaces every bad leaf by the
    leaves of its expansion: the coordinates whose influence exceeds the
    threshold formula, fixed one at a time in decreasing-influence order
    (ties to the lower index), re-classifying after every step and
    descending only into branches that are still bad.  Every child is
    ``p.restrict(dict(path))``, one exact restriction from the root.  An
    expansion fixes only free coordinates, so no path is longer than n.
    Labels and expansion orders are read from each node's unit form, so the
    tree is the same at any finite scale of p.
    The rounds budget of ``config`` and the cap of 2^16 leaves bound the
    expansion; if the mass target is missed the returned tree carries
    ``success=False`` plus diagnostics rather than failing.
    """

    def classify(poly: MultilinearPolynomial) -> LeafClass:
        return classify_leaf(poly, config.tau, config.eps)

    rounds_budget = config.rounds_budget(p.degree)
    leaf_count = 1
    exhausted = False

    def split_allowed() -> bool:
        nonlocal exhausted
        if leaf_count >= _MAX_LEAVES:
            exhausted = True
            return False
        return True

    def grow(order: list[int], path, out: list[Leaf]) -> None:
        nonlocal leaf_count
        leaf_count += 1
        coordinate, rest = order[0], order[1:]
        for value in (-1, 1):
            child_path = path + ((coordinate, value),)
            child_poly = p.restrict(dict(child_path))
            label = classify(child_poly)
            if label.kind is LeafKind.BAD and rest and split_allowed():
                grow(rest, child_path, out)
            else:
                out.append(Leaf(child_poly, label, child_path))

    leaves = [Leaf(p, classify(p), ())]
    rounds_used = 0
    while _bad_mass(leaves) > config.delta and rounds_used < rounds_budget:
        count_before = leaf_count
        grown: list[Leaf] = []
        for leaf in leaves:
            if leaf.label.kind is LeafKind.BAD and split_allowed():
                grow(_expansion_order(leaf.polynomial, config), leaf.path, grown)
            else:
                grown.append(leaf)
        leaves = grown
        rounds_used += 1
        if leaf_count == count_before:
            break

    final_bad = _bad_mass(leaves)
    return DecisionTree(
        leaves=tuple(leaves),
        n=p.n,
        success=final_bad <= config.delta,
        diagnostics={
            "rounds_used": rounds_used,
            "rounds_budget": rounds_budget,
            "bad_mass": final_bad,
            "leaf_count": leaf_count,
            "budget_exhausted": exhausted,
        },
    )


# ---------------------------------------------------------------------------
# verification of the structural facts


@dataclass(frozen=True)
class TreeSensitivityCheck:
    as_exact: float
    depth: int
    leaf_expectation: float
    holds: bool


def _leaf_average_sensitivity(poly: MultilinearPolynomial) -> float:
    return average_sensitivity_exact(SignFunction(poly.compress_support()[0]))


def tree_sensitivity_check(f: SignFunction, tree: DecisionTree) -> TreeSensitivityCheck:
    """Exactly compare as(f) with tree depth plus the expected leaf sensitivity."""
    if tree.n != f.n:
        raise InputError(f"tree is for n={tree.n}, function has n={f.n}")
    as_exact = average_sensitivity_exact(f)
    leaf_expectation = sum(
        leaf.probability * _leaf_average_sensitivity(leaf.polynomial) for leaf in tree.leaves
    )
    depth = tree.depth
    return TreeSensitivityCheck(
        as_exact=as_exact,
        depth=depth,
        leaf_expectation=leaf_expectation,
        holds=as_exact <= depth + leaf_expectation + 1e-9,
    )


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint coordinate blocks covering {0..n-1}."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            for i in block:
                if i in seen or not 0 <= i < self.n:
                    raise InputError("blocks must be disjoint subsets of {0..n-1}")
                seen.add(i)
        if len(seen) != self.n:
            raise InputError("blocks must cover every coordinate")

    @property
    def b(self) -> int:
        return len(self.blocks)


def block_partition(n: int, b: int) -> BlockPartition:
    """Split {0..n-1} into b contiguous blocks whose sizes differ by at most 1."""
    if not (_is_int(n) and _is_int(b) and 1 <= b <= n):
        raise InputError(f"need integers 1 <= b <= n, got b={b!r}, n={n!r}")
    big = n % b
    small_size, cursor, blocks = n // b, 0, []
    for j in range(b):
        size = small_size + (1 if j < big else 0)
        blocks.append(tuple(range(cursor, cursor + size)))
        cursor += size
    return BlockPartition(n, tuple(blocks))


@dataclass(frozen=True)
class BlockIdentityCheck:
    lhs: float
    rhs: float
    gap: float


def block_sensitivity_identity_check(f: SignFunction, partition: BlockPartition) -> BlockIdentityCheck:
    """as(f) versus the sum over blocks of the expected restricted sensitivity.

    The right side enumerates, per block, every assignment of the outside
    coordinates and the edge count of the restricted sub-function; the two
    sides agree identically, so any gap beyond rounding is a bug.  Both
    sides read the cached truth table of f.
    """
    n = f.n
    if partition.n != n:
        raise InputError(f"partition is for n={partition.n}, function has n={n}")
    cube = truth_table(f).reshape((2,) * n)  # axis n-1-i holds coordinate i
    lhs = average_sensitivity_exact(f)
    rhs = 0.0
    for block in partition.blocks:
        outside = [i for i in range(n) if i not in block]
        axes = [n - 1 - i for i in reversed(outside)] + [n - 1 - i for i in reversed(block)]
        # row: one assignment of the outside coordinates; column: the block's sub-cube
        sub = cube.transpose(axes).reshape(-1, 1 << len(block))
        rhs += _table_average_sensitivity(sub, len(block))
    return BlockIdentityCheck(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


def _block_reference(degree: int, alpha: float, b: int, tau: float) -> float:
    """Comparison value d^3 alpha sqrt(b) + d^4 b tau^(1/(8d)), with d = max(1, degree)."""
    d = max(1, degree)
    return d**3 * alpha * math.sqrt(b) + d**4 * b * tau ** (1.0 / (8.0 * d))


@dataclass(frozen=True)
class BlockAlphaReport:
    """Monte Carlo estimate of the summed per-block ratio statistic."""

    total: EstimatorResult
    per_block: tuple[EstimatorResult, ...]
    alpha_hat: EstimatorResult
    reference: float | None
    blocks: int


def block_alpha_sum(
    p: MultilinearPolynomial,
    partition: BlockPartition,
    samples: int,
    rng: Rng,
    *,
    tau: float | None = None,
    workers: int = 1,
) -> BlockAlphaReport:
    """Estimate sum over blocks of E[alpha of the block restriction].

    Every block term comes from one +-1 draw on stream ``rng``: each row
    draws one point A, which samples the outside assignment and the inner
    point of every block jointly, and one direction B, and block j reads
    the derivative along B zeroed off the block, so each block term is an
    unbiased single-level expectation.  ``total`` is the mean of the
    per-row sums over the blocks; its standard error counts the
    correlation between the blocks, which share A and B.  ``alpha_hat``
    is :func:`estimate_alpha` on stream ``rng.child(b)``.  When ``tau``
    (positive and finite) is given the report also carries the comparison
    value d^3 alpha_hat sqrt(b) + d^4 b tau^(1/(8d)), the block reference
    with both constants fixed at 1.
    """
    if partition.n != p.n:
        raise InputError(f"partition is for n={partition.n}, polynomial has n={p.n}")
    if tau is not None and not 0 < tau < math.inf:
        raise InputError(f"tau must be positive and finite, got {tau}")
    *per_block, total = _block_ratios(p, partition.blocks, samples, rng, workers)
    alpha_hat = estimate_alpha(p, samples, rng.child(partition.b), workers=workers)
    reference = None
    if tau is not None:
        reference = _block_reference(p.degree, alpha_hat.estimate, partition.b, tau)
    return BlockAlphaReport(
        total=total,
        per_block=tuple(per_block),
        alpha_hat=alpha_hat,
        reference=reference,
        blocks=partition.b,
    )


# ---------------------------------------------------------------------------
# observational recursion trace


@dataclass(frozen=True)
class RecursionLevel:
    level: int
    b: int
    pool_size: int
    active_vars: int
    measured_alpha_sum: float
    reference: float | None
    mean_block_alpha: float
    per_block_alpha: tuple[float, ...]
    leaf_counts: dict[str, int]


@dataclass(frozen=True)
class RecursionTrace:
    levels: tuple[RecursionLevel, ...]
    success: bool
    diagnostics: dict


def recursion_trace(
    p: MultilinearPolynomial,
    blocks_per_level: Sequence[int],
    config: RegularityConfig,
    samples: int,
    rng: Rng,
    *,
    workers: int = 1,
) -> RecursionTrace:
    """Run regularize -> partition -> measure per-block alpha, level by level.

    Purely observational: it records the empirical distribution of the
    per-block ratio statistics and the level-over-level decay, without any
    claim beyond the measured numbers.  ``blocks_per_level`` gives 1 to 3
    positive block counts.  Every level builds its restriction trees with
    ``config`` and compares against the block reference of
    :func:`block_alpha_sum` at ``config.tau``.  Each level measures at
    most 6 of its heaviest regular leaves, and level k+1 starts from the 6
    heaviest of their support-compressed random block restrictions (2 per
    block).
    """
    levels_b = tuple(blocks_per_level)
    if not 1 <= len(levels_b) <= 3:
        raise InputError("desk-scale schedules run between 1 and 3 levels")
    if not all(_is_int(b) and b >= 1 for b in levels_b):
        raise InputError(f"block counts must be positive integers, got {levels_b!r}")
    pool: list[tuple[float, MultilinearPolynomial]] = [(1.0, p)]
    levels = []
    tree_failures = 0
    for level, b in enumerate(levels_b):
        level_rng = rng.child(level)
        leaf_counts: Counter = Counter()
        regular_entries: list[tuple[float, MultilinearPolynomial]] = []
        for weight, poly in pool:
            tree = build_regularity_tree(poly, config)
            if not tree.success:
                tree_failures += 1
            for kind, count in tree.leaf_counts().items():
                leaf_counts[kind] += count
            for leaf in tree.leaves:
                if leaf.label.kind is LeafKind.REGULAR:
                    regular_entries.append((weight * leaf.probability, leaf.polynomial))
        regular_entries.sort(key=lambda entry: -entry[0])
        selected = regular_entries[:_RECURSION_POOL]

        per_block: list[float] = []
        alpha_sums: list[tuple[float, float]] = []
        next_pool: list[tuple[float, MultilinearPolynomial]] = []
        active_vars = 0
        for index, (weight, poly) in enumerate(selected):
            compressed, _ = poly.compress_support()
            active_vars = max(active_vars, compressed.n)
            partition = block_partition(compressed.n, min(b, compressed.n))
            *block_results, total = _block_ratios(
                compressed, partition.blocks, samples, level_rng.child(index), workers
            )
            per_block.extend(r.estimate for r in block_results)
            alpha_sums.append((weight, total.estimate))
            draw_rng = level_rng.child(10_000 + index)
            for block_idx, block in enumerate(partition.blocks):
                outside = [i for i in range(compressed.n) if i not in set(block)]
                for rep in range(_RESTRICTIONS_PER_BLOCK):
                    gen = draw_rng.child(block_idx * _RESTRICTIONS_PER_BLOCK + rep).generator()
                    assignment = {
                        i: int(v) for i, v in zip(outside, gen.integers(0, 2, len(outside)) * 2 - 1)
                    }
                    share = weight / (partition.b * _RESTRICTIONS_PER_BLOCK)
                    next_pool.append((share, compressed.restrict(assignment)))

        total_weight = sum(w for w, _ in alpha_sums)
        measured = (
            sum(w * v for w, v in alpha_sums) / total_weight if total_weight > 0 else 0.0
        )
        reference = None
        if alpha_sums:
            mean_alpha = float(np.mean([v for _, v in alpha_sums]))
            reference = _block_reference(p.degree, mean_alpha, b, config.tau)
        levels.append(
            RecursionLevel(
                level=level,
                b=b,
                pool_size=len(pool),
                active_vars=active_vars,
                measured_alpha_sum=measured,
                reference=reference,
                mean_block_alpha=float(np.mean(per_block)) if per_block else 0.0,
                per_block_alpha=tuple(per_block),
                leaf_counts={k: leaf_counts.get(k, 0) for k in ("regular", "near_constant", "bad")},
            )
        )
        next_pool.sort(key=lambda entry: -entry[0])
        pool = next_pool[:_RECURSION_POOL]
        if not pool:
            break
    return RecursionTrace(
        levels=tuple(levels),
        success=tree_failures == 0,
        diagnostics={"tree_failures": tree_failures, "levels_run": len(levels)},
    )


# ---------------------------------------------------------------------------
# small-ratio spot check


@dataclass(frozen=True)
class SmallAlphaCheck:
    alpha: float
    as_exact: float
    ratio: float


def small_alpha_check(p: MultilinearPolynomial) -> SmallAlphaCheck:
    """Exact alpha next to exact average sensitivity of sgn(p), with their ratio."""
    alpha = exact_alpha(p)
    sensitivity = average_sensitivity_exact(SignFunction(p))
    ratio = 0.0 if sensitivity == 0.0 else sensitivity / alpha
    return SmallAlphaCheck(alpha=alpha, as_exact=sensitivity, ratio=ratio)
