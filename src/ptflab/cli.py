"""Command-line entry point: analyze polynomials, generate instances, run suites.

Exit codes: 0 success, 1 a statistical hard check failed, 2 usage or input
error, 3 infeasible request (over the enumeration budget), 4 an exact
algebraic identity row failed (implementation bug).  Every randomized
command prints the effective seed to stderr, and report bundles contain no
timestamps, so a fixed seed reproduces byte-identical output at any
``--workers``, which sets the thread count only.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import secrets
import sys
from pathlib import Path

import click
import numpy as np

from .decompose import (
    LeafKind,
    RegularityConfig,
    block_alpha_sum,
    block_partition,
    block_sensitivity_identity_check,
    build_regularity_tree,
    recursion_trace,
    small_alpha_check,
    tree_sensitivity_check,
)
from .errors import CapExceededError, InputError
from .hypercube import (
    SignFunction,
    all_points,
    average_sensitivity_exact,
    average_sensitivity_fourier,
    evaluate_on_hypercube,
    fourier,
    gl_bound,
    gl_report_row,
    middle_layers_witness,
    noise_sensitivity_exact,
    theorem_bound,
    theorem_log_bound,
)
from .hypercube import _subcube_table
from .polynomial import ENUMERATION_BUDGET, MultilinearPolynomial, _integer, check_enumeration
from .randomized import (
    Rng,
    abs_comparison_gap,
    carbery_wright_estimate,
    estimate_alpha,
    exact_alpha,
    hypercontractivity_check,
    invariance_gap,
    random_polynomial,
    strong_anticoncentration_estimate,
    weak_anticoncentration_exact,
)

EXIT_HARD_FAIL = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INVARIANT = 4

NS_DELTAS = (0.001, 0.01, 0.1)

IDENTITY_TOL = 1e-9


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# Exact identities that both ``analyze`` and the invariants suite report, each
# as (holds, value, reference).


def _influence_sandwich(p: MultilinearPolynomial) -> tuple[bool, float, float]:
    """Var[p] <= I[p] <= max(1, deg p) Var[p]: (holds, I[p], Var[p])."""
    variance, total = p.moments().variance, p.total_influence()
    slack = IDENTITY_TOL * total
    holds = variance <= total + slack and total <= max(1, p.degree) * variance + slack
    return holds, total, variance


def _as_two_path(f: SignFunction) -> tuple[bool, float, float]:
    """as(f) by edge counting and by Fourier weights: (holds, edges, Fourier)."""
    edges = average_sensitivity_exact(f)
    weighted = average_sensitivity_fourier(f)
    return abs(edges - weighted) <= IDENTITY_TOL, edges, weighted


# ---------------------------------------------------------------------------
# plumbing


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(EXIT_INPUT)
        except CapExceededError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(EXIT_INFEASIBLE)

    return wrapper


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbits(48)
    click.echo(f"seed: {seed}", err=True)
    return seed


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        Path(out).write_text(text)
    except OSError as e:
        raise InputError(f"cannot write {out}: {e}") from e


def _emit_json(obj: dict, out: str | None) -> None:
    """Write ``obj`` as strict JSON; a non-finite number is an input error."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as e:
        raise InputError(f"the report holds a non-finite number ({e})") from e
    _emit(text, out)


def _load_polynomial(path: str) -> MultilinearPolynomial:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read polynomial file {path}: {e}") from e
    return MultilinearPolynomial.from_json(text)


@dataclasses.dataclass(frozen=True)
class SuiteRow:
    """One report row; ``kind`` decides how a failure affects the exit code.

    ``identity`` rows are exact must-hold facts (failure exits 4),
    ``hard`` rows are seeded statistical gates (failure exits 1) and
    ``info`` rows are observational.  ``extra`` carries a structured
    payload (serialized into JSON bundles only).
    """

    check: str
    instance: str
    kind: str
    status: str
    value: float | None = None
    reference: float | None = None
    detail: str = ""
    extra: dict | None = None

    def to_json_dict(self) -> dict:
        out = dict(vars(self))  # the fields in order; dataclasses.asdict deep-copies, about 20 µs a row
        if self.extra is None:
            del out["extra"]
        return out


def _row(check, instance, kind, passed, value=None, reference=None, detail="", extra=None) -> SuiteRow:
    # a numpy scalar becomes its Python scalar, so both bundles print it as a number
    value, reference = (v.item() if isinstance(v, np.generic) else v for v in (value, reference))
    if kind == "info":
        status = "info"
    else:
        status = "pass" if passed else "fail"
    return SuiteRow(check, instance, kind, status, value, reference, detail, extra)


def _bundle_exit_code(rows: list[SuiteRow]) -> int:
    if any(r.kind == "identity" and r.status == "fail" for r in rows):
        return EXIT_INVARIANT
    if any(r.kind == "hard" and r.status == "fail" for r in rows):
        return EXIT_HARD_FAIL
    return 0


def _rows_to_csv(rows: list[SuiteRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    names = [field.name for field in dataclasses.fields(SuiteRow) if field.name != "extra"]
    writer.writerow(names)
    for r in rows:
        cells = (getattr(r, name) for name in names)
        writer.writerow("" if v is None else v if isinstance(v, str) else repr(v) for v in cells)
    return buffer.getvalue()


def sweep_instances(rng: Rng, count: int, n_range=(2, 10), d_max=3):
    """Deterministic stream of random nonconstant polynomial instances of 2 to 12 terms."""
    for k in range(count):
        inst = rng.child(k)
        gen = inst.generator()
        n = int(gen.integers(n_range[0], n_range[1] + 1))
        d = int(gen.integers(1, min(d_max, n) + 1))
        total = sum(math.comb(n, j) for j in range(d + 1))
        t = int(gen.integers(min(2, total), min(12, total) + 1))
        yield k, random_polynomial(n, d, t, inst.child(1))


# ---------------------------------------------------------------------------
# analyze


def _analyze_report(
    p: MultilinearPolynomial,
    samples: int,
    seed: int,
    c_log: float,
    c_exp: float,
    workers: int,
    source: str,
) -> dict:
    mom = p.moments()
    with np.errstate(over="ignore"):  # an infinite influence sum is refused here, not warned about
        total_influence = p.total_influence()
    if not math.isfinite(total_influence):
        raise InputError("the coefficient squares overflow: the total influence is infinite")
    degree = p.degree
    # every exact quantity is a function of the support variables only
    compressed, _ = p.compress_support()
    k = compressed.n
    if samples == 0:
        check_enumeration(f"analyze with --samples 0 over {k} support variables", 1 << k)
    report: dict = {
        "command": "analyze",
        "polynomial": {
            "n": p.n,
            "degree": degree,
            "terms": p.term_count,
            "source": source,
            "seed": seed,
        },
        "mean": mom.mean,
        "variance": mom.variance,
        "l2_norm": mom.l2_norm,
        "influences": {"values": list(p.influences()), "method": "coefficient"},
        "total_influence": total_influence,
    }

    def check(name: str, identity: tuple[bool, float, float]) -> dict:
        holds, value, reference = identity
        return {"name": name, "passed": bool(holds), "value": value, "reference": reference}

    checks = [check("influence_sandwich", _influence_sandwich(p))]
    as_value = None
    if (1 << k) <= ENUMERATION_BUDGET:
        f = SignFunction(compressed)
        two_path = _as_two_path(f)
        as_value = two_path[1]
        report["as"] = {"value": as_value, "method": "enumeration"}
        report["noise_sensitivity"] = [
            {"delta": d_, "value": noise_sensitivity_exact(f, d_), "method": "enumeration"}
            for d_ in NS_DELTAS
        ]
        checks.append(check("as_two_path", two_path))
        del f  # drops the cached table and spectrum before the Monte Carlo section
    else:
        report["as"] = None
        report["noise_sensitivity"] = None

    if (1 << (2 * k)) <= ENUMERATION_BUDGET:
        report["alpha"] = {"value": exact_alpha(compressed), "method": "enumeration"}
    elif samples > 0:
        result = estimate_alpha(p, samples, Rng(seed, 1), workers=workers)
        report["alpha"] = {"method": "monte_carlo", **result.to_json_dict()}
    else:
        report["alpha"] = None

    if p.n > 1 and degree >= 1:
        bound = gl_bound(p.n, degree)
        report["gl_bound"] = bound
        report["gl_ratio"] = None if as_value is None else as_value / bound
        value = theorem_bound(p.n, degree, c_log, c_exp)
        report["theorem_bound"] = {
            # JSON carries no infinity: a bound beyond the float range is null
            "value": None if math.isinf(value) else value,
            "log_value": theorem_log_bound(p.n, degree, c_log, c_exp),
            "c_log": c_log,
            "c_exp": c_exp,
            "note": "parameterized envelope; the constants are user inputs, not claims",
        }
    else:
        report["gl_bound"] = None
        report["gl_ratio"] = None
        report["theorem_bound"] = None

    report["checks"] = checks
    return report


def _analyze_csv(report: dict) -> str:
    ns = report.get("noise_sensitivity") or []
    ns_by_delta = {row["delta"]: row["value"] for row in ns}
    alpha = report.get("alpha") or {}
    theorem = report.get("theorem_bound") or {}
    columns = [
        ("n", report["polynomial"]["n"]),
        ("degree", report["polynomial"]["degree"]),
        ("terms", report["polynomial"]["terms"]),
        ("seed", report["polynomial"]["seed"]),
        ("as_exact", (report.get("as") or {}).get("value")),
        ("gl_bound", report.get("gl_bound")),
        ("gl_ratio", report.get("gl_ratio")),
        *[(f"ns_{d}", ns_by_delta.get(d)) for d in NS_DELTAS],
        ("alpha", alpha.get("value", alpha.get("estimate"))),
        ("alpha_method", alpha.get("method")),
        ("alpha_std_error", alpha.get("std_error")),
        ("alpha_samples", alpha.get("samples")),
        ("mean", report["mean"]),
        ("variance", report["variance"]),
        ("total_influence", report["total_influence"]),
        ("theorem_bound", theorem.get("value")),
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow([name for name, _ in columns])
    writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for _, v in columns])
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# suites


def _scaled_sum(n: int) -> MultilinearPolynomial:
    """The unit-variance linear form (x_0 + ... + x_{n-1}) / sqrt(n)."""
    return MultilinearPolynomial(n, {1 << i: 1.0 / math.sqrt(n) for i in range(n)})


def _within_4se_row(check: str, instance: str, result, reference: float) -> SuiteRow:
    """Hard row: a Monte Carlo estimate within 4 standard errors of its closed form."""
    return _row(
        check,
        instance,
        "hard",
        abs(result.estimate - reference) <= 4.0 * max(result.std_error, 1e-12),
        result.estimate,
        reference,
        f"std_error={result.std_error!r}",
    )


def _suite_gl(
    rng: Rng, config: RegularityConfig, samples: int, blocks: int, workers: int
) -> list[SuiteRow]:
    rows = []
    for n in (3, 5, 7, 9, 11, 13, 15):
        table = gl_report_row(n, 1)
        rows.append(
            _row(
                "gl_tightness_d1",
                f"n={n}",
                "identity",
                table["witness_flag"],
                table["as_exact"],
                table["gl_bound"],
                f"ratio={table['ratio']!r}",
                extra=table,
            )
        )
    for n, d in ((4, 2), (5, 2), (6, 2), (8, 2), (6, 3)):
        table = gl_report_row(n, d)
        rows.append(
            _row(
                "gl_witness_ratio",
                f"n={n},d={d}",
                "info",
                True,
                table["as_exact"],
                table["gl_bound"],
                f"ratio={table['ratio']:.6f};witness_flag={table['witness_flag']}",
                extra=table,
            )
        )
    for k, p in sweep_instances(rng.child(1), 60):
        value = average_sensitivity_exact(SignFunction(p))
        bound = gl_bound(p.n, max(1, p.degree))
        rows.append(
            _row(
                "gl_conjecture",
                f"instance={k}",
                "hard",
                value <= bound + IDENTITY_TOL,
                value,
                bound,
                f"n={p.n},d={p.degree}",
            )
        )
    return rows


def _suite_invariants(
    rng: Rng, config: RegularityConfig, samples: int, blocks: int, workers: int
) -> list[SuiteRow]:
    rows = []
    for k, p in sweep_instances(rng.child(0), 200):
        values = evaluate_on_hypercube(p)
        l2_enum = math.sqrt(float((values**2).mean()))
        l2_coeff = p.moments().l2_norm
        rows.append(
            _row(
                "l2_bridge",
                f"instance={k}",
                "identity",
                abs(l2_enum - l2_coeff) <= 1e-10,
                l2_coeff,
                l2_enum,
            )
        )
        f = SignFunction(p)
        parseval = float((fourier(f) ** 2).sum())
        rows.append(
            _row("parseval", f"instance={k}", "identity", abs(parseval - 1.0) <= 1e-9, parseval, 1.0)
        )
        sandwich = _influence_sandwich(p)
        rows.append(_row("influence_sandwich", f"instance={k}", "identity", *sandwich, f"d={p.degree}"))
        rows.append(_row("as_two_path", f"instance={k}", "identity", *_as_two_path(f)))
        i = p.support[0]
        s = 1 if k % 2 == 0 else -1
        points = all_points(p.n)
        fixed = points.copy()
        fixed[:, i] = s
        gap = float(
            abs(p.restrict({i: s}).eval_many(points) - p.eval_many(fixed)).max()
        )
        rows.append(
            _row(
                "restriction_consistency",
                f"instance={k}",
                "identity",
                gap <= 1e-12,
                gap,
                0.0,
                f"i={i},s={s}",
            )
        )
    return rows


def _suite_anticoncentration(
    rng: Rng, config: RegularityConfig, samples: int, blocks: int, workers: int
) -> list[SuiteRow]:
    rows = []
    for k, p in sweep_instances(rng.child(0), 60, d_max=4):
        prob = weak_anticoncentration_exact(p)
        floor = 9.0 ** (-max(1, p.degree)) / 2.0
        rows.append(
            _row(
                "weak_anticoncentration",
                f"instance={k}",
                "identity",
                prob >= floor,
                prob,
                floor,
                f"d={p.degree}",
            )
        )
        check = hypercontractivity_check(p, 4)
        rows.append(
            _row(
                "hypercontractivity_t4",
                f"instance={k}",
                "identity",
                check.holds,
                check.lhs,
                check.rhs,
            )
        )
    x0 = MultilinearPolynomial.from_vars(1, {(0,): 1.0})
    strong = strong_anticoncentration_estimate(x0, 0.1, samples, rng.child(1), workers=workers)
    strong_ref = (2.0 / math.pi) * math.atan(0.1)
    rows.append(_within_4se_row("strong_anticoncentration_x0", "eps=0.1", strong, strong_ref))
    cw = carbery_wright_estimate(x0, 0.1, samples, rng.child(2), workers=workers)
    rows.append(_within_4se_row("carbery_wright_x0", "eps=0.1", cw, 2.0 * (_normal_cdf(0.1) - 0.5)))
    _, p_scale = next(iter(sweep_instances(rng.child(3), 1, n_range=(6, 8))))
    wide = strong_anticoncentration_estimate(p_scale, 0.02, samples, rng.child(4), workers=workers)
    narrow = strong_anticoncentration_estimate(p_scale, 0.01, samples, rng.child(5), workers=workers)
    rows.append(
        _row(
            "strong_anticoncentration_scaling",
            "eps=0.02/0.01",
            "info",
            True,
            # no ratio when the narrow event was never drawn; the detail keeps both
            wide.estimate / narrow.estimate if narrow.estimate > 0 else None,
            2.0,
            f"wide={wide.estimate!r};narrow={narrow.estimate!r}",
        )
    )
    return rows


def _suite_invariance(
    rng: Rng, config: RegularityConfig, samples: int, blocks: int, workers: int
) -> list[SuiteRow]:
    rows = []
    x0 = MultilinearPolynomial.from_vars(1, {(0,): 1.0})
    gap = invariance_gap(x0, [-0.5], samples, rng.child(0), workers=workers)
    reference = _normal_cdf(0.5) - 0.5
    rows.append(
        _row(
            "invariance_gap_dictator",
            "t=-0.5",
            "hard",
            abs(gap.gap - reference) <= 0.02,
            gap.gap,
            reference,
        )
    )
    small = invariance_gap(_scaled_sum(25), None, samples, rng.child(1), workers=workers)
    large = invariance_gap(_scaled_sum(100), None, samples, rng.child(2), workers=workers)
    rows.append(
        _row(
            "invariance_gap_decay",
            "n=100_vs_25",
            "hard",
            large.gap <= small.gap,
            large.gap,
            small.gap,
        )
    )
    p = _scaled_sum(9)
    same = abs_comparison_gap(p, p, samples, rng.child(3), workers=workers)
    rows.append(
        _row("abs_comparison_self", "q=p", "identity", same.estimate == 0.0, same.estimate, 0.0)
    )
    for idx, n in enumerate((9, 100)):
        base = _scaled_sum(n)
        gen = rng.child(4 + idx).generator()
        weights = 0.1 * gen.standard_normal(n)
        q = MultilinearPolynomial(n, {1 << i: float(weights[i]) for i in range(n)})
        result = abs_comparison_gap(base, q, samples, rng.child(6 + idx), workers=workers)
        rows.append(
            _row(
                "abs_comparison_gap",
                f"n={n}",
                "info",
                True,
                result.estimate,
                None,
                f"std_error={result.std_error!r}",
            )
        )
    return rows


def _suite_decompose(
    rng: Rng, config: RegularityConfig, samples: int, blocks: int, workers: int
) -> list[SuiteRow]:
    rows = []
    for k, p in sweep_instances(rng.child(0), 25, n_range=(4, 10)):
        f = SignFunction(p)
        for b in sorted({1 if p.n == 1 else 2, min(3, p.n), p.n}):
            check = block_sensitivity_identity_check(f, block_partition(p.n, b))
            rows.append(
                _row(
                    "block_identity",
                    f"instance={k},b={b}",
                    "identity",
                    check.gap <= IDENTITY_TOL,
                    check.lhs,
                    check.rhs,
                    f"gap={check.gap!r}",
                )
            )
    successes = 0
    worst = 0.0
    total_trees = 20
    # one tree per instance feeds tree sensitivity, the success rate and leaf soundness
    for k, p in sweep_instances(rng.child(2), total_trees, n_range=(6, 12)):
        tree = build_regularity_tree(p, config)
        f = SignFunction(p)
        check = tree_sensitivity_check(f, tree)
        rows.append(
            _row(
                "tree_sensitivity",
                f"instance={k}",
                "identity",
                check.holds,
                check.as_exact,
                check.depth + check.leaf_expectation,
                f"depth={check.depth}",
            )
        )
        if tree.success:
            successes += 1
        for leaf in tree.leaves:
            if leaf.label.kind is LeafKind.NEAR_CONSTANT and leaf.label.exact_verified:
                signs = _subcube_table(f, leaf.path)
                worst = max(worst, int(np.count_nonzero(signs != leaf.label.sign)) / signs.size)
    rows.append(
        _row(
            "regularity_success_rate",
            f"count={total_trees}",
            "hard",
            successes >= int(0.8 * total_trees),
            float(successes),
            0.8 * total_trees,
        )
    )
    eps = config.eps
    rows.append(_row("leaf_soundness", "exact_path", "identity", worst <= eps, worst, eps))
    for t in (0.05, 0.1, 0.2):
        n = 10
        terms = {0: 1.0}
        terms.update({1 << i: t / math.sqrt(n) for i in range(n)})
        check = small_alpha_check(MultilinearPolynomial(n, terms))
        rows.append(
            _row(
                "small_alpha_sweep",
                f"t={t}",
                "info",
                True,
                check.ratio,
                None,
                f"alpha={check.alpha!r};as={check.as_exact!r}",
            )
        )
    witness = middle_layers_witness(10, 2)
    report = block_alpha_sum(
        witness,
        block_partition(10, min(blocks, 10)),
        min(samples, 20_000),
        rng.child(3),
        tau=config.tau,
        workers=workers,
    )
    rows.append(
        _row(
            "block_alpha_sum",
            f"witness(10,2),b={report.blocks}",
            "info",
            True,
            report.total.estimate,
            report.reference,
            f"alpha_hat={report.alpha_hat.estimate!r};std_error={report.total.std_error!r}",
        )
    )
    trace = recursion_trace(
        _scaled_sum(12),
        (max(2, blocks), 2),
        config,
        min(samples, 10_000),
        rng.child(5),
        workers=workers,
    )
    for level in trace.levels:
        rows.append(
            _row(
                "recursion_trace",
                f"level={level.level}",
                "info",
                True,
                level.measured_alpha_sum,
                level.reference,
                f"b={level.b};mean_block_alpha={level.mean_block_alpha!r};"
                f"leaves={level.leaf_counts}",
            )
        )
    return rows


# section -> (stream index under the suite seed, rows); ``all`` runs them in this order
_SECTIONS = {
    "invariants": (10, _suite_invariants),
    "gl": (11, _suite_gl),
    "anticoncentration": (12, _suite_anticoncentration),
    "invariance": (13, _suite_invariance),
    "decompose": (14, _suite_decompose),
}
SUITE_NAMES = (*_SECTIONS, "all")


def run_suite(
    name: str,
    seed: int,
    samples: int,
    tau: float,
    eps: float,
    delta: float,
    big_m: float,
    blocks: int,
    workers: int,
) -> list[SuiteRow]:
    """Rows of one suite section, or of every section in table order for ``all``.

    The tree parameters are validated once, as one :class:`RegularityConfig`,
    before any section runs; every section reads that config.
    """
    if name != "all" and name not in _SECTIONS:
        raise InputError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    samples = _integer(samples, "samples", 1)
    config = RegularityConfig(tau=tau, eps=eps, delta=delta, big_m=big_m)
    rng = Rng(seed)
    rows = []
    for key in _SECTIONS if name == "all" else (name,):
        stream, section = _SECTIONS[key]
        rows.extend(section(rng.child(stream), config, samples, blocks, workers))
    return rows


# ---------------------------------------------------------------------------
# commands


@click.group()
def main() -> None:
    """Exact and Monte Carlo analysis of polynomial threshold functions."""


@main.command("analyze")
@click.option("--input", "input_path", type=str, default=None, help="Polynomial JSON file.")
@click.option("--n", type=int, default=None, help="Variables for a generated polynomial.")
@click.option("--d", type=int, default=None, help="Degree bound for a generated polynomial.")
@click.option("--terms", type=int, default=None, help="Term count for a generated polynomial.")
@click.option("--seed", type=int, default=None, envvar="PTFLAB_SEED", help="Seed (or PTFLAB_SEED).")
@click.option("--samples", type=int, default=100_000, show_default=True, help="Monte Carlo budget.")
@click.option("--clog", type=float, default=1.0, show_default=True, help="Envelope log constant.")
@click.option("--cexp", type=float, default=1.0, show_default=True, help="Envelope exp constant.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True, help="Worker count.")
@_guarded
def cmd_analyze(input_path, n, d, terms, seed, samples, clog, cexp, fmt, out, workers):
    """Report sensitivity, spectra and ratio statistics for one polynomial."""
    samples = _integer(samples, "--samples", 0)
    seed = _resolve_seed(seed)
    if input_path is not None:
        poly = _load_polynomial(input_path)
        source = input_path
    elif None not in (n, d, terms):
        poly = random_polynomial(n, d, terms, Rng(seed))
        source = "generated"
    else:
        raise InputError("provide --input, or all of --n/--d/--terms to generate an instance")
    report = _analyze_report(poly, samples, seed, clog, cexp, workers, source)
    if fmt == "json":
        _emit_json(report, out)
    else:
        _emit(_analyze_csv(report), out)


@main.command("random")
@click.option("--n", type=int, required=True, help="Variable count.")
@click.option("--d", type=int, required=True, help="Degree bound.")
@click.option("--terms", type=int, required=True, help="Number of distinct monomials.")
@click.option("--seed", type=int, default=None, envvar="PTFLAB_SEED", help="Seed (or PTFLAB_SEED).")
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
@_guarded
def cmd_random(n, d, terms, seed, out):
    """Write a random multilinear polynomial in the JSON wire format."""
    seed = _resolve_seed(seed)
    _emit_json(random_polynomial(n, d, terms, Rng(seed)).to_json_dict(), out)


@main.command("suite")
@click.option("--suite", "suite_name", type=click.Choice(SUITE_NAMES), default="all", show_default=True)
@click.option("--seed", type=int, default=None, envvar="PTFLAB_SEED", help="Seed (or PTFLAB_SEED).")
@click.option("--samples", type=int, default=100_000, show_default=True, help="Monte Carlo budget.")
@click.option("--tau", type=float, default=0.1, show_default=True, help="Regularity target.")
@click.option("--eps", type=float, default=0.05, show_default=True, help="Sign-constancy tolerance.")
@click.option("--delta", type=float, default=0.05, show_default=True, help="Bad-leaf mass target.")
@click.option("--bigM", "big_m", type=float, default=1.0, show_default=True, help="Threshold exponent constant.")
@click.option("--blocks", type=click.IntRange(min=1), default=3, show_default=True, help="Block count for block checks.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True, help="Worker count.")
@_guarded
def cmd_suite(suite_name, seed, samples, tau, eps, delta, big_m, blocks, fmt, out, workers):
    """Run a named check battery and emit one report row per check."""
    seed = _resolve_seed(seed)
    rows = run_suite(suite_name, seed, samples, tau, eps, delta, big_m, blocks, workers)
    summary = {
        "total": len(rows),
        "passed": sum(r.status == "pass" for r in rows),
        "failed": sum(r.status == "fail" for r in rows),
        "info": sum(r.status == "info" for r in rows),
        "identity_failures": [
            f"{r.check}:{r.instance}" for r in rows if r.kind == "identity" and r.status == "fail"
        ],
        "hard_failures": [
            f"{r.check}:{r.instance}" for r in rows if r.kind == "hard" and r.status == "fail"
        ],
    }
    if fmt == "json":
        bundle = {
            "command": "suite",
            "suite": suite_name,
            "seed": seed,
            "samples": samples,
            "parameters": {
                "tau": tau,
                "eps": eps,
                "delta": delta,
                "big_m": big_m,
                "blocks": blocks,
            },
            "rows": [r.to_json_dict() for r in rows],
            "summary": summary,
        }
        _emit_json(bundle, out)
    else:
        _emit(_rows_to_csv(rows), out)
    code = _bundle_exit_code(rows)
    if code:
        click.echo(
            f"suite {suite_name} failed: {summary['identity_failures'] + summary['hard_failures']}",
            err=True,
        )
        sys.exit(code)


if __name__ == "__main__":
    main()
