"""The benchmark's workloads: inputs from a seed, a fixed operation list, checks.

Each workload is built by :func:`make` from a workload seed and a size
("full" for measurement, "tiny" for the smoke test).  Building it generates
the inputs; ``ops`` is the fixed operation list that ``worker.py`` times; a
check per operation then decides whether that operation's output is right.
A failed check is counted, never raised.

Every call goes through ``ptflab`` module attributes at call time, so the
wrappers of :mod:`tracing` see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import ptflab.cli as cli
import ptflab.randomized as randomized
from ptflab.polynomial import MultilinearPolynomial

SIZES = {
    "full": {
        "mc_ratio": {"strong": 400_000, "ratio": 200_000},
        "mc_wide": {"n": 512, "beta": 200_000, "gap": 100_000, "gap_n": (25, 400)},
        "exact_cube": {"n": 22, "terms": 30, "samples": 100_000},
        "suite_all": {"samples": 100_000},
        "scaling": {"strong": 1_000_000},
    },
    "tiny": {
        "mc_ratio": {"strong": 20_000, "ratio": 5_000},
        "mc_wide": {"n": 64, "beta": 5_000, "gap": 20_000, "gap_n": (25, 400)},
        "exact_cube": {"n": 14, "terms": 20, "samples": 2_000},
        "suite_all": {"samples": 2_000},
        "scaling": {"strong": 20_000},
    },
}

OUT_DIR = Path(__file__).resolve().parent / "out"


def criterion6_polynomial(seed: int, k: int) -> MultilinearPolynomial:
    """random_polynomial(8, 3, 8, Rng(seed).child(k)) without its constant term."""
    p = randomized.random_polynomial(8, 3, 8, randomized.Rng(seed).child(k))
    return MultilinearPolynomial(8, {m: c for m, c in p.terms.items() if m != 0})


def scaled_sum(n: int) -> MultilinearPolynomial:
    return MultilinearPolynomial(n, {1 << i: 1.0 / math.sqrt(n) for i in range(n)})


def within_se(a, b, k: float = 4.0) -> str | None:
    """None when two estimates agree within k combined standard errors."""
    se = math.hypot(a.std_error, b.std_error)
    if abs(a.estimate - b.estimate) <= k * se:
        return None
    return f"{a.estimate!r} vs {b.estimate!r}: more than {k} combined se ({se!r}) apart"


def _plain(value) -> object:
    """A JSON-able form of an output that keeps every digit and array entry."""
    if isinstance(value, randomized.InvarianceGap):
        return [value.gap, value.thresholds.tolist(), value.per_t.tolist()]
    return repr(value)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=repr).encode()).hexdigest()


def _late(fn_name: str, *args, **kwargs) -> Callable[[], object]:
    """A call of ``ptflab.randomized.<fn_name>`` looked up when it runs."""
    return lambda: getattr(randomized, fn_name)(*args, **kwargs)


def _invoke_cli(args: list[str]) -> int:
    """Run ``ptflab.cli.main`` in-process; return its exit code."""
    try:
        cli.main.main(args=args, prog_name="ptflab", standalone_mode=False)
    except SystemExit as e:
        return 0 if e.code is None else int(e.code)
    return 0


@dataclass
class Workload:
    name: str
    seed: int
    size: dict
    ops: list[tuple[str, Callable[[], object]]] = field(default_factory=list)
    op_span: str | None = None  # span name around each operation in a traced run

    def warm_up(self) -> None:
        """Run small calls first so lazy imports and first-call costs land in set-up."""

    def check(self, outputs: dict[str, object]) -> dict[str, str | None]:
        raise NotImplementedError

    def digest(self, outputs: dict[str, object]) -> str:
        """Fingerprint of the outputs, compared across repeats of one run."""
        return _digest({k: _plain(v) for k, v in sorted(outputs.items())})


class McRatio(Workload):
    """Criterion-6 instances: strong anticoncentration at two eps, alpha and beta."""

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__("mc_ratio", seed, size)
        self.polys = [criterion6_polynomial(seed, k) for k in range(5)]
        for k, p in enumerate(self.polys):
            inst = randomized.Rng(seed).child(k)
            # the same stream at both eps: the eps = 0.005 event is nested in
            # the eps = 0.01 one, so their ratio has a small spread
            self.ops += [
                (f"strong_0.01[{k}]", _late("strong_anticoncentration_estimate", p, 0.01,
                                            size["strong"], inst.child(1), workers=1)),
                (f"strong_0.005[{k}]", _late("strong_anticoncentration_estimate", p, 0.005,
                                             size["strong"], inst.child(1), workers=1)),
                (f"alpha[{k}]", _late("estimate_alpha", p, size["ratio"], inst.child(3),
                                      workers=1)),
                (f"beta[{k}]", _late("estimate_beta", p, size["ratio"], inst.child(4),
                                     workers=1)),
                (f"exact_alpha[{k}]", _late("exact_alpha", p)),
            ]

    def warm_up(self) -> None:
        p, rng = self.polys[0], randomized.Rng(self.seed, 1)
        randomized.strong_anticoncentration_estimate(p, 0.01, 1000, rng)
        randomized.estimate_alpha(p, 1000, rng)
        randomized.estimate_beta(p, 1000, rng)

    def check(self, outputs):
        out: dict[str, str | None] = {}
        for k in range(len(self.polys)):
            wide, narrow = outputs.get(f"strong_0.01[{k}]"), outputs.get(f"strong_0.005[{k}]")
            if wide is not None and narrow is not None:
                ratio = wide.estimate / narrow.estimate if narrow.estimate > 0 else math.inf
                bad = None if 1.5 <= ratio <= 2.5 else f"eps ratio {ratio!r} outside [1.5, 2.5]"
                out[f"strong_0.01[{k}]"] = out[f"strong_0.005[{k}]"] = bad
            alpha, exact = outputs.get(f"alpha[{k}]"), outputs.get(f"exact_alpha[{k}]")
            if alpha is not None and exact is not None:
                gap = abs(alpha.estimate - exact)
                out[f"alpha[{k}]"] = (None if gap <= 4.0 * alpha.std_error else
                                      f"alpha {alpha.estimate!r} vs exact {exact!r}: > 4 se")
                out[f"exact_alpha[{k}]"] = None if 0.0 <= exact <= 1.0 else f"exact alpha {exact!r}"
            beta = outputs.get(f"beta[{k}]")
            if beta is not None:
                out[f"beta[{k}]"] = (None if 0.0 <= beta.estimate <= 1.0 and beta.std_error > 0
                                     else f"beta {beta!r} not a proper estimate in [0, 1]")
        return out


class McWide(Workload):
    """The k = 0 criterion-6 polynomial placed in n = 512, then two invariance gaps."""

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__("mc_wide", seed, size)
        n = size["n"]
        self.base = criterion6_polynomial(seed, 0)
        gen = randomized.Rng(seed).child(100).generator()
        positions = sorted(int(i) for i in gen.choice(n, size=self.base.n, replace=False))
        self.wide = MultilinearPolynomial(n, {
            sum(1 << positions[i] for i in range(self.base.n) if mask >> i & 1): c
            for mask, c in self.base.terms.items()
        })
        self.beta_rng = randomized.Rng(seed).child(1)
        small, large = size["gap_n"]
        self.sums = {small: scaled_sum(small), large: scaled_sum(large)}
        self.ops = [
            ("beta_wide", lambda: randomized.estimate_beta(self.wide, size["beta"], self.beta_rng,
                                                           workers=1)),
            (f"gap_{small}", lambda: randomized.invariance_gap(
                self.sums[small], None, size["gap"], randomized.Rng(seed).child(2), workers=1)),
            (f"gap_{large}", lambda: randomized.invariance_gap(
                self.sums[large], None, size["gap"], randomized.Rng(seed).child(3), workers=1)),
        ]

    def warm_up(self) -> None:
        rng = randomized.Rng(self.seed, 1)
        randomized.estimate_beta(self.base, 1000, rng)
        randomized.invariance_gap(self.sums[min(self.sums)], None, 1000, rng)

    def check(self, outputs):
        small, large = self.size["gap_n"]
        out: dict[str, str | None] = {}
        wide = outputs.get("beta_wide")
        if wide is not None:
            # the reference uses an independent stream on the 8-variable original
            reference = randomized.estimate_beta(self.base, self.size["beta"],
                                                 randomized.Rng(self.seed).child(4), workers=1)
            out["beta_wide"] = within_se(wide, reference)
        g_small, g_large = outputs.get(f"gap_{small}"), outputs.get(f"gap_{large}")
        if g_small is not None:
            out[f"gap_{small}"] = None if 0.0 < g_small.gap <= 1.0 else f"gap {g_small.gap!r}"
        if g_small is not None and g_large is not None:
            out[f"gap_{large}"] = (None if g_large.gap <= g_small.gap else
                                   f"gap({large})={g_large.gap!r} > gap({small})={g_small.gap!r}")
        return out


class _CliWorkload(Workload):
    """A workload whose single operation is one in-process CLI command."""

    def _run_cli(self, args: list[str]) -> dict:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{self.name}-{os.getpid()}.json"
        try:
            code = _invoke_cli(args + ["--out", str(path)])
            data = path.read_bytes() if path.exists() else b""
        finally:
            path.unlink(missing_ok=True)
        return {"exit": code, "bytes": data}

    def digest(self, outputs):
        result = outputs.get(self.ops[0][0])
        return hashlib.sha256(result["bytes"] if result else b"").hexdigest()


class ExactCube(_CliWorkload):
    """``ptflab analyze`` near the enumeration cap."""

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__("exact_cube", seed, size, op_span="cli.analyze")
        self.args = ["analyze", "--n", str(size["n"]), "--d", "3", "--terms", str(size["terms"]),
                     "--seed", str(seed), "--samples", str(size["samples"]), "--workers", "1"]
        self.ops = [("analyze", lambda: self._run_cli(self.args))]

    def warm_up(self) -> None:
        self._run_cli(["analyze", "--n", "6", "--d", "2", "--terms", "5", "--seed", "1",
                       "--samples", "100"])

    def check(self, outputs):
        result = outputs.get("analyze")
        if result is None:
            return {}
        if result["exit"] != 0:
            return {"analyze": f"exit code {result['exit']}"}
        report = json.loads(result["bytes"])
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return {"analyze": f"checks failed: {failed}" if failed else None}


class SuiteAll(_CliWorkload):
    """``ptflab suite --suite all`` with one worker."""

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__("suite_all", seed, size, op_span="cli.suite")
        self.args = ["suite", "--suite", "all", "--seed", str(seed), "--workers", "1",
                     "--samples", str(size["samples"])]
        self.ops = [("suite", lambda: self._run_cli(self.args))]

    def warm_up(self) -> None:
        self._run_cli(["suite", "--suite", "gl", "--seed", "1", "--samples", "100"])

    def check(self, outputs):
        result = outputs.get("suite")
        if result is None:
            return {}
        if result["exit"] != 0:
            return {"suite": f"exit code {result['exit']}"}
        summary = json.loads(result["bytes"])["summary"]
        return {"suite": None if summary["failed"] == 0 else f"summary.failed={summary['failed']}"}

    def section_rows(self, section: str) -> list[dict]:
        """Rows of one suite section through public ``run_suite(name, ...)``."""
        rows = cli.run_suite(section, self.seed, self.size["samples"], 0.1, 0.05, 0.05, 1.0, 3, 1)
        return [r.to_json_dict() for r in rows]


_CLASSES = {"mc_ratio": McRatio, "mc_wide": McWide, "exact_cube": ExactCube, "suite_all": SuiteAll}


def make(name: str, seed: int, size: str) -> Workload:
    return _CLASSES[name](seed, SIZES[size][name])
