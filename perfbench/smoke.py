"""Smoke test of the benchmark itself.

Runs every workload at tiny sizes, on its default seed and on a second
seed, untraced and traced, and checks that each run passes its output
checks and prints exactly the metric names and units that BENCHMARK.json
declares.  Then checks that the benchmark refuses to run, without printing
a result, in a directory holding only BENCHMARK.json and perfbench/.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
META = json.loads((BENCH / "meta.json").read_text())

# per workload, per-layer metrics that must be nonzero because the workload calls that layer
REACHED = {
    "mc_ratio": ("randomized.strong_anticoncentration_estimate.calls",
                 "randomized.estimate_alpha.samples", "randomized.exact_alpha.s",
                 "randomized.draws.values", "polynomial.eval_many.term_rows"),
    "mc_wide": ("randomized.estimate_beta.peak_alloc_mb", "randomized.invariance_gap.calls",
                "polynomial.partial_derivative.calls"),
    "exact_cube": ("cli.analyze.s", "hypercube.fwht.bytes_computed", "hypercube.truth_table.calls",
                   "hypercube.fourier.calls", "hypercube.noise_sensitivity_exact.s"),
    "suite_all": ("decompose.build_regularity_tree.calls", "decompose.classify_leaf.calls",
                  "polynomial.restrict.calls", "randomized.abs_comparison_gap.calls",
                  *(f"cli.run_suite.{s}.s" for s in
                    ("invariants", "gl", "anticoncentration", "invariance", "decompose"))),
}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(workload: str, seed: int, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    where = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: checks failed ({result['failed']}/{result['attempted']})")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if trace and "randomized.scaling_w2" not in emitted:
        declared.pop("randomized.scaling_w2")  # omitted on a one-CPU machine
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        wrong = sorted(n for n in set(declared) & set(emitted) if declared[n] != emitted[n])
        problems.append(f"{where}: missing {missing}, undeclared {extra}, wrong units {wrong}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {name} = {value!r} is not positive")
    if trace:
        for name in REACHED[workload]:
            if not result["metrics"].get(name, {}).get("value"):
                problems.append(f"{where}: {name} is 0 although the workload reaches it")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "--workload", "mc_ratio", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    problems = []
    for workload, info in META["workloads"].items():
        for seed in (info["default_seed"], info["default_seed"] + 1):
            for trace in (0, 1):
                found = check_result(workload, seed, trace)
                print(f"{workload} seed={seed} trace={trace}: {'ok' if not found else 'FAIL'}")
                problems += found
    bare = check_bare_directory()
    print(f"bare directory: {'ok' if not bare else 'FAIL'}")
    problems += bare
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
