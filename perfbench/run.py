"""ptflab benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc_ratio --seed 900 --seconds 30 --trace 0

Every repeat of the workload runs in a fresh Python process (``worker.py``)
that imports ``ptflab`` from the checkout's ``src``, so set-up time covers
interpreter start, ``import ptflab``, instance generation and warm-up, and
peak RSS is that of the workload alone.  Repeats continue until
``--seconds`` is used up (at least ``MIN_REPEATS``); medians are reported.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` untraced and traced repeats alternate and the
per-layer metrics are reported, plus ``trace.overhead_s`` (median traced
minus median untraced wall time) and ``randomized.scaling_w2``.  Progress
and machine details go to standard error.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

META = json.loads((BENCH / "meta.json").read_text())
NAMES = tuple(META["workloads"])

MIN_REPEATS = 3  # untraced repeats of the operation list per run
MIN_SETUPS = 8  # set-up samples per run; set-up-only processes make up the rest
HARD_LIMIT_S = 170.0  # a run ends within this, whatever --seconds says


class WorkerFailed(Exception):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": _nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


class Runner:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, mode: str, trace: int = 0, spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, "--trace", str(trace)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        launch = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--launch", repr(launch)], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired as e:
            raise WorkerFailed(f"{mode} worker timed out") from e
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(lines[-1])

    def tally(self, report: dict) -> None:
        """Count operations and failed checks; outputs must repeat exactly."""
        for name, problem in report["ops"].items():
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                print(f"  check failed: {name}: {problem}", file=sys.stderr)
        if "digest" in report:
            if self.digests:
                self.attempted += 1
                if report["digest"] != self.digests[0]:
                    self.failed += 1
                    print("  check failed: outputs differ from the first repeat", file=sys.stderr)
            self.digests.append(report["digest"])

    def repeat(self, mode: str, trace: int = 0, spans: Path | None = None) -> dict | None:
        try:
            report = self.worker(mode, trace, spans)
        except WorkerFailed as e:
            self.attempted += 1
            self.failed += 1
            print(f"  {e}", file=sys.stderr)
            return None
        if "ops" in report:
            self.tally(report)
        return report

    def has_time_for(self, cost: float) -> bool:
        return self.elapsed() + cost <= min(self.args.seconds, HARD_LIMIT_S)

    # -- end-to-end run ----------------------------------------------------

    def untraced(self) -> dict:
        reports: list[dict] = []
        while True:
            report = self.repeat("run")
            if report is None:
                break
            reports.append(report)
            print(f"  repeat {len(reports)}: wall {report['wall_s']:.3f} s, "
                  f"setup {report['setup_s']:.3f} s, rss {report['rss_mb']:.0f} MB",
                  file=sys.stderr)
            per_repeat = self.elapsed() / len(reports)
            probes = max(0, MIN_SETUPS - len(reports) - 1) * report["setup_s"]
            if len(reports) >= MIN_REPEATS and not self.has_time_for(per_repeat + probes):
                break
            if self.elapsed() + per_repeat > HARD_LIMIT_S:
                break
        if not reports:
            raise WorkerFailed("no repeat of the workload completed")
        setups = [r["setup_s"] for r in reports]
        while len(setups) < MIN_SETUPS and self.elapsed() < HARD_LIMIT_S - 10:
            probe = self.repeat("setup")
            if probe is not None:
                setups.append(probe["setup_s"])
        wall = statistics.median(r["wall_s"] for r in reports)
        samples = statistics.median(r["samples"] for r in reports)
        return {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reports), "MB"),
            "samples_per_s": (samples / wall, "1/s"),
        }

    # -- traced run --------------------------------------------------------

    def traced(self) -> dict:
        import tracing

        metrics: dict[str, tuple[float, str]] = {}
        units = tracing.per_layer_units()
        scaling = self.repeat("scaling")
        if scaling is not None and _nproc() >= 2:
            ratio = statistics.median(scaling["t1"]) / statistics.median(scaling["t2"])
            metrics["randomized.scaling_w2"] = (ratio, units["randomized.scaling_w2"])

        plain: list[dict] = []
        spanned: list[dict] = []
        OUT.mkdir(exist_ok=True)
        while True:
            spans = OUT / f"spans-{self.args.workload}-{self.args.seed}-{len(spanned)}.jsonl"
            pair = self.repeat("run"), self.repeat("run", trace=1, spans=spans)
            if None in pair:
                break
            plain.append(pair[0])
            spanned.append(pair[1])
            print(f"  pair {len(spanned)}: untraced {pair[0]['wall_s']:.3f} s, "
                  f"traced {pair[1]['wall_s']:.3f} s, spans in {spans.relative_to(ROOT)}",
                  file=sys.stderr)
            if not self.has_time_for(self.elapsed() / len(spanned)):
                break
        if not spanned:
            raise WorkerFailed("no traced and untraced repeat pair completed")
        for name in spanned[0]["layers"]:
            value = statistics.median(r["layers"][name] for r in spanned)
            metrics[name] = (value, units[name])
        metrics["randomized.time_to_1pct_s"] = (
            statistics.median(r["time_to_1pct_s"] for r in plain), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in spanned)
            - statistics.median(r["wall_s"] for r in plain), "s")
        return {name: metrics[name] for name in units if name in metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own, see meta.json)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = META["workloads"][args.workload]["default_seed"]

    if not (ROOT / "src" / "ptflab" / "__init__.py").is_file():
        print(f"perfbench: no ptflab sources at {ROOT / 'src' / 'ptflab'}; run from a checkout",
              file=sys.stderr)
        return 2

    print(f"perfbench: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size} machine={json.dumps(_machine())}",
          file=sys.stderr)
    runner = Runner(args)
    try:
        metrics = runner.traced() if args.trace else runner.untraced()
    except WorkerFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
