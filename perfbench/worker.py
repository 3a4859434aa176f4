"""One workload process: set up, run the operation list once, check, report.

Started by ``run.py`` in a fresh interpreter for every repeat, with
``PYTHONPATH`` pointing at the checkout's ``src``.  Prints one JSON object
as the last line of standard output.

Modes:
  run      set up, run the operation list, check the outputs
  setup    set up only (an extra set-up time sample)
  scaling  time one mc_ratio strong estimate with workers=1 and workers=2
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import tracing
import workloads


def run(args) -> dict:
    tracer = tracing.Tracer(full=bool(args.trace))
    tracer.install()
    workload = workloads.make(args.workload, args.seed, args.size)
    workload.warm_up()
    setup_s = time.monotonic() - args.launch
    if args.mode == "setup":
        return {"setup_s": setup_s}

    tracer.reset()
    tracer.enabled = True
    outputs: dict[str, object] = {}
    errors: dict[str, str] = {}
    start = time.perf_counter()
    for name, fn in workload.ops:
        span = tracer.open(workload.op_span) if args.trace and workload.op_span else None
        try:
            outputs[name] = fn()
        except Exception as e:  # a raising operation is a counted failure
            errors[name] = f"{type(e).__name__}: {e}"
        finally:
            if span is not None:
                tracer.close(span)
    wall_s = time.perf_counter() - start
    tracer.enabled = False

    ops: dict[str, str | None] = {name: errors.get(name, "no output") for name, _ in workload.ops}
    try:
        checked = workload.check(outputs)
    except Exception as e:  # a check that raises fails every operation it covers
        checked = {name: f"check raised {type(e).__name__}: {e}" for name in outputs}
    for name in outputs:
        ops[name] = checked.get(name, "not checked")

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": tracer.requested_samples(),
        "time_to_1pct_s": tracer.time_to_1pct_s(),
        "ops": ops,
        "digest": workload.digest(outputs),
    }
    if args.trace:
        layers = tracing.layer_metrics(tracer)
        if args.workload == "suite_all":
            ops["sections_match_all"] = _sections(workload, outputs, tracer, layers)
        report["layers"] = layers
        if args.spans:
            tracer.write_spans(args.spans)
    return report


def _sections(workload, outputs, tracer, layers) -> str | None:
    """Time each suite section through public run_suite; rows must match ``all``."""
    rows = []
    for section in tracing.SUITE_SECTIONS:
        start = time.perf_counter()
        part = workload.section_rows(section)
        end = time.perf_counter()
        tracer.record(f"cli.run_suite.{section}", start, end)
        layers[f"cli.run_suite.{section}.s"] = end - start
        rows.extend(part)
    bundle = outputs.get("suite")
    if bundle is None or bundle["exit"] != 0:
        return "no bundle to compare"
    expected = json.loads(bundle["bytes"])["rows"]
    if json.dumps(rows, sort_keys=True) != json.dumps(expected, sort_keys=True):
        return "rows of the five sections differ from suite all"
    return None


def scaling(args) -> dict:
    """workers=1 versus workers=2 on one strong estimate; workers=2 reruns must agree."""
    from ptflab import Rng, strong_anticoncentration_estimate

    p = workloads.criterion6_polynomial(args.seed, 0)
    samples = workloads.SIZES[args.size]["scaling"]["strong"]
    rng = Rng(args.seed).child(0).child(1)
    strong_anticoncentration_estimate(p, 0.01, 1000, rng, workers=2)
    times = {1: [], 2: []}
    results = []
    for _ in range(2):
        for workers in (1, 2):
            start = time.perf_counter()
            result = strong_anticoncentration_estimate(p, 0.01, samples, rng, workers=workers)
            times[workers].append(time.perf_counter() - start)
            if workers == 2:
                results.append(result)
    identical = all(r == results[0] for r in results)
    return {"t1": times[1], "t2": times[2],
            "ops": {"workers2_rerun_identical": None if identical else
                    f"workers=2 reruns differ: {results!r}"}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("run", "setup", "scaling"), default="run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launch", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args()
    report = scaling(args) if args.mode == "scaling" else run(args)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
