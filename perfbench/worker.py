"""One benchmark process: set up, then (unless --setup-only) run the ops.

Started by ``run.py`` in a fresh interpreter so that interpreter start and
the package import land in the set-up time.  Prints ``ready`` once set-up
(import, input generation, warm-up) is done, then one JSON line with the
measurements.  Exits with a non-zero status, before ``ready``, when the
package cannot be imported from this checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

def import_package():
    if not os.path.isdir(os.path.join(SRC, "fuzzyfix")):
        sys.exit(f"no fuzzyfix package under {SRC}")
    sys.path.insert(0, SRC)
    import fuzzyfix
    if os.path.dirname(os.path.dirname(os.path.abspath(fuzzyfix.__file__))) != SRC:
        sys.exit(f"fuzzyfix imported from {fuzzyfix.__file__}, not {SRC}")


def run_op(op, results: list, tracer=None) -> None:
    """Time one op, then check its output outside the timed region."""
    error = None
    if tracer is not None:
        tracer.op, tracer.enabled = len(results), True
    start = perf_counter()
    try:
        result = op.run()
    except Exception:        # a crashing op is a failed op, not a crashed run
        error = traceback.format_exc(limit=3)
    latency = perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    if error is None:
        try:
            op.check(result)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    results.append({"command": op.command, "label": op.label,
                    "latency": latency, "error": error})


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def summarize(results: list) -> dict:
    """End-to-end metrics of one timed pass."""
    lat = [r["latency"] for r in results]
    ordered = sorted(lat)
    n = len(lat)
    metrics = {"ops_per_s": {"value": n / sum(lat), "unit": "1/s"},
               "op_s.p50": {"value": statistics.median(lat), "unit": "s"}}
    if n >= 11:
        # the highest percentile with at least ten samples above it
        metrics["op_s.tail"] = {"value": ordered[n - 11], "unit": "s",
                                "percentile": round(100.0 * (n - 10) / n, 2),
                                "samples": n}
    else:
        metrics["op_s.tail"] = {"value": None, "unit": "s", "samples": n,
                                "note": "fewer than 11 samples"}
    by_command: dict = {}
    for r in results:
        by_command.setdefault(r["command"], []).append(r["latency"])
    for command, values in sorted(by_command.items()):
        metrics[f"{command}_s.p50"] = {"value": statistics.median(values),
                                       "unit": "s", "samples": len(values)}
    failed = sum(r["error"] is not None for r in results)
    metrics["fail_ratio"] = {"value": failed / n, "unit": "ratio"}
    return metrics


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import_package()
    import numpy as np
    import workloads
    from tracing import Tracer

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        cycles = workloads.build(args.workload, args.seed, workdir)
        warm: list = []
        for op in workloads.warmup_ops():
            run_op(op, warm)
        bad = [r for r in warm if r["error"]]
        if bad:
            sys.exit(f"warm-up failed: {bad[0]['label']}: {bad[0]['error']}")
        print("ready", flush=True)
        if args.setup_only:
            return

        machine = {"nproc": len(os.sched_getaffinity(0)),
                   "python": platform.python_version(),
                   "numpy": np.__version__, "machine": platform.machine()}
        results: list = []
        if args.trace:
            # the first cycle, once untraced and once traced
            ops = cycles[0]
            for op in ops:
                run_op(op, results)
            untraced = sum(r["latency"] for r in results)
            tracer = Tracer()
            tracer.install()
            traced_results: list = []
            for op in ops:
                run_op(op, traced_results, tracer)
            traced = sum(r["latency"] for r in traced_results)
            results += traced_results
            layer = tracer.metrics()
            layer["trace.overhead_ratio"] = traced / untraced
            metrics = {k: {"value": v} for k, v in sorted(layer.items())}
            extra = {"spans": len(tracer.spans), "cycles": 1}
        else:
            # whole cycles, so that every run holds the same command mix; a
            # cycle starts only if it should end within half its length of
            # the deadline, so that runs last about --seconds
            deadline = perf_counter() + args.seconds
            k, cycle_s = 0, 0.0
            while k == 0 or perf_counter() + cycle_s / 2 < deadline:
                start = perf_counter()
                for op in cycles[k % len(cycles)]:
                    run_op(op, results)
                cycle_s = perf_counter() - start
                k += 1
            metrics = summarize(results)
            metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
            extra = {"cycles": k}
        failures = [f"{r['label']}: {r['error']}" for r in results
                    if r["error"]]
        print(json.dumps({"attempted": len(results), "failed": len(failures),
                          "metrics": metrics, "machine": machine,
                          "failures": failures[:5], **extra}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
