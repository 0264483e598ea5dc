"""Run one fuzzyfix benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload {paper,orbits,classify} --seed N \
        --seconds S --trace {0,1}

Load model: closed loop, one client, one process, no worker threads.  The
workload runs in a fresh interpreter (``worker.py``) with numpy and BLAS
pinned to one thread.  Set-up -- interpreter start, package import, input
generation and warm-up -- is done ``SETUPS`` times in separate interpreters,
the last of which goes on to run the ops, and ``setup_s`` is the median.

With ``--trace 0`` the ops run in whole cycles for about ``--seconds``,
and the end-to-end metrics are printed.  With ``--trace 1`` the
first cycle runs once untraced and once traced, whatever ``--seconds`` says,
so that every count is exact and repeats for a seed; the per-layer metrics
are printed.  The last line of standard output is the result object; the
line before it carries every measurement with machine facts.  Exits 1
without a result when set-up fails or the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
# Names the workloads and the metrics of the result line.
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUPS = 3
TIMEOUT_S = 170

# One thread for numpy and every BLAS it may load; fixed string hashing.
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
       "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def run_worker(argv: list, setup_only: bool) -> tuple[float, dict]:
    """Start a worker; return its set-up time and, unless set-up only, its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **ENV})
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        sys.exit(f"worker failed with status {proc.returncode}")
    if setup_only:
        return setup_s, {}
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def main() -> None:
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be positive")

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = [run_worker(argv, True)[0] for _ in range(SETUPS - 1)]
    setup_s, result = run_worker(argv, False)
    setups.append(setup_s)

    metrics = result["metrics"]
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                          "samples": setups}
    reported = spec["per_layer" if args.trace else "end_to_end"]
    for m in reported:
        metrics[m["name"]]["unit"] = m["unit"]
    detail = {"workload": args.workload, "seed": args.seed,
              "load_model": "closed loop, 1 client, 1 process",
              **{k: v for k, v in result.items() if k != "metrics"},
              "metrics": metrics}
    print(json.dumps(detail))
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0, "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in reported}}))


if __name__ == "__main__":
    main()
