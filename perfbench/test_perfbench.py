"""Tests of the benchmark itself: repeatable counts, strict checks, failure mode.

Run with ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

EXACT = ("dynamics.orbit_steps", "cli.output_bytes")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def counts(stdout: str) -> dict:
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith((".calls", ".elements")) or k in EXACT}


@pytest.mark.parametrize("workload", ["paper", "orbits", "classify"])
def test_traced_counts_repeat_for_a_seed(workload):
    args = ["--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", "1"]
    first, second = run_bench(*args), run_bench(*args)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    a, b = counts(first.stdout), counts(second.stdout)
    assert len(a) == 11 and a == b
    assert a["spaces.m.calls"] > 0 and a["cli.output_bytes"] > 0


@pytest.fixture(scope="module")
def classify_ops(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("classify"))
    return {op.label: op for op in workloads.build("classify", 3, workdir)[0]}


def rejects(op, result) -> bool:
    try:
        op.check(result)
    except workloads.CheckError:
        return True
    return False


def test_checks_accept_the_real_outputs(classify_ops):
    for label, op in classify_ops.items():
        if "probe" not in label and "check-space" not in label:
            op.check(op.run())


def test_checks_reject_a_wrong_exit_status(classify_ops):
    op = classify_ops["classify-map --scenario ex63 --route m --format json-like"]
    code, out = op.run()
    assert not rejects(op, (code, out))
    assert rejects(op, (1, out))


def test_checks_reject_a_witness_that_does_not_replay(classify_ops):
    op = classify_ops["classify-map --scenario ex63 --route cm --format json-like "
                      "--form between"]
    code, out = op.run()
    report = json.loads(out)
    report["body"]["classification"]["conditions"][0]["witness"]["after"] *= 2
    assert rejects(op, (code, json.dumps(report)))


def test_checks_reject_a_wrong_gauge_verdict(classify_ops):
    op = classify_ops["gauge --gauge step-psi --format json-like"]
    code, out = op.run()
    report = json.loads(out)
    report["body"]["certificates"][0]["witness"]["jump"] = 0.2
    assert rejects(op, (code, json.dumps(report)))
    report["body"]["certificates"][0]["verdict"] = "member"
    assert rejects(op, (code, json.dumps(report)))


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = run_bench("--workload", "paper", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
