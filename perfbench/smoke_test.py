#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 perfbench/smoke_test.py

For each workload it runs an untraced and a traced run with --smoke and
checks the result line: exactly the keys correct / attempted / failed /
metrics, a passing correctness gate, and metric names and units equal to
BENCHMARK.json's end_to_end (untraced) or per_layer (traced) lists.  It
then copies only BENCHMARK.json and perfbench/ into a bare directory and
checks that the benchmark exits non-zero there without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run(cwd, workload, trace):
    command = ["python3", "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "2", "--trace", str(trace),
               "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(spec, workload, trace, proc):
    errors = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{workload} trace={trace}: exit {proc.returncode}\n"
                f"{proc.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{workload}: correctness gate failed")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1 and
            isinstance(failed, int) and 0 <= failed <= attempted):
        errors.append(f"{workload}: attempted={attempted} failed={failed}")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in expected]:
        errors.append(f"{workload}: metric names {list(metrics)}")
    for metric in expected:
        got = metrics.get(metric["name"], {})
        if set(got) != {"value", "unit"} or got.get("unit") != metric["unit"]:
            errors.append(f"{workload}: {metric['name']} reads {got}")
            continue
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{workload}: {metric['name']} = {value}")
        elif not trace and value <= 0:
            errors.append(f"{workload}: end-to-end {metric['name']} = {value}")
    return errors


def check_bare_directory():
    """The benchmark alone (no library sources) must fail without a result."""
    bare = os.path.join(BUILD, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "plan-cold", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: benchmark did not fail cleanly"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors += check_result(spec, workload, trace,
                                   run(ROOT, workload, trace))
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not errors else 'FAILED'}", flush=True)
    errors += check_bare_directory()
    for error in errors:
        print("error:", error, file=sys.stderr)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
