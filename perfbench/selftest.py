#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--quick]

Checks, in order:
  1. BENCHMARK.json has the shape run.py's callers expect;
  2. a brief run of every workload, untraced and traced, passes its
     correctness checks and emits every metric BENCHMARK.json names, each
     with the declared unit and a finite value;
  3. injected failures raise the failed fraction: a wrong expected checksum
     (bulk_transfer) and the daemon killed mid-run (every workload);
  4. in a directory holding only BENCHMARK.json and perfbench/, run.py exits
     non-zero without printing a result.

--quick skips the traced runs and injects the kill on catalog_mix only.
Exits 0 when every check passes. Scratch files go under .bench_build/.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def run(workload, trace=0, seconds=2, inject=None, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stderr


def check_benchmark_json(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly the contract's keys")
    check(1 <= len(bench["paths"]) <= 16, "1 to 16 paths")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds is a whole number in [1, 60]")
    check(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= len(bench["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(bench["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
          "names are well formed and unique")
    check(all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"]),
          "units are well formed")
    check(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]), "bounds are in (0, 0.25]")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s is present, in seconds, lower-better, with the largest bound")


def check_metrics(label, result, declared):
    check(result is not None, f"{label}: printed a result line")
    if result is None:
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result has exactly correct/attempted/failed/metrics")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: correct with failed_frac 0 ({result['failed']}/{result['attempted']})")
    metrics = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    check(not missing, f"{label}: every declared metric emitted (missing: {missing[:5]})")
    bad = [m["name"] for m in declared if m["name"] in metrics and (
        metrics[m["name"]].get("unit") != m["unit"] or
        not isinstance(metrics[m["name"]].get("value"), (int, float)) or
        not math.isfinite(metrics[m["name"]]["value"]))]
    check(not bad, f"{label}: units match and values are finite (bad: {bad[:5]})")


def main():
    quick = "--quick" in sys.argv[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        bench = json.load(source)
    check_benchmark_json(bench)
    workloads = [w["name"] for w in bench["workloads"]]

    for workload in workloads:
        code, result, _ = run(workload)
        check(code == 0, f"{workload}: exit 0")
        check_metrics(f"{workload} untraced", result, bench["end_to_end"])
        if not quick:
            code, result, _ = run(workload, trace=1)
            check(code == 0, f"{workload} traced: exit 0")
            check_metrics(f"{workload} traced", result, bench["per_layer"])

    code, result, _ = run("bulk_transfer", inject="bad-checksum")
    check(code == 0 and result is not None and result["failed"] > 0 and not result["correct"],
          "bulk_transfer: a wrong expected checksum raises failed_frac")
    for workload in (["catalog_mix"] if quick else workloads):
        code, result, _ = run(workload, seconds=4, inject="kill")
        check(code == 0 and result is not None and result["failed"] > 0 and
              not result["correct"], f"{workload}: killing the daemon mid-run raises failed_frac")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workloads[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=180,
                          env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    printed = any(line.strip().startswith("{\"correct\"") for line in done.stdout.splitlines())
    check(done.returncode != 0 and not printed,
          "without the project's sources run.py fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
