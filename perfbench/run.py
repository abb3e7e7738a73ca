#!/usr/bin/env python3
"""The repository benchmark: build bitdewd and the load generator from the
checkout, run one workload against a live bitdewd, and print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: bulk_transfer, catalog_mix, fleet_sync (see perfbench/README.md). The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout root; scratch files for the run live
there too and are removed afterwards. Before the result, one JSON line
carries the provenance stamp; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_transfer", "catalog_mix", "fleet_sync")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures (once) and builds perfgen plus bitdewd; False on failure."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfgen", "-j", jobs])
    with open(log_path, "a") as build_log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                log(f"build step failed: {error}")
                return False
            if code != 0:
                log(f"build failed (exit {code}); see {log_path}")
                return False
    return True


def source_stamp():
    """The git commit when the checkout is a repository, else a hash of the
    sources the benchmark builds."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
        if commit.returncode == 0:
            return commit.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "examples", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return "tree-sha1:" + digest.hexdigest()


def compiler(out_dir):
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    version = subprocess.run([path, "--version"], capture_output=True, text=True,
                                             timeout=10).stdout.splitlines()
                    return version[0] if version else path
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("bad-checksum", "kill"),
                        help="fault injection for the self-test")
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    perfgen = os.path.join(out_dir, "perfgen")
    daemon = os.path.join(out_dir, "bitdew", "bitdewd")
    workdir = os.path.join(os.path.dirname(out_dir), "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    command = [perfgen, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--daemon", daemon, "--workdir", workdir]
    if args.inject:
        command += ["--inject", args.inject]
    try:
        run = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("load generator timed out")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.stderr:
        sys.stderr.write(run.stderr)
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if run.returncode != 0 or not lines:
        log(f"load generator failed (exit {run.returncode})")
        return 1
    raw = json.loads(lines[-1])

    notes = raw.get("notes", {})
    attempted = max(1, int(raw["attempted"]))
    failed = int(raw["failed"])
    provenance = {
        "commit": source_stamp(),
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "compiler": compiler(out_dir),
        "machine": platform.machine(),
        "network": "loopback: bitdewd binds 127.0.0.1 (--loopback); generator and daemon "
                   "share this machine's cores",
        "wal_and_content_fs": notes.pop("wal_fs", "unknown"),
        "flush_policy": "bitdewd default: WAL appended and flushed per record with no fsync; "
                        "auto-compaction at 8 MiB",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": failed / attempted,
        "context": notes,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    result = {
        "correct": bool(raw["correct"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": raw["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
