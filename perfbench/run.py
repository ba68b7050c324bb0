#!/usr/bin/env python3
"""Build and run the mspar benchmark.

    python3 perfbench/run.py --workload paper-ring --seed 2009 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. The first call configures and builds the
benchmark (a CMake package in this directory that compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. The benchmark's self-tests run before every
measurement. The last line of standard output is the run's JSON result;
with --workload all it is one object over every workload, its metric names
prefixed with the workload name.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ["paper-ring", "open-search", "serve-stream", "tenant-mix"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (root / "src" / "core" / "algorithm_a.cpp").is_file():
        fail(f"no mspar sources under {root / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
         "mspar_perfbench", "perfbench_selftest"],
    ]
    if (build_dir / "CMakeCache.txt").is_file():
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))


def run_one(build_dir, workload, args):
    work_dir = Path(tempfile.mkdtemp(prefix="inputs-", dir=build_dir))
    try:
        done = subprocess.run(
            [str(build_dir / "mspar_perfbench"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", str(work_dir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    return done.returncode, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"
    build(root, build_dir)
    if subprocess.run([str(build_dir / "perfbench_selftest")]).returncode:
        fail("self-test failed")

    if args.workload != "all":
        code, result = run_one(build_dir, args.workload, args)
        print(json.dumps(result))
        sys.exit(code)

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(build_dir, workload, args)
        worst = max(worst, code)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    sys.exit(worst)


if __name__ == "__main__":
    main()
