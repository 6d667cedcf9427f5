#!/usr/bin/env python3
"""Wall-clock pipeline benchmark: builds the benchmark binary from source, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        One run. The last stdout line is the result JSON
        {"correct", "attempted", "failed", "metrics"}.
    python3 perfbench/run.py [--seed <n>] [--seconds <s>] [--trace <0|1>]
        Every workload in turn, then a table of every metric with its unit.
    python3 perfbench/run.py --selftest
        Builds and runs the benchmark's own tests.

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and inputs, outputs and result files to .bench_work, both
below the root. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["taxi_ooc", "patrol_inmem", "loan_eager"]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "bento", "runner.h")):
        log("no bento sources next to perfbench/ (expected src/ at the root)")
        sys.exit(2)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return build_dir


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(binary, workload, args):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_work"),
           "--git-sha", git_sha()]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build("perfbench_selftest")
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              cwd=build_dir).returncode

    binary = os.path.join(build("perfbench"), "perfbench")
    if args.workload:
        code, _ = run_one(binary, args.workload, args)
        return code

    results = {}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(binary, workload, args)
        worst = max(worst, code)
        results[workload] = result
    names = []
    for result in results.values():
        for name in (result or {}).get("metrics", {}):
            if name not in names:
                names.append(name)
    print("\n%-40s %-6s" % ("metric", "unit") +
          "".join(" %14s" % w for w in WORKLOADS))
    for name in names:
        unit = ""
        cells = []
        for w in WORKLOADS:
            metric = ((results[w] or {}).get("metrics") or {}).get(name)
            unit = metric["unit"] if metric else unit
            cells.append(" %14.6g" % metric["value"] if metric else " %14s" % "-")
        print("%-40s %-6s" % (name, unit) + "".join(cells))
    # fail_frac: share of attempted executions that errored or failed the
    # output check (1 - ok_frac).
    print("%-40s %-6s" % ("fail_frac", "frac") + "".join(
        " %14.6g" % (r["failed"] / r["attempted"]) if r else " %14s" % "-"
        for r in (results[w] for w in WORKLOADS)))
    for w in WORKLOADS:
        r = results[w] or {}
        print("%s: correct=%s attempted=%s failed=%s" %
              (w, r.get("correct"), r.get("attempted"), r.get("failed")))
    return worst


if __name__ == "__main__":
    sys.exit(main())
