#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json. The first run in a
checkout configures and builds perfbench/ (the library sources under src/
plus perfbench.cpp) into .bench_build/perfbench; later runs rebuild only
what changed. Records go to .bench_build/results/<workload>/: one JSON per
run with the run header (nproc, compiler, build type, git sha or source
digest, seed, warm-up), and for traced runs a per-site profile table.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Any build failure, failed
correctness gate or unexpected output exits non-zero without printing it.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD_DIR / "Makefile").exists():  # never configured, or failed
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return BUILD_DIR / "perfbench"


def git_sha():
    # Only a checkout that is itself a git work tree has a sha; the search
    # never leaves the checkout.
    if not (ROOT / ".git").exists():
        return ""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def source_digest():
    """sha256 over the library and benchmark sources, which identifies the
    code measured even where there is no git sha."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last output line is not JSON: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result is not a correct run")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(RESULTS_DIR),
               "--git-sha", git_sha(), "--src-digest", source_digest()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{args.workload} exited {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
