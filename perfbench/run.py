#!/usr/bin/env python3
"""Benchmark of record for rmrn.

Builds the rmrn library and the benchmark binary from source (optimized,
contract checks on), runs one workload and prints its result: a report line
followed by the result object as the last line of standard output.

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 40 \
        --trace 0

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR when
set (relative paths are taken from the repository root), else to
.bench_build.  The exit code is the binary's: 0 when every correctness and
determinism check passed, 1 when one failed (named on stderr), 2 on bad
arguments or a failed build.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("fig-sweep", "lossy-transfer", "plan-churn")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no rmrn sources next to the benchmark (src/ is missing)")
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(out_dir), "-j", "4",
                  "--target", "rmrn_perfbench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build failed: " + " ".join(step))
    binary = out_dir / "rmrn_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt",
                                                  ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    # Only look at this checkout's own history: git would otherwise search
    # the parent directories for a repository.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within [1, 120]")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing")

    out_dir = build_dir()
    binary = build(out_dir)
    spans_dir = out_dir / "spans"
    spans_dir.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--spans",
               str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl"),
               "--commit", commit(), "--source-digest", source_digest()]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark binary printed no result", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"the last line is not a result: {lines[-1][:200]}", 1)
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail("metrics differ from BENCHMARK.json: "
             + ", ".join(sorted(missing)), 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
