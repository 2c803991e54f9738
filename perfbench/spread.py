#!/usr/bin/env python3
"""Run-to-run spread and baseline of the benchmark.

Runs perfbench/run.py once per seed for each workload and reports, for every
end-to-end metric, the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json: "ok" below a third of the bound, "WIDE"
within it, "OVER" beyond it.  With --traced-seeds it also makes traced runs
and summarizes the per-layer metrics.

    python3 perfbench/spread.py --workloads fig-sweep --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --traced-seeds 1-3 \
        --out perfbench/baseline.json

--out writes the summary in the schema of perfbench/baseline.json.  Run it
from the repository root.  Runs are sequential, so each has the machine to
itself.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Per-run fields of the environment block; the rest describe the machine and
# the build and are the same on every run.
PER_RUN_ENV = ("seed", "trace", "workload", "host_steal_ticks")


def parse_seeds(text):
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    report = json.loads(lines[0])["report"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s",
          file=sys.stderr)
    return result, report, wall


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def row(values, unit, bound=None, keep_values=False):
    summary = {"unit": unit, **quartiles(values)}
    summary["spread"] = ((summary["q3"] - summary["q1"]) / summary["median"]
                         if summary["median"] else None)
    if bound is not None:
        summary["bound"] = bound
    if keep_values:
        summary["values"] = values
    return summary


def flag(summary):
    if summary.get("bound") is None or summary["spread"] is None:
        return ""
    if summary["spread"] <= summary["bound"] / 3:
        return "ok"
    return "WIDE" if summary["spread"] <= summary["bound"] else "OVER"


def collect(workload, seeds, seconds, trace):
    """Per-metric values of the result line and of the report line."""
    result_values, named_values, walls, env = {}, {}, [], {}
    for seed in seeds:
        result, report, wall = run_once(workload, seed, seconds, trace)
        walls.append(wall)
        env = {k: v for k, v in report["env"].items() if k not in PER_RUN_ENV}
        for name, metric in result["metrics"].items():
            result_values.setdefault(name, []).append(metric["value"])
        for name, metric in report["metrics"].items():
            named_values.setdefault(name, []).append(metric["value"])
    return result_values, named_values, walls, env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="",
                        help="seeds of the traced runs (none by default)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    traced_seeds = parse_seeds(args.traced_seeds)

    summary = {
        "about": (
            "Baseline of the benchmark of record on the machine described "
            "by each workload's env. end_to_end: one --trace 0 run per seed "
            "in end_to_end_seeds; spread = (Q3 - Q1) / median with "
            "statistics.quantiles(n=4). per_layer: one --trace 1 run per "
            "seed in per_layer_seeds; layers a workload does not run are "
            "listed under per_layer_idle. named_metrics are the report "
            "line's metric names (ms(sim) = simulated time). Written by "
            "perfbench/spread.py --out."),
        "run_seconds": args.seconds,
        "end_to_end_seeds": seeds,
        "per_layer_seeds": traced_seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values, named, walls, env = collect(workload, seeds, args.seconds, 0)
        entry = {
            "env": env,
            "run_wall_s": {"median": statistics.median(walls),
                           "max": max(walls)},
            "end_to_end": {
                name: row(v, e2e[name]["unit"], e2e[name]["bound"], True)
                for name, v in sorted(values.items())},
            "named_metrics": {name: quartiles(v)
                              for name, v in sorted(named.items())
                              if len(v) == len(seeds)},
        }
        print(f"\n{workload} ({len(seeds)} seeds, run wall max "
              f"{max(walls):.1f} s)")
        for name, summary_row in entry["end_to_end"].items():
            print(f"  {name:40s} median {summary_row['median']:<14.6g} "
                  f"spread {summary_row['spread']:.4f}  "
                  f"bound {summary_row['bound']}  {flag(summary_row)}")
        if traced_seeds:
            layers, _, _, _ = collect(workload, traced_seeds, args.seconds, 1)
            entry["per_layer"] = {
                name: row(v, layer_units[name])
                for name, v in sorted(layers.items())
                if statistics.median(v) != 0}
            entry["per_layer_idle"] = sorted(
                name for name, v in layers.items()
                if statistics.median(v) == 0)
            print(f"  per-layer: {len(entry['per_layer'])} measured, "
                  f"{len(entry['per_layer_idle'])} idle")
        summary["workloads"][workload] = entry
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
