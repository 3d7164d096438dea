#!/usr/bin/env python3
"""Builds greater_e2e from source and runs the end-to-end benchmark.

One workload (the form a benchmark harness calls):

    python3 bench/e2e/run_e2e.py --workload serve_zipf --seed 7 --seconds 15 --trace 0

prints greater_e2e's `workload metric value unit` lines and, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.

Every workload (the form a person calls):

    python3 bench/e2e/run_e2e.py [--seed S] [--sets 2] [--runs 3] [--trace-out DIR]

runs each workload in its own process, `--runs` seeds per set, and prints
each metric's median, quartiles and coefficient of variation per set. With
two or more sets it checks that every later set's median lies within the
metric's bound (BENCHMARK.json) of the first set's, in both directions.
`--trace-out DIR` makes the runs traced and writes one Chrome trace-event
JSON per workload into DIR.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["oocore_fit", "emit_decode", "serve_zipf", "pipeline_greater"]
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds greater_e2e; build output goes to stderr."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure,
                    ["cmake", "--build", str(build_dir), "-j", jobs]):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(command))
            return None
    return build_dir / "greater_e2e"


def run_workload(binary, build_dir, workload, seed, seconds, trace, trace_out,
                 scale, echo):
    """Runs one workload in its own process; returns its JSON result or None."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", str(build_dir / "work"), "--scale", scale]
    if trace_out:
        command += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        log(f"{workload}: greater_e2e exited with {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        log(f"{workload}: no result line")
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_bounds():
    """end_to_end metric -> (bound, better) from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def run_all(args, binary, build_dir):
    trace = args.trace or bool(args.trace_out)
    bounds = {} if trace else load_bounds()
    # sets[s][(workload, metric)] -> values over the set's runs
    sets = []
    units = {}
    attempted = failed = 0
    ok = True
    started = time.monotonic()
    for s in range(args.sets):
        values = {}
        for workload in WORKLOADS:
            for r in range(args.runs):
                result = run_workload(binary, build_dir, workload,
                                      args.seed + r, args.seconds, trace,
                                      args.trace_out, args.scale, echo=True)
                if result is None:
                    ok = False
                    continue
                attempted += result["attempted"]
                failed += result["failed"]
                print(f"# {workload} set {s} seed {args.seed + r}: attempted "
                      f"{result['attempted']} failed {result['failed']}")
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), []).append(
                        metric["value"])
                    units[(workload, name)] = metric["unit"]
        sets.append(values)

    print("# workload metric set median q1 q3 cv unit")
    for key in sorted(units):
        for s, values in enumerate(sets):
            if key not in values:
                continue
            v = values[key]
            q1, med, q3 = quartiles(v)
            mean = statistics.fmean(v)
            cv = statistics.pstdev(v) / mean if mean else 0.0
            print(f"{key[0]} {key[1]} set{s} {med:.6g} {q1:.6g} {q3:.6g} "
                  f"{cv:.4f} {units[key]}")

    agree = True
    if len(sets) >= 2 and bounds:
        print("# set agreement: later set median vs first set median")
        for key in sorted(units):
            if key[1] not in bounds or key not in sets[0]:
                continue
            bound, _ = bounds[key[1]]
            first = statistics.median(sets[0][key])
            for s in range(1, len(sets)):
                if key not in sets[s] or first == 0:
                    continue
                change = statistics.median(sets[s][key]) / first - 1.0
                within = abs(change) <= bound
                agree = agree and within
                print(f"{key[0]} {key[1]} set{s} {change:+.4f} bound "
                      f"{bound} {'ok' if within else 'OUTSIDE'}")

    metrics = {}
    for key in sorted(units):
        pooled = [v for values in sets for v in values.get(key, [])]
        metrics[f"{key[0]}.{key[1]}"] = {"value": statistics.median(pooled),
                                         "unit": units[key]}
    print(f"# total {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": ok and agree and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--build", default=str(ROOT / ".bench_build" / "e2e"),
                        help="build directory")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds per set (seed, seed+1, ...)")
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    args = parser.parse_args()
    if args.seconds is None:
        try:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            args.seconds = spec["run_seconds"]
        except (OSError, ValueError, KeyError):
            args.seconds = 15

    build_dir = Path(args.build).resolve()
    binary = build(build_dir)
    if binary is None:
        return 1
    if args.workload is None:
        return run_all(args, binary, build_dir)
    result = run_workload(binary, build_dir, args.workload, args.seed,
                          args.seconds, bool(args.trace) or bool(args.trace_out),
                          args.trace_out, args.scale, echo=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
