#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every end-to-end metric of BENCHMARK.json this prints the median over
the runs and the distance between the first and third quartile as a share
of that median (``statistics.quantiles(values, n=4)``), next to the
metric's bound.  A spread at or below a third of the bound is marked ok.

    python3 perfbench/spread.py --workload ingest-query --seeds 1-10

Run it from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        os.makedirs(".perfbench_out", exist_ok=True)
        with open(f".perfbench_out/spread-{args.workload}.jsonl", "a") as log:
            log.write(lines[-2] + "\n")
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect run")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {wall:.1f} s wall", file=sys.stderr)

    print(f"{'metric':<24} {'median':>14} {'spread':>8} {'bound':>6}")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = m.get("bound")
        mark = ""
        if bound is not None:
            mark = "ok" if spread <= bound / 3 else "WIDE"
        print(f"{m['name']:<24} {med:>14.6g} {spread:>8.4f} "
              f"{bound if bound is not None else '':>6} {mark}")


if __name__ == "__main__":
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    main()
