#!/usr/bin/env python3
"""Small-scale self-check of the benchmark.

Runs every workload of BENCHMARK.json at n = 20,000 for one second, in both
modes, and asserts that

* the last line is the result object with exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``, with every run correct;
* every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) is printed with its unit, the end-to-end ones non-zero;
* a perturbed expected center digest makes the command exit non-zero;
* the command fails, printing no result, in a directory that holds only
  BENCHMARK.json and the benchmark's own files.

    python3 perfbench/selfcheck.py

Run it from the root of the repository.
"""

import json
import math
import os
import shutil
import subprocess
import sys


def run(cmd, cwd=None):
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def check_result(proc, catalogue, nonzero, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: not correct"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in catalogue}, f"{label}: metric names"
    for m in catalogue:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), label
        if nonzero:
            assert value != 0, f"{label}: {m['name']} is 0"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for w in (w["name"] for w in bench["workloads"]):
        base = bench["command"] + ["--workload", w, "--seed", "1", "--seconds", "1",
                                   "--scale", "tiny"]
        check_result(run(base + ["--trace", "0"]), bench["end_to_end"], True,
                     f"{w} --trace 0")
        check_result(run(base + ["--trace", "1"]), bench["per_layer"], False,
                     f"{w} --trace 1")
        bad = run(base + ["--trace", "0", "--expect-digest", "0000000000000000"])
        assert bad.returncode != 0, f"{w}: a wrong expected digest still passed"
        print(f"{w}: ok", file=sys.stderr)

    bare = os.path.join(".perfbench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
    env_dir = os.environ["CARGO_TARGET_DIR"]
    os.environ["CARGO_TARGET_DIR"] = ".bench_build"
    proc = run(bench["command"] + ["--workload", "csv-gon", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=bare)
    os.environ["CARGO_TARGET_DIR"] = env_dir
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "the benchmark ran without the repository"
    assert "correct" not in proc.stdout, "the bare run printed a result"
    print("self-check passed", file=sys.stderr)


if __name__ == "__main__":
    main()
