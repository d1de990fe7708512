#!/usr/bin/env python3
"""Self-tests of the store-path benchmark, at 2*10^4 vertices.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json: the plain run prints exactly the
declared end-to-end metrics with their units and fails nothing; the traced
run prints exactly the declared per-layer metrics and its layers add up to
the traced wall time; a corrupted reference digest makes every operation
fail. Also runs the package's unit tests. Exits non-zero on a failure.
"""

import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# a seed of its own, so corrupting its references leaves other caches alone
SEED = 7


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(workload, result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"{workload}: metrics {got} differ from the declared {want}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        fail(f"{workload}: a metric value is not a number")


def corrupt_references(workload):
    """Flips a bit of every reference digest of the self-test seed; returns
    the corrupted files."""
    kind = "gen" if workload.startswith("gen") else "graph"
    lam = "0.02" if workload.startswith("indexed") else "1"
    pattern = os.path.join(HERE, ".work", "v*", f"{kind}-n20000-lambda{lam}", f"*-s{SEED}.txt")
    paths = glob.glob(pattern)
    if not paths:
        fail(f"{workload}: no references match {pattern}")
    for path in paths:
        lines = open(path).read().splitlines()
        out = []
        for i, line in enumerate(lines):
            words = line.split()
            if kind == "gen" or i > 0:
                # the digest is the last word of every pair line and of
                # the gen reference line
                words[-1] = f"{int(words[-1], 16) ^ 1:016x}"
            out.append(" ".join(words))
        open(path, "w").write("\n".join(out) + "\n")
    return paths


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    unit = ["cargo", "test", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(unit, cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target)).returncode:
        fail("unit tests")

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for workload in [w["name"] for w in bench["workloads"]]:
        plain = run(workload, 0)
        check_metrics(workload, plain, bench["end_to_end"])
        if not plain["correct"] or plain["failed"] != 0 or plain["attempted"] < 1:
            fail(f"{workload}: plain run not correct: {plain}")

        traced = run(workload, 1)
        check_metrics(workload, traced, bench["per_layer"])
        unattributed = traced["metrics"]["trace.unattributed_frac"]["value"]
        if abs(unattributed) >= 0.1:
            fail(f"{workload}: layers leave {unattributed:.3f} of the traced wall time unattributed")

        corrupted = corrupt_references(workload)
        broken = run(workload, 0)
        for path in corrupted:
            os.remove(path)  # the next run prepares them afresh
        if broken["correct"] or broken["failed"] != broken["attempted"]:
            fail(f"{workload}: corrupted references gave {broken['failed']}/{broken['attempted']} failed")
        print(f"selftest: {workload} ok (unattributed {unattributed:.4f})")
    print("selftest: all ok")


if __name__ == "__main__":
    main()
