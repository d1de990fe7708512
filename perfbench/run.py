#!/usr/bin/env python3
"""Store-path benchmark of the smallworld workspace.

    python3 perfbench/run.py --workload mapped-1m --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds the benchmark (`perfbench/Cargo.toml`,
a package of its own that depends on the repository's crates by path),
prepares the workload's seeded inputs once (untimed, cached under
`perfbench/.work`), then measures the workload in a process of its own with
one worker thread and prints that process's JSON result as the last line of
stdout. `--trace 1` prints the per-layer metrics instead of the end-to-end
ones. Exits non-zero without a result when the build, the inputs or the run
fail. See README.md for the workloads and what each metric means.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("mapped-1m", "indexed-1m", "gen-200k")
# Generous ceilings: a healthy run ends far sooner, and the first run in a
# checkout also builds and samples the 10^6-vertex graphs.
BUILD_TIMEOUT_S = 800
PREPARE_TIMEOUT_S = 400
RUN_TIMEOUT_S = 170


def child(cmd, threads, timeout, capture=False):
    """Runs one child to completion; a timeout or a signal kills it and
    waits for it before this process exits."""
    env = dict(os.environ, SMALLWORLD_THREADS=str(threads))
    try:
        return subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE if capture else sys.stderr,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[1]} timed out after {timeout} s", file=sys.stderr)
        return None
    except OSError as e:
        print(f"perfbench: cannot start {cmd[0]}: {e}", file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument(
        "--small", action="store_true", help="self-test scale: 2*10^4 vertices"
    )
    args = parser.parse_args()
    # a terminated benchmark must not leave its children running: raising
    # here makes subprocess.run kill and reap the current child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = child(build, 2, BUILD_TIMEOUT_S)
    if done is None or done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    os.makedirs(WORK, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", WORK]
    common += ["--small"] if args.small else []
    # inputs are built untimed, on both cores of the reference host
    done = child([exe, "prepare"] + common, 2, PREPARE_TIMEOUT_S)
    if done is None or done.returncode != 0:
        print("perfbench: preparing inputs failed", file=sys.stderr)
        return 1

    measure = [exe, "run"] + common + ["--seconds", str(args.seconds), "--trace", args.trace]
    done = child(measure, 1, RUN_TIMEOUT_S, capture=True)
    lines = done.stdout.strip().splitlines() if done is not None else []
    if done is None or done.returncode != 0 or not lines:
        print("perfbench: the measured run failed", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
