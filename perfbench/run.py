#!/usr/bin/env python3
"""Build the treesvd benchmark from source and run one workload.

    python3 perfbench/run.py --workload square|tall|batch --seed N \
        --seconds S --trace 0|1

Run from the repository root. The Rust package in perfbench/ is built in
release mode into $CARGO_TARGET_DIR (default .bench_build); its output is
passed through, so the last line of standard output is the JSON result.
A failed build exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["square", "tall", "batch"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--state", os.path.join(target, "perfbench-state")],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
