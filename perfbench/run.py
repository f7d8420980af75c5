#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: b4-dp-anytime, line4-dp-proof, jobs-fig1. The binary is built
with cargo into $CARGO_TARGET_DIR (default: .bench_build at the root of the
checkout). The last line of standard output is the run's JSON result; the
exit code is nonzero when a check failed or the checkout is incomplete.
"""

import os
import subprocess
import sys

# Knobs that would make a number describe something other than what
# FinderConfig::default() ships.
REFUSED_ENV = ("METAOPT_THREADS", "METAOPT_FACTOR", "METAOPT_BUDGET_SECS", "METAOPT_QUICK")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def commit(root):
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        print(f"perfbench: unset {', '.join(refused)}: the benchmark measures the shipped defaults",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(root, "crates")):
        print(f"perfbench: {root} is not a full checkout (no crates/ to build)", file=sys.stderr)
        return 2

    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    env["PERFBENCH_COMMIT"] = commit(root)
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
