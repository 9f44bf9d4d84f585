#!/usr/bin/env python3
"""Builds the MOST serving benchmark and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <track_wire|batch_cut> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the workspace crates, built in release mode into
$CARGO_TARGET_DIR (default .bench_build).  Build output goes to standard
error; the benchmark's last line of standard output is its JSON result.
"""

import os
import subprocess
import sys

# A run measures for --seconds, then checks its outputs; past this the
# child is stopped and the run fails.
RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "crates", "server", "Cargo.toml")):
        print("perfbench: no MOST workspace (crates/) next to perfbench/", file=sys.stderr)
        return 2
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(here, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
