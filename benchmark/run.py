#!/usr/bin/env python3
"""Builds the benchmark and the tomo-serve daemon from source, then runs one workload.

Usage, from the repository root:

    python3 benchmark/run.py --workload <name> --seed N --seconds S --trace <0|1>

Workloads: fig7-montecarlo, serve-rocketfuel, detect-wireline (see
benchmark/README.md). Builds go to $CARGO_TARGET_DIR (default .bench_build).
Build output goes to stderr; the last line of stdout is the JSON result.
A failed build or a failed correctness check exits non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(env, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    if not build(env, "--manifest-path", manifest):
        print("benchmark build failed", file=sys.stderr)
        return 1
    if not build(env, "-p", "tomo-serve", "--bin", "tomo-serve"):
        print("tomo-serve build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    bench = os.path.join(release, "tomo-perfbench")
    serve = os.path.join(release, "tomo-serve")
    return subprocess.run([bench, *sys.argv[1:], "--serve-bin", serve], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
