#!/usr/bin/env python3
"""Builds GraphCache's benchmark and `gc` binary from source, then runs one
workload and passes its output through.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds go to $CARGO_TARGET_DIR (default `.bench_build`). Build progress goes
to standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero, without a result line, when the repository
sources are missing or a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        sys.stderr.write("perfbench: run from the repository root (Cargo.toml and crates/ not found)\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for extra in (["--bin", "gc"], ["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        if subprocess.run(cargo + extra, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed\n")
            return 2
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    return subprocess.run([bench, "--gc", os.path.join(release, "gc")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
