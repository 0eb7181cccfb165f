#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in a fresh process.

Usage, from the repository root:

    python3 perfbench/run.py --workload cc-sim-n16-d2 --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see main.go). The binary,
the Go build cache and Go's temporary files all live under .bench_build/ in
the repository root, so a run reads and writes nothing outside the checkout.
The exit status is the binary's: 0 when every check passed, 1 when one
failed, 2 on a usage, build or setup error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    proc = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=go_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + proc.stdout)
        return None
    return binary


def main():
    binary = build()
    if binary is None:
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
