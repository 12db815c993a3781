#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload abilene-steady --seed 1 --seconds 20 --trace 0

The Go program in this directory is compiled into the build directory
($CARGO_TARGET_DIR, default .bench_build, under the current directory),
with the Go build cache, module cache and tool configuration kept there
too, so nothing is read or written outside the checkout. Every argument
is passed through; the program prints the result line. The exit code is
the program's, or non-zero when the build fails.
"""

import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# The program must finish well inside the caller's per-run limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def main():
    root = os.getcwd()
    build = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [binary, "--bench-dir", BENCH_DIR, "--out-dir", build] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=root, env=env)

    def stop(signum, _frame):
        # Never leave the program running behind a stopped wrapper.
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 2


if __name__ == "__main__":
    sys.exit(main())
