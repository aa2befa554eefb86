#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

Builds the Go program in perfbench/ (a module of its own that imports the
repository's packages through a replace directive) with its build cache,
temporary files and scratch trace stores all under .bench_build/ in the
checkout, runs it once, and removes the scratch directory. The program's
standard output passes through unchanged; its last line is the result
object. The exit code is the program's: 0 when every output matched.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        TMPDIR=os.path.join(BUILD, "tmp"),
    )
    return env


def terminate(signum, frame):
    # Unwinding through subprocess.run kills and waits for the child, and
    # the finally clause below removes the scratch directory.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["suite", "sweep", "service"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=BENCH, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print(f"perfbench: build failed:\n{build.stdout}", file=sys.stderr)
        return 3

    work = tempfile.mkdtemp(prefix="work-", dir=BUILD)
    try:
        run = subprocess.run(
            [BINARY,
             "-workload", args.workload,
             "-seed", str(args.seed),
             "-seconds", str(args.seconds),
             "-trace", str(args.trace),
             "-work", work,
             "-expected", os.path.join(BENCH, "expected.json")],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
        )
        return run.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
