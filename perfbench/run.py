#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which builds the etch
libraries from src/) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only check that the build is current.
Build output goes to stderr. The last line of standard output is the
benchmark's JSON result. Everything the run writes (build tree, JIT kernel
caches, compiler temporaries, span dumps) stays under that build directory.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_large", "serve_rw", "adhoc_cold")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the etch sources (src/) are missing next to perfbench/")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)

    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # The JIT's cc writes temporaries under TMPDIR; keep them in the build.
    env["TMPDIR"] = tmp
    env["XDG_CACHE_HOME"] = os.path.join(build_dir, "cache")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
