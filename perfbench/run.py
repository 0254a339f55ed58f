#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a source tree.

    python3 perfbench/run.py --workload oltp|olap|ou_serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The engine (src/) and the benchmark program (perfbench/*.cpp) are compiled into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench) on every call; an
up-to-date build costs a second. The run stamp goes to standard output,
build logs to standard error, and the program's report follows; its last
line is the JSON result. Every file the run writes stays under the build
directory.
"""

import argparse
import os
import platform
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def src_line_count():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith((".cpp", ".h")):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def build(build_dir, env):
    started = time.monotonic()
    for cmd in (["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
                 "--target", "perfbench"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return time.monotonic() - started


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["oltp", "olap", "ou_serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        fail("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the root of the source tree (no src/CMakeLists.txt here)")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    # The compiler's and the program's temporary files stay in the tree too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    build_s = build(build_dir, env)

    print("stamp host=%s nproc=%d build_type=%s commit=%s src_lines=%d build_s=%.1f"
          % (platform.node(), os.cpu_count() or 0, BUILD_TYPE, git_commit(),
             src_line_count(), build_s))
    sys.stdout.flush()

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workdir", os.path.join(build_dir, "work")]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S if not args.smoke else 600)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
