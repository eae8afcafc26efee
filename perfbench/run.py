#!/usr/bin/env python3
"""Builds the llstar benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload {bulk|daemon|edit} --seed N \
        --seconds S --trace {0|1} [--corrupt-reference]

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library from src/. It is built in $CARGO_TARGET_DIR (default
.bench_build, relative to the checkout root) on first use; later runs only
re-check the build. Build output goes to stderr. The benchmark's report goes
to stdout, and its last line is the JSON result. The exit code is the
benchmark's: 0 only when every output matched its reference.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "perfbench")


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: %s holds no llstar sources\n" % ROOT)
        return 2
    out = build_dir()
    binary = build(out)
    cmd = [binary, "--root", ROOT, "--out-dir", os.path.join(out, "traces")]
    cmd += argv
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
