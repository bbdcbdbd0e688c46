#!/usr/bin/env python3
"""Reader benchmark entry point (see perfbench/README.md).

Builds the benchmark from source on first use, then runs one workload and
passes its output through; the last line of stdout is the result JSON.

    python3 perfbench/run.py --workload serve_ambient|batch_decode \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build logs go to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(os.path.dirname(HERE), "src")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds; returns the build directory."""
    if not os.path.isdir(os.path.join(SOURCES, "reader")):
        sys.exit(f"perfbench: reader sources not found at {SOURCES}")
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", BUILD_JOBS])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return out


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {cmd[0]} exceeded {RUN_TIMEOUT_S} s")


def main(argv):
    if argv == ["--selftest"]:
        return run([os.path.join(build(), "perfbench_checks_test")])
    if not argv:
        sys.exit(__doc__)
    return run([os.path.join(build(), "perfbench")] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
