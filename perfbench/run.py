#!/usr/bin/env python3
"""Builds and runs the EFind repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload log_adaptive --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later calls only re-check the build. All build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. Any failure -- missing sources, a build error, a failed run -- exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")


def _cached_source_dir():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def _run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: EFind sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    if _cached_source_dir() not in (None, SOURCE):
        # A build tree configured from another checkout cannot be reused.
        subprocess.run(["rm", "-rf", BUILD], check=False)
    if _cached_source_dir() is None:
        if not _run_quiet(["cmake", "-S", SOURCE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not _run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
                       "-j", jobs]):
        return None
    return os.path.join(BUILD, "perfbench")


def main(argv):
    binary = build()
    if binary is None:
        return 2
    work_dir = os.path.join(BUILD_ROOT, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--work-dir", work_dir] + argv
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
