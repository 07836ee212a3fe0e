#!/usr/bin/env python3
"""Build the benchmark program from this checkout's sources and run it.

    python3 perfbench/run.py --workload power|serve|analyze --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
perfbench/ (and the library sources under src/) into .bench_build/ in
Release mode; later calls only re-check the build.  Build output goes to
stderr, so the program's JSON result stays the last line of stdout.  The
exit status is the program's, or 1 when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_JOBS = "4"


def build():
    """Configure (once) and build the program; returns its path or None."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "perfbench")


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
