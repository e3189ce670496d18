#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root (any checkout of it). The first run
configures and builds into .bench_build/; later runs only re-check the
build. Build output goes to stderr; stdout is the benchmark's report, whose
last line is the JSON result. Exits nonzero, printing no result, when the
build fails or the benchmark does.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [str(BUILD / "perfbench"), *sys.argv[1:], "--out-dir", str(ROOT / ".bench_out")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
