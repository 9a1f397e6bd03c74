#!/usr/bin/env python3
"""Builds and runs the maxutil benchmark (see README.md).

    python3 perfbench/run.py --workload churn|solve --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first run configures and builds the
library, maxutil_cli and the perfbench program into .bench_build/perfbench
(Release-with-debug-info, the repository's default build type); later runs
only check that the build is current. The program's last stdout line is the
result JSON. Exit code 0 means every correctness check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT = 170  # seconds for one measured run, build excluded


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    command = [os.path.join(BUILD, "perfbench"),
               "--cli", os.path.join(BUILD, "tools", "maxutil_cli"),
               "--workdir", ".bench_run"] + sys.argv[1:]
    child = subprocess.Popen(command, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, 9)
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
