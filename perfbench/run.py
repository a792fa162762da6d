#!/usr/bin/env python3
"""Builds the end-to-end profiling benchmark from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload records|events|fleet --seed N \\
      --seconds S --trace 0|1 [--verbose]
  python3 perfbench/run.py --smoke            # every workload, tiny inputs
  python3 perfbench/run.py --make-reference   # rewrite perfbench/reference/

The build goes to .bench_build/perfbench (a Release build of pasta_core and
the perfbench program); later runs rebuild only what changed. Build output
goes to stderr, so the last line of stdout is the program's JSON result.
Exits 2 when the repository sources are not next to perfbench/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
OUT = os.path.join(".bench_build", "perfbench-out")


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode:
        return None
    return os.path.join(BUILD, "perfbench")


def main(argv):
    sources = [os.path.join(ROOT, "CMakeLists.txt"),
               os.path.join(ROOT, "src", "pasta", "Session.h")]
    if not all(os.path.isfile(path) for path in sources):
        print("perfbench: repository sources (CMakeLists.txt, src/) not found "
              "next to perfbench/", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    # Relative paths keep the fleet workload's socket path short.
    cmd = [binary] + argv + ["--reference-dir",
                             os.path.join("perfbench", "reference"),
                             "--out-dir", OUT]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
