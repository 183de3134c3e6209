#!/usr/bin/env python3
"""Builds the benchmark harness and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 35 \
        --trace 0

The harness is compiled from source into the directory named by
CARGO_TARGET_DIR (default `.bench_build`), relative to the current
directory.  Build output goes to stderr; the harness prints its result as
the last line of stdout.  A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    env = dict(os.environ, CCACHE_DISABLE="1")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    work_dir = os.path.join(build_dir, "work")
    result = subprocess.run([binary, "--work-dir", work_dir] + argv)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
