#!/usr/bin/env python3
"""Build the envybench binary from source and run one workload.

Run from the repository root:

    python3 envybench/run.py --workload zipf-hot --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; the first call configures and compiles (a few
minutes), later calls only check that the build is current.  Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result.  Exits non-zero without a result when the
sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_root):
    build_dir = os.path.join(build_root, "envybench")
    # Configuring an already configured tree is quick and repairs one
    # that an earlier failure left half done.
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "envybench", "-j4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "envybench")


def main():
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"envybench: build failed: {e}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--data-dir" not in args:
        args += ["--data-dir", os.path.join(build_root, "envybench-data")]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
