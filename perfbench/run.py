#!/usr/bin/env python3
"""Build and run the end-to-end HHH benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Configures and builds the library and the perfbench program (a CMake
package in this directory) into the build directory -- $CARGO_TARGET_DIR
when set, else .bench_build -- under the repository root, then runs the
program from the root. Its last stdout line is the result JSON;
build output goes to stderr. --self-test builds and runs the benchmark's
own tests instead (negative controls and span arithmetic).

Workloads, metrics and the reasons behind them: perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    """Configure (once) and build `target`; returns the path of its binary."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: the repository sources are missing; nothing to build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True,
            stdout=sys.stderr,
        )
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        check=True,
        stdout=sys.stderr,
    )
    return os.path.join(build_dir, target)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    args = sys.argv[1:]
    try:
        if args == ["--self-test"]:
            return subprocess.run([build(build_dir, "perfbench_selftest")], cwd=ROOT).returncode
        binary = build(build_dir, "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    scratch = os.path.relpath(os.path.join(build_dir, "perfbench-run"), ROOT)
    return subprocess.run([binary, *args, "--scratch", scratch], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
