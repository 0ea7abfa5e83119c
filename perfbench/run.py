#!/usr/bin/env python3
"""Build and run the MetaScope end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: metatrace-512, ensemble-1024, stream-512 (see perfbench/NOTES.md).
The script configures and builds perfbench/CMakeLists.txt (the libraries
under src/ plus perfbench_driver) into .bench_build/perfbench, with all
build output on stderr, then replaces itself with the driver, so the run is
one process. The driver writes its scratch archives and the traced run's
span file under .bench_build/out and prints the result JSON as the last
line of stdout. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
DRIVER = BUILD_DIR / "perfbench_driver"


def build() -> bool:
    jobs = str(len(os.sched_getaffinity(0)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def main() -> int:
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(DRIVER, [str(DRIVER), *sys.argv[1:], "--out-dir", str(OUT_DIR)])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
