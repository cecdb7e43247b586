#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload passmark_app --seed 1 --seconds 20 --trace 0

The driver is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. The last line of
standard output is the driver's result object. Extra arguments (such as
--inject, used by perfbench/test_benchmark.py) are passed to the driver.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DRIVER_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = REPO_ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (out_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    make = ["cmake", "--build", str(out_dir), "--target", "perfbench_driver",
            "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        return None
    driver = out_dir / "perfbench_driver"
    return driver if driver.exists() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args, extra = parser.parse_known_args()

    sources = REPO_ROOT / "src" / "CMakeLists.txt"
    replay_trace = REPO_ROOT / "tests" / "data" / "golden_passmark.cyt"
    for needed in (sources, replay_trace):
        if not needed.exists():
            log(f"missing {needed.relative_to(REPO_ROOT)}: not a full checkout")
            return 1

    out_dir = build_dir()
    driver = build(out_dir)
    if driver is None:
        log("build failed")
        return 1

    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--data-dir", str(BENCH_DIR / "data"),
               "--replay-trace", str(replay_trace)]
    if args.trace == "1":
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        command += ["--spans-out", str(spans)]
    command += extra
    with subprocess.Popen(command, cwd=out_dir) as process:
        try:
            return process.wait(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
            return 1


if __name__ == "__main__":
    sys.exit(main())
