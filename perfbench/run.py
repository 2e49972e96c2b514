#!/usr/bin/env python3
"""The end-to-end benchmark: measure -> archive -> query.

Builds the benchmark binary (and the library under ../src) in
.bench_build/, runs one workload and prints the result as one JSON
object on the last line of standard output. Exits 1 when the build
fails, the binary fails or any correctness check fails.

    python3 perfbench/run.py --workload measure-wide --seed 1 \
        --seconds 25 --trace 0

README.md beside this file describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402

WORKLOADS = ("measure-wide", "measure-dense", "archive")
RUN_TIMEOUT_S = 170


def build():
    build_dir = ROOT / ".bench_build" / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", str(len(os.sched_getaffinity(0)))],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return 1

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    raw_path = work / f"raw-{args.workload}-{args.seed}-{args.trace}.json"
    raw_path.unlink(missing_ok=True)
    try:
        subprocess.run([str(binary), "--workload", args.workload,
                        "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace),
                        "--out", str(raw_path),
                        "--work-dir", str(work),
                        "--golden-dir", str(ROOT / "tests" / "golden")],
                       check=True, timeout=RUN_TIMEOUT_S)
        raw = json.loads(raw_path.read_text())
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark binary failed: {exc}", file=sys.stderr)
        return 1

    result, problems = report.reduce(raw)
    for name, metric in result["metrics"].items():
        print(f"{name:30} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
