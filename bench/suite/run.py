#!/usr/bin/env python3
"""Runs the benchmark suite: builds bench_suite, then runs workloads.

    python3 bench/suite/run.py                         # all five workloads
    python3 bench/suite/run.py --workload lab_freq --seed 7
    python3 bench/suite/run.py --workload dashboard --trace 1
    python3 bench/suite/run.py --record .bench_build/runs/base  # keep results

The first call configures and builds Release binaries under .bench_build/
at the repository root. Every workload runs in its own process on one
thread. Each metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. --trace 1 reports the per-layer metrics instead of the
end-to-end ones and writes the run's spans to .bench_build/trace_<name>.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "suite"
BINARY = BUILD / "bench_suite"
WORKLOADS = ["paper_count", "lab_freq", "scale_40k", "dashboard", "federation"]
# A run measures for --seconds (twice over in halves with --trace 1) plus
# set-up and warmup; anything near this limit is a hang.
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no repository to build (no CMakeLists.txt or src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_ROOT / "suite-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_suite",
                  "-j", "2"])
    with open(log_path, "w") as log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")


def run_workload(name, args):
    cmd = [str(BINARY), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(BUILD_ROOT / f"trace_{name}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(proc.stdout, file=sys.stderr)
        fail(f"{name} exited with code {proc.returncode} and no result")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def save_record(record, directory):
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    n = 0
    while (directory / f"{stem}-{n}.json").exists():
        n += 1
    path = directory / f"{stem}-{n}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, a process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", type=Path,
                        help="directory to keep one result file per run in")
    args = parser.parse_args()

    build()
    names = [args.workload] if args.workload else WORKLOADS
    records = [run_workload(name, args) for name in names]
    if args.record:
        for record in records:
            save_record(record, args.record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in records for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
