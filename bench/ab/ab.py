#!/usr/bin/env python3
"""Paired in-process timing of one suite workload: a base tree against this one.

    python3 bench/ab/ab.py --base ../parent --workload lab_freq
    python3 bench/ab/ab.py --base ../parent --workload paper_count \\
        --seconds 30 --seed 7

--base is a repository tree; the change measured against it is the tree
that holds this script. Each is built once, Release, into .bench_build/ab/
at the repository root as a loadable module of its td library and
bench/suite workloads (see CMakeLists.txt here). ab_runner then loads the
base module twice and the change once into one process and alternates
chunks of the workload between them (see ab_runner.cc). It prints each
build's median ms per epoch, the change/base median ratio with its
quartiles, the base-copy/base ratio (the A/A control), and the three
digests; the last line is a JSON record.

Suite runs of separate processes on a shared machine move by 5-25% from
run to run. Alternating builds inside one process cancels most of that, so
the ratio resolves about 1%: read the A/A control to see how close it is
on the machine at hand.
"""

import argparse
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_ROOT = ROOT / ".bench_build" / "ab"


def fail(message):
    print(f"ab.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(tree, label, targets):
    """Builds `targets` for `tree`; returns the build directory."""
    tree = tree.resolve()
    if not (tree / "CMakeLists.txt").is_file() or \
            not (tree / "bench" / "suite" / "workloads.cc").is_file():
        fail(f"{tree} holds no repository tree with bench/suite/")
    key = hashlib.sha1(str(tree).encode()).hexdigest()[:10]
    out = BUILD_ROOT / f"{label}-{key}"
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", f"-DTD_AB_TREE={tree}"])
    steps.append(["cmake", "--build", str(out), "--target", *targets,
                  "-j", "2"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                print("\n".join(log_path.read_text().splitlines()[-30:]),
                      file=sys.stderr)
                fail(f"build of {tree} failed; see {log_path}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="repository tree measured as the base")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    base = build(args.base, "base", ["td_ab"])
    change = build(ROOT, "change", ["td_ab", "ab_runner"])
    # A second file, so the process maps a second copy of the base code.
    base_copy = base / "td_ab_copy.so"
    shutil.copyfile(base / "td_ab.so", base_copy)
    cmd = [str(change / "ab_runner"), "--base", str(base / "td_ab.so"),
           "--base-copy", str(base_copy), "--change", str(change / "td_ab.so"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
