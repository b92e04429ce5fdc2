#!/usr/bin/env python3
"""Compares two sets of benchmark results, or summarizes one set.

    python3 bench/suite/compare.py BASE NEW
    python3 bench/suite/compare.py RUNS
    python3 bench/suite/compare.py RUNS --baseline OUT.json --note "..."

A set is a directory of result files written by run.py --record, or a JSON
file holding {"runs": [...]} such as bench/suite/baseline.json.

With two sets, for each workload and end-to-end metric of BENCHMARK.json
it prints both sides' medians and quartiles, the pairs NEW wins (runs
paired by seed, then in order; ties count for neither side), and a verdict:

  improved    NEW wins at least 9 pairs in 10 and the medians differ by
              more than BASE's interquartile range
  regressed   NEW's median is worse than BASE's by more than the bound
  unresolved  BASE's own spread (IQR / median) is wider than the bound, so
              a difference of that size cannot be told from noise, unless
              every NEW run beats every BASE run
  unchanged   otherwise, including every pair being bit-identical

Traced runs (--trace 1) are listed per layer, without verdicts: per-layer
metrics have no bounds. Exits 1 on any regression, on a digest that differs
between runs of one workload and seed, or on a run that failed its checks.

With one set it prints each metric's median and spread; --baseline writes
the set and its spreads to one file that can later serve as BASE.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def load_set(path):
    if path.is_dir():
        return [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
    data = json.loads(path.read_text())
    return data["runs"] if "runs" in data else [data]


def runs_of(records, workload, trace):
    picked = [r for r in records
              if r["workload"] == workload and r["trace"] == trace]
    return sorted(picked, key=lambda r: r["seed"])  # stable within a seed


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs]


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, spec):
    lower = spec["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    pairs = list(zip(base, new))
    wins = sum(better(n, b) for b, n in pairs)
    bq1, bmed, bq3 = quartiles(base)
    nmed = statistics.median(new)
    worse = (nmed - bmed) / abs(bmed) if lower else (bmed - nmed) / abs(bmed)
    base_spread = (bq3 - bq1) / abs(bmed)
    all_better = all(better(n, b) for n in new for b in base)
    all_worse = all(better(b, n) for n in new for b in base)
    if all(b == n for b, n in pairs) and len(base) == len(new):
        v = "unchanged"
    elif worse > spec["bound"]:
        v = ("regressed" if base_spread <= spec["bound"] or all_worse
             else "unresolved")
    elif -worse * abs(bmed) > bq3 - bq1 and wins >= 0.9 * len(pairs):
        v = "improved"
    elif base_spread > spec["bound"] and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, wins, len(pairs)


def check_runs(records, label):
    return [f"{label}: {r['workload']} seed {r['seed']} failed its checks: "
            f"{r.get('failures')}"
            for r in records if not r["correct"] or r["failed"]]


def check_digests(records):
    digests = {}
    for r in records:
        digests.setdefault((r["workload"], r["seed"]), set()).add(r["digest"])
    return [f"digest mismatch: {w} seed {s}: {sorted(d)}"
            for (w, s), d in sorted(digests.items()) if len(d) > 1]


def fmt(x):
    return f"{x:.6g}"


def summarize(records):
    table = {}
    for w in WORKLOADS:
        runs = runs_of(records, w, 0)
        if not runs:
            continue
        print(f"\n{w}  ({len(runs)} runs)")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        table[w] = {}
        for name, spec in END_TO_END.items():
            xs = values(runs, name)
            q1, med, q3 = quartiles(xs)
            s = spread(xs)
            table[w][name] = s
            flag = ("  > bound" if s > spec["bound"] else
                    "  > bound/3" if s > spec["bound"] / 3 else "")
            print(f"  {name:18} {fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} "
                  f"{s:8.2%} {spec['bound']:6.0%}{flag}")
        traced = runs_of(records, w, 1)
        if traced:
            print(f"  per layer ({len(traced)} traced runs, medians)")
            for name in PER_LAYER:
                med = statistics.median(values(traced, name))
                print(f"    {name:34} {fmt(med)}")
    return table


def compare(base, new):
    regressions = 0
    for w in WORKLOADS:
        b_runs, n_runs = runs_of(base, w, 0), runs_of(new, w, 0)
        if b_runs and n_runs:
            print(f"\n{w}  (base {len(b_runs)} runs, new {len(n_runs)} runs)")
            print(f"  {'metric':16} {'base':>10} {'base q1..q3':>21} "
                  f"{'new':>10} {'new q1..q3':>21} {'change':>8} "
                  f"{'wins':>5}  verdict")
            for name, spec in END_TO_END.items():
                bx, nx = values(b_runs, name), values(n_runs, name)
                v, wins, pairs = verdict(bx, nx, spec)
                regressions += v == "regressed"
                bq1, bmed, bq3 = quartiles(bx)
                nq1, nmed, nq3 = quartiles(nx)
                change = (nmed - bmed) / abs(bmed) if bmed else 0.0
                print(f"  {name:16} {fmt(bmed):>10} "
                      f"{fmt(bq1) + '..' + fmt(bq3):>21} {fmt(nmed):>10} "
                      f"{fmt(nq1) + '..' + fmt(nq3):>21} {change:+8.2%} "
                      f"{wins:>2}/{pairs:<2}  {v}")
        b_tr, n_tr = runs_of(base, w, 1), runs_of(new, w, 1)
        if b_tr and n_tr:
            print(f"  per layer (traced; base {len(b_tr)}, new {len(n_tr)} "
                  f"runs, medians)")
            for name in PER_LAYER:
                bmed = statistics.median(values(b_tr, name))
                nmed = statistics.median(values(n_tr, name))
                change = f"{(nmed - bmed) / abs(bmed):+.2%}" if bmed else ""
                print(f"    {name:34} {fmt(bmed):>12} {fmt(nmed):>12} "
                      f"{change:>9}")
    return regressions


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sets", nargs="+", type=Path, metavar="SET",
                        help="BASE and NEW, or one set to summarize")
    parser.add_argument("--baseline", type=Path,
                        help="with one set: write it and its spreads here")
    parser.add_argument("--note", default="",
                        help="with --baseline: how the runs were made")
    args = parser.parse_args()
    if len(args.sets) > 2:
        parser.error("give one or two sets")

    sets = [load_set(p) for p in args.sets]
    problems = []
    for label, records in zip(("base", "new"), sets):
        problems += check_runs(records, label)
    problems += check_digests([r for records in sets for r in records])

    regressions = 0
    if len(sets) == 1:
        table = summarize(sets[0])
        if args.baseline:
            args.baseline.write_text(json.dumps(
                {"note": args.note, "spread": table, "runs": sets[0]},
                indent=1) + "\n")
    else:
        regressions = compare(*sets)

    for p in problems:
        print(f"\nERROR {p}")
    if regressions:
        print(f"\n{regressions} metric(s) regressed")
    sys.exit(1 if problems or regressions else 0)


if __name__ == "__main__":
    main()
