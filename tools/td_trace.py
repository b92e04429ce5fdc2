#!/usr/bin/env python3
"""Render a drained flight-recorder trace (obs::ToJsonl) as an epoch
timeline.

Usage:
    td_trace.py TRACE.jsonl [--kind KIND ...] [--node N]
                [--from-epoch E] [--to-epoch E] [--summary] [--raw]

Input is one JSON object per line, the exact format obs::ToJsonl writes:

    {"epoch":12,"kind":"retry","node":41,"ring":2,"a":3,"b":1}

Kinds and their a/b payloads (src/obs/trace.h):
    retry             node=sender, a=physical attempts, b=1 if delivered
                      (only contested unicasts -- a>1 or b=0 -- are traced)
    tree_repair       a=cumulative repair count, b=gateway index
    mode_switch       a=+levels expanded / -levels shrunk by TD adaptation,
                      b=gateway index (0 for a single engine)
    reroute           a=nodes re-parented away from blacklisted links
    coordinator_merge a=gateway-root merges this epoch, b=bytes merged
    group_created     a=broker computation-group id
    group_retired     a=broker computation-group id

The default view prints one line per epoch that has events, folding retries
into a count/attempts/failures digest so repairs and mode switches stay
visible; --raw prints every event on its own line instead. A totals block
follows (alone with --summary). Reads stdin when TRACE is '-'.

Exit codes: 0 ok, 2 usage/parse error.
"""

import argparse
import json
import sys
from collections import Counter, defaultdict

KINDS = ("retry", "tree_repair", "mode_switch", "reroute",
         "coordinator_merge", "group_created", "group_retired")


def load_events(path):
    try:
        f = sys.stdin if path == "-" else open(path)
    except OSError as e:
        print(f"td_trace: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    events = []
    with f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                e = json.loads(line)
            except json.JSONDecodeError as err:
                print(f"td_trace: {path}:{lineno}: {err}", file=sys.stderr)
                sys.exit(2)
            if not isinstance(e, dict) or "epoch" not in e or "kind" not in e:
                print(f"td_trace: {path}:{lineno}: not a trace event",
                      file=sys.stderr)
                sys.exit(2)
            events.append(e)
    return events


def describe(e):
    """One human-readable cell for a non-retry event."""
    kind, a, b = e["kind"], e.get("a", 0), e.get("b", 0)
    if kind == "tree_repair":
        return f"tree_repair[gw{b} total={a}]"
    if kind == "mode_switch":
        return f"mode_switch[gw{b} {a:+d} levels]"
    if kind == "reroute":
        return f"reroute[{a} nodes]"
    if kind == "coordinator_merge":
        return f"coordinator_merge[{a} merges, {b} B]"
    if kind in ("group_created", "group_retired"):
        return f"{kind}[group {a}]"
    return f"{kind}[node={e.get('node', -1)} a={a} b={b}]"


def print_timeline(events, raw):
    by_epoch = defaultdict(list)
    for e in events:
        by_epoch[e["epoch"]].append(e)
    for epoch in sorted(by_epoch):
        cells = []
        retries = [e for e in by_epoch[epoch] if e["kind"] == "retry"]
        if retries:
            attempts = sum(e.get("a", 0) for e in retries)
            failed = sum(1 for e in retries if e.get("b", 1) == 0)
            cell = (f"retry x{len(retries)} ({attempts} tx"
                    f"{f', {failed} undelivered' if failed else ''})")
            cells.append(cell)
        for e in by_epoch[epoch]:
            if e["kind"] == "retry":
                if raw:
                    delivered = "ok" if e.get("b", 1) else "LOST"
                    cells.append(f"retry[node {e['node']} ring {e['ring']} "
                                 f"{e['a']} tx {delivered}]")
                continue
            cells.append(describe(e))
        if raw:
            cells = [c for c in cells if not c.startswith("retry x")]
        print(f"epoch {epoch:>6}  " + "  ".join(cells))


def print_summary(events):
    counts = Counter(e["kind"] for e in events)
    print("\ntotals:")
    for kind in KINDS:
        if counts.get(kind):
            print(f"  {kind:<18} {counts[kind]}")
    for kind in sorted(set(counts) - set(KINDS)):
        print(f"  {kind:<18} {counts[kind]}")
    retries = [e for e in events if e["kind"] == "retry"]
    if retries:
        hist = Counter(e.get("a", 0) for e in retries)
        failed = sum(1 for e in retries if e.get("b", 1) == 0)
        dist = ", ".join(f"{a} tx: {hist[a]}" for a in sorted(hist))
        print(f"  retry attempts     {dist}")
        if failed:
            print(f"  retry undelivered  {failed}")
        worst = Counter(e["node"] for e in retries).most_common(5)
        print("  busiest senders    "
              + ", ".join(f"node {n} x{c}" for n, c in worst))
    switches = [e.get("a", 0) for e in events if e["kind"] == "mode_switch"]
    if switches:
        exp = sum(a for a in switches if a > 0)
        shr = -sum(a for a in switches if a < 0)
        print(f"  mode levels        +{exp} expanded / -{shr} shrunk")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", help="JSONL trace file, or - for stdin")
    parser.add_argument("--kind", action="append", default=[],
                        choices=KINDS, metavar="KIND",
                        help=f"keep only this kind (repeatable); one of "
                             f"{', '.join(KINDS)}")
    parser.add_argument("--node", type=int, default=None,
                        help="keep only events scoped to this node id")
    parser.add_argument("--from-epoch", type=int, default=None,
                        metavar="E", help="drop events before epoch E")
    parser.add_argument("--to-epoch", type=int, default=None,
                        metavar="E", help="drop events after epoch E")
    parser.add_argument("--summary", action="store_true",
                        help="print only the totals block")
    parser.add_argument("--raw", action="store_true",
                        help="one line per event instead of per-epoch "
                             "folding")
    args = parser.parse_args()

    events = load_events(args.trace)
    total = len(events)
    if args.kind:
        events = [e for e in events if e["kind"] in args.kind]
    if args.node is not None:
        events = [e for e in events if e.get("node") == args.node]
    if args.from_epoch is not None:
        events = [e for e in events if e["epoch"] >= args.from_epoch]
    if args.to_epoch is not None:
        events = [e for e in events if e["epoch"] <= args.to_epoch]

    shown = len(events)
    note = f" ({total - shown} filtered out)" if shown != total else ""
    print(f"{shown} events{note}")
    if not events:
        return
    if not args.summary:
        print_timeline(events, args.raw)
    print_summary(events)


if __name__ == "__main__":
    main()
