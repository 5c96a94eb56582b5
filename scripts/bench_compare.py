#!/usr/bin/env python3
"""Compare two suite results of the HYDRA benchmark, metric by metric.

Both files are what `benchmark/run.sh --out FILE` writes (the format of
`benchmark/BASELINE.json`). Metric names, directions and the bound by which
each end-to-end metric may worsen are read from `BENCHMARK.json` — nothing
about them is repeated here. Prints one row per workload × end-to-end metric
(parent, change, change/parent, verdict) and exits non-zero when any metric
is worse than the parent by more than its bound or a workload's
`failed_ops_share` rises.

One suite run per side is one sample: a verdict here says "within the bound
on this pair of runs", not "no regression" — that takes the alternating
pairs of benchmark/README.md.

With `--layers` the traced `per_layer` rows follow, side by side in the same
columns — a ledger entry in one command. They carry no bound and never
change the exit status; a row whose unit is `count` is flagged when the two
sides differ at all (counts repeat exactly or something changed), and a row
that reads 0 on both sides (a layer the workload does not run) is left out.

Usage:
  scripts/bench_compare.py PARENT.json CHANGE.json [--layers] [--spec BENCHMARK.json]
"""

import argparse
import json
import os
import sys


def print_layers(spec, parent, change):
    print(f"\n{'workload':<16} {'layer metric':<38} {'parent':>12} {'change':>12} {'change/parent':>13}")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parent or workload not in change:
            continue
        p_layers, c_layers = parent[workload]["per_layer"], change[workload]["per_layer"]
        for m in spec["per_layer"]:
            name = m["name"]
            p, c = p_layers.get(name), c_layers.get(name)
            if p is None or c is None:
                print(f"{workload:<16} {name:<38} missing from one side")
                continue
            if p == 0 and c == 0:
                continue
            ratio = f"{c / p:.3f}" if p > 0 else "-"
            flag = "  COUNT DIFFERS" if m["unit"] == "count" and p != c else ""
            print(f"{workload:<16} {name:<38} {p:>12.6g} {c:>12.6g} {ratio:>13}{flag}")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(root, "BENCHMARK.json"))
    ap.add_argument("--layers", action="store_true", help="also print the per_layer rows")
    args = ap.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    with open(args.parent) as f:
        parent = json.load(f)["workloads"]
    with open(args.change) as f:
        change = json.load(f)["workloads"]

    failures = []
    print(f"{'workload':<16} {'metric':<22} {'parent':>12} {'change':>12} {'change/parent':>13}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parent or workload not in change:
            failures.append(f"{workload}: missing from one side")
            continue
        p_run, c_run = parent[workload], change[workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            p, c = p_run["end_to_end"].get(name), c_run["end_to_end"].get(name)
            if p is None or c is None or p <= 0:
                failures.append(f"{workload}.{name}: no usable reading on one side")
                continue
            ratio = c / p
            worse_by = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if worse_by > m["bound"]:
                verdict = f"WORSE by {worse_by:.1%} (bound {m['bound']:.0%})"
                failures.append(f"{workload}.{name}: {verdict}")
            else:
                verdict = "same" if ratio == 1 else ("better" if worse_by < 0 else "within bound")
            print(f"{workload:<16} {name:<22} {p:>12.6g} {c:>12.6g} {ratio:>13.3f}  {verdict}")
        p_fail, c_fail = p_run["failed_ops_share"], c_run["failed_ops_share"]
        if c_fail > p_fail:
            failures.append(f"{workload}: failed_ops_share rose {p_fail} -> {c_fail}")
        print(f"{workload:<16} {'failed_ops_share':<22} {p_fail:>12.6g} {c_fail:>12.6g}")

    if args.layers:
        print_layers(spec, parent, change)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
