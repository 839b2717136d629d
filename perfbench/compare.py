"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW each name a file, or a directory of files, holding the standard
output of ``run.py``; every ``{"record": ...}`` line in them is one run.
Untraced runs give, per workload and end-to-end metric, each side's median and
quartiles, the ratio NEW/BASE with its base, and a verdict:

- ``worse``: NEW's median is worse than BASE's by more than the metric's
  bound in BENCHMARK.json;
- ``better``: at least ten pairs, NEW wins at least 9/10 of them (ties count
  for neither side), and the medians differ by more than BASE's own spread
  (the distance between its quartiles);
- ``unresolved``: neither, and the spread of either side exceeds the bound,
  unless every NEW run is better than every BASE run;
- ``unchanged``: otherwise.

Runs are paired by seed when both sides hold the same seeds, else in order.
Traced runs give the per-layer self-time deltas.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(path):
    files = (
        [os.path.join(path, n) for n in sorted(os.listdir(path))]
        if os.path.isdir(path) else [path]
    )
    records = []
    for name in files:
        if not os.path.isfile(name):
            continue
        with open(name, errors="replace") as fh:
            for line in fh:
                if line.startswith('{"record"'):
                    records.append(json.loads(line)["record"])
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, new):
    """(base value, new value) pairs: by seed when the seeds match."""
    base_by_seed = {r["seed"]: r for r in base}
    new_by_seed = {r["seed"]: r for r in new}
    if len(base_by_seed) == len(base) and set(base_by_seed) == set(new_by_seed):
        return [(base_by_seed[s], new_by_seed[s]) for s in sorted(base_by_seed)]
    return list(zip(base, new))


def verdict(base_vals, new_vals, paired, better, bound):
    """(verdict, wins, pairs) for one metric; ``better`` is lower or higher."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bmed, b3 = quartiles(base_vals)
    n1, nmed, n3 = quartiles(new_vals)
    wins = sum(sign * (n - b) < 0 for b, n in paired)
    if sign * (nmed - bmed) > bound * abs(bmed):
        return "worse", wins, len(paired)
    if (len(paired) >= MIN_PAIRS and wins >= WIN_SHARE * len(paired)
            and abs(nmed - bmed) > b3 - b1):
        return "better", wins, len(paired)
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0, (n3 - n1) / abs(nmed) if nmed else 0.0)
    all_better = all(sign * (n - b) < 0 for b in base_vals for n in new_vals)
    if spread > bound and not all_better:
        return "unresolved", wins, len(paired)
    return "unchanged", wins, len(paired)


def _fmt(x):
    return f"{x:.6g}"


def compare_end_to_end(base, new, declared, out):
    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in new})
    for workload in workloads:
        b = [r for r in base if r["workload"] == workload and not r["trace"]]
        n = [r for r in new if r["workload"] == workload and not r["trace"]]
        if not b or not n:
            continue
        bad_b = sum(not r["correct"] for r in b)
        bad_n = sum(not r["correct"] for r in n)
        print(f"\n{workload}: {len(b)} base runs ({bad_b} incorrect), "
              f"{len(n)} new runs ({bad_n} incorrect)", file=out)
        print(f"  {'metric':<26} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34}"
              f" {'new/base':>9} {'wins':>7}  verdict", file=out)
        paired = pairs(b, n)
        for metric in declared:
            name, unit, better, bound = (metric["name"], metric["unit"],
                                         metric["better"], metric["bound"])
            bv = [r["metrics"][name] for r in b if r["metrics"].get(name) is not None]
            nv = [r["metrics"][name] for r in n if r["metrics"].get(name) is not None]
            if not bv or not nv:
                continue
            pv = [(x["metrics"][name], y["metrics"][name]) for x, y in paired
                  if x["metrics"].get(name) is not None and y["metrics"].get(name) is not None]
            result, wins, npairs = verdict(bv, nv, pv, better, bound)
            bq, nq = quartiles(bv), quartiles(nv)
            ratio = f"{nq[1] / bq[1]:.4f}" if bq[1] else "n/a"
            print(f"  {name:<26} {_fmt(bq[1]):>12} [{_fmt(bq[0])}, {_fmt(bq[2])}]"
                  f" {_fmt(nq[1]):>12} [{_fmt(nq[0])}, {_fmt(nq[2])}] {ratio:>9}"
                  f" {wins:>3}/{npairs:<3}  {result}  ({unit}, base {_fmt(bq[1])},"
                  f" {better} is better, bound {bound})", file=out)


def compare_layers(base, new, out):
    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in new})
    for workload in workloads:
        b = [r["layers"] for r in base if r["workload"] == workload and r["trace"]]
        n = [r["layers"] for r in new if r["workload"] == workload and r["trace"]]
        if not b or not n:
            continue
        print(f"\n{workload}: per-layer self time, {len(b)} base / {len(n)} new traced runs",
              file=out)
        print(f"  {'function':<34} {'base s':>10} {'new s':>10} {'delta s':>10} {'new/base':>9}",
              file=out)
        rows = []
        for fn in sorted(set(b[0]) & set(n[0])):
            bs = statistics.median(layer[fn]["self_s"] for layer in b)
            ns = statistics.median(layer[fn]["self_s"] for layer in n)
            rows.append((fn, bs, ns))
        for fn, bs, ns in sorted(rows, key=lambda r: -abs(r[2] - r[1])):
            ratio = f"{ns / bs:.4f}" if bs else "n/a"
            print(f"  {fn:<34} {bs:>10.4f} {ns:>10.4f} {ns - bs:>+10.4f} {ratio:>9}", file=out)


def main(argv=None, out=sys.stdout):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        declared = json.load(fh)["end_to_end"]
    base, new = load_records(args.base), load_records(args.new)
    if not base or not new:
        print("no run records found on one side", file=sys.stderr)
        return 2
    compare_end_to_end(base, new, declared, out)
    compare_layers(base, new, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
