#!/usr/bin/env python3
"""Compares two sets of benchmark results: a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a result file written by `run.py --out`, a
JSON file holding a list of such results, or a directory of them. Runs
are grouped by workload and mode (run or trace) and paired by seed.
For every metric the report gives each side's median and quartiles, the
pairs the change won, and a verdict by the rule of the choosing-metrics
guide, section 8. Bounds come from BENCHMARK.json only:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own spread (the distance between its quartiles);
  no worse    a gated metric whose median is not worse than the parent's
              by more than its bound, with the parent's spread within the
              bound (or every change run beating every parent run);
  worse       a gated metric whose median is worse by more than its
              bound; when the parent's median is 0, any change counts;
  unresolved  a gated metric whose parent spread is wider than its bound,
              or a per-layer metric (listed but not gated) that did not
              improve;
  info        a metric BENCHMARK.json does not list (read_p99_ms, the
              write latencies, ...): medians and quartiles only.

Per workload a `failures` line compares failed / attempted over all runs
of each side: it is `worse` when the change's share is higher, so a gain
never counts when more requests fail. The exit status is 1 when any
gated metric or the failures line is `worse`.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        data = json.loads(f.read_text())
        runs.extend(data if isinstance(data, list) else [data])
    return runs


def metric_rules():
    """Direction and bound of every metric BENCHMARK.json lists; bound
    None for the per-layer ones, which it does not gate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {}
    for m in spec["end_to_end"]:
        rules[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        rules[m["name"]] = (m["better"], None)
    return rules


def group(runs):
    out = {}
    for r in runs:
        p = r["provenance"]
        out.setdefault((p["workload"], p["mode"]), {})[p["seed"]] = r
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, better, bound):
    sign = 1 if better == "higher" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mc - mp) > q3 - q1:
        return "improved", wins
    if parent == change and len(set(parent)) == 1:
        return "no worse", wins  # An exact count that did not move.
    if bound is None:
        return "unresolved", wins
    if mp == 0:  # No relative spread or change: judge the change as is.
        return ("worse" if sign * mc < 0 else "no worse"), wins
    spread = (q3 - q1) / abs(mp)
    worse_by = -sign * (mc - mp) / abs(mp)
    beats_all = (min(change) > max(parent) if sign > 0
                 else max(change) < min(parent))
    if spread > bound and not beats_all:
        return "unresolved", wins
    return ("worse" if worse_by > bound else "no worse"), wins


def failed_share(runs):
    return (sum(r["failed"] for r in runs) /
            max(1, sum(r["attempted"] for r in runs)))


def self_check():
    """The rules on made-up figures, so a broken edit shows at once."""
    ten = [10.0 + i / 10 for i in range(10)]
    pairs = list(zip(ten, ten))
    assert verdict(ten, ten, pairs, "lower", 0.1)[0] == "no worse"
    slower = [v * 1.5 for v in ten]
    assert verdict(ten, slower, list(zip(ten, slower)), "lower",
                   0.1)[0] == "worse"
    faster = [v * 0.5 for v in ten]
    assert verdict(ten, faster, list(zip(ten, faster)), "lower",
                   0.1)[0] == "improved"
    assert verdict(ten, slower, [], "lower", None)[0] == "unresolved"
    zeros, some = [0.0] * 10, [0.0] * 4 + [1e-3] * 6
    assert verdict(zeros, some, list(zip(zeros, some)), "lower",
                   0.0)[0] == "worse"
    assert verdict(zeros, some, list(zip(zeros, some)), "higher",
                   0.1)[0] == "no worse"
    clean = [{"failed": 0, "attempted": 100}] * 3
    assert failed_share(clean) == 0
    assert failed_share(clean + [{"failed": 1, "attempted": 100}]) > 0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    self_check()
    rules = metric_rules()
    parent, change = group(load(sys.argv[1])), group(load(sys.argv[2]))
    worst = False
    for key in sorted(set(parent) & set(change)):
        ps, cs = parent[key], change[key]
        seeds = sorted(set(ps) & set(cs))
        print(f"== {key[0]} ({key[1]}): {len(ps)} parent runs, "
              f"{len(cs)} change runs, {len(seeds)} pairs")
        print(f"{'metric':32} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'won':>7}  verdict")
        names = sorted(set.intersection(
            *[set(r["metrics"]) for r in list(ps.values()) + list(cs.values())]))
        for name in names:
            unit = ps[next(iter(ps))]["metrics"][name]["unit"]
            pv = [r["metrics"][name]["value"] for r in ps.values()]
            cv = [r["metrics"][name]["value"] for r in cs.values()]
            pairs = [(ps[s]["metrics"][name]["value"],
                      cs[s]["metrics"][name]["value"]) for s in seeds]
            if name in rules:
                v, wins = verdict(pv, cv, pairs, *rules[name])
                won = f"{wins:>3}/{len(pairs):<3}"
            else:
                v, won = "info", f"{'-':^7}"
            worst |= v == "worse"

            def cell(values):
                q1, q3 = quartiles(values)
                return (f"{statistics.median(values):.5g} "
                        f"[{q1:.4g}, {q3:.4g}] {unit}")
            print(f"{name:32} {cell(pv):>34} {cell(cv):>34} "
                  f"{won}  {v}")
        fp, fc = failed_share(ps.values()), failed_share(cs.values())
        v = "worse" if fc > fp else "no worse"
        worst |= v == "worse"
        print(f"{'failures':32} {fp:>34.3g} {fc:>34.3g} {'':7}  {v}")
        print()
    sys.exit(1 if worst else 0)


if __name__ == "__main__":
    main()
