#!/usr/bin/env python3
"""Compare two sets of benchmark runs, such as a parent and a change.

    python3 perfbench/ab.py PARENT_DIR CHANGE_DIR --workload random-q --out ab/
    python3 perfbench/compare.py ab/parent.jsonl ab/change.jsonl

or, for two sets made separately with ``run.py --save``::

    python3 perfbench/compare.py parent.jsonl change.jsonl

For each workload and metric it prints each side's median and quartiles.
When both sets come from ``ab.py`` (every record names its pair), each
bounded metric is judged on the ratios change / parent within pairs, so
a slow phase of the machine that hits both runs of a pair cancels out:

* REGRESSION: the median ratio is worse than 1 by more than the bound;
* unresolved: the ratios' quartile distance over their median exceeds
  the bound, unless the change won every pair;
* better: the change won at least nine tenths of the pairs and the
  median ratio beats 1 by more than the parent's own quartile distance
  over its median;
* same: otherwise.

Unpaired sets are judged on the two sides' medians in the same way, with
each side's spread in place of the ratios' spread.  Bounds come from
``BENCHMARK.json``; per-layer metrics have none and are printed for
reading.  Runs from different machines or Python versions are never
compared.  Exit code: 0, or 1 if any metric regressed, or 2 if the runs
cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MACHINE_KEYS = ("python", "nproc", "platform", "machine")


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent: list[float], change: list[float], better: str, bound: float | None,
            paired: bool = False) -> str:
    """The verdict on one metric; in ``paired`` mode ``parent[i]`` and
    ``change[i]`` are the two runs of pair ``i``."""
    if bound is None:
        return "-"
    sign = 1 if better == "lower" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    if paired and all(parent):
        ratios = [c / p for p, c in zip(parent, change)]
        worse = sign * (statistics.median(ratios) - 1)
        noise = spread(ratios)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        all_won = wins == len(parent)
        mostly_won = wins >= 0.9 * len(parent)
    else:
        worse = sign * (cm - pm) / abs(pm) if pm else 0.0
        noise = max(spread(parent), spread(change))
        all_won = all(sign * c < sign * p for c in change for p in parent)
        mostly_won = all_won
    if noise > bound:
        return "better" if all_won else "unresolved"
    if worse > bound:
        return "REGRESSION"
    if mostly_won and -worse > spread(parent):
        return "better"
    return "same"


def collect(side: list[dict]) -> tuple[dict, dict]:
    """(workload, metric) -> {run key: value}, and workload -> failed runs.
    A run's key is its pair number when it has one, else its position."""
    values: dict = defaultdict(dict)
    failed: dict = defaultdict(int)
    for i, r in enumerate(side):
        w = r["context"]["workload"]
        key = r["context"].get("pair", f"run {i}")
        failed[w] += not r["correct"]
        for name, value in r["all_metrics"].items():
            values[(w, name)][key] = value
    return values, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of qbern benchmark runs")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads(BENCHMARK.read_text())
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sides = [load(args.parent), load(args.change)]
    machines = {tuple(r["context"][k] for k in MACHINE_KEYS) for side in sides for r in side}
    if len(machines) != 1:
        print(f"error: runs come from different machines or Pythons: {sorted(machines)}",
              file=sys.stderr)
        return 2
    paired = all("pair" in r["context"] for side in sides for r in side)
    (pvalues, pfailed), (cvalues, cfailed) = collect(sides[0]), collect(sides[1])

    regressions = 0
    print(f"{'paired' if paired else 'unpaired'} runs")
    print(f"{'workload':12s} {'metric':36s} {'parent q1/median/q3':>34s} "
          f"{'change q1/median/q3':>34s}  verdict")
    for key in sorted(set(pvalues) & set(cvalues)):
        w, name = key
        if paired:
            pairs = sorted(set(pvalues[key]) & set(cvalues[key]))
            parent = [pvalues[key][p] for p in pairs]
            change = [cvalues[key][p] for p in pairs]
        else:
            parent, change = list(pvalues[key].values()), list(cvalues[key].values())
        if not parent or not change:
            continue
        m = meta.get(name)
        better = m["better"] if m else "lower"
        v = verdict(parent, change, better, m.get("bound") if m else None, paired)
        regressions += v == "REGRESSION"
        cols = ["/".join(f"{x:.4g}" for x in quartiles(vals)) + f" (n={len(vals)})"
                for vals in (parent, change)]
        print(f"{w:12s} {name:36s} {cols[0]:>34s} {cols[1]:>34s}  {v}")
    for w in sorted(set(pfailed) | set(cfailed)):
        if pfailed[w] or cfailed[w]:
            print(f"{w}: runs with failed checks: parent {pfailed[w]}, change {cfailed[w]}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
