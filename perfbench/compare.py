#!/usr/bin/env python3
"""Compare a parent and a change result set.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines `run.py --record FILE` appends. Run the two
commits as at least 10 alternating pairs with the same seeds and
--seconds; pair i is the i-th end-to-end run of a workload in each file.
For every workload and end-to-end metric of BENCHMARK.json the report gives
each side's quartiles, the ratio with its base, the pair wins, and a
verdict (stats.compare_metric):

- win: >= 9/10 of >= 10 pairs won and a median gap larger than the
  parent's IQR (voided when the change fails more requests);
- regression: the median is worse than the parent's by more than the
  metric's bound;
- unresolved: the parent's spread exceeds the bound (unless every change
  run beats every parent run);
- within-bound: otherwise.
"""

import json
import os
import sys
from collections import defaultdict

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs[rec["workload"]].append(rec)
    return runs


def report(parent_runs, change_runs, metrics):
    rows = []
    for wl in sorted(set(parent_runs) | set(change_runs)):
        parent, change = parent_runs.get(wl, []), change_runs.get(wl, [])
        n = min(len(parent), len(change))
        if n == 0:
            rows.append(f"{wl}: no pairs")
            continue
        parent, change = parent[:n], change[:n]
        note = "" if n >= 10 else f" (only {n} pairs: no win can be claimed)"
        if [r["seed"] for r in parent] != [r["seed"] for r in change]:
            note += " (pairs ran with different seeds)"
        more_failures = sum(r["result"]["failed"] for r in change) > sum(r["result"]["failed"] for r in parent)
        rows.append(f"== {wl}: {n} pairs{note}")
        for m in metrics:
            name = m["name"]
            p = [r["result"]["metrics"][name]["value"] for r in parent]
            c = [r["result"]["metrics"][name]["value"] for r in change]
            v = stats.compare_metric(p, c, m["better"], m["bound"])
            verdict = v["verdict"]
            if verdict == "win" and more_failures:
                verdict = "win voided: the change fails more requests"
            rows.append(
                f"{wl:15s} {name:16s} parent {v['parent'][1]:.6g} [{v['parent'][0]:.6g}, {v['parent'][2]:.6g}]"
                f"  change {v['change'][1]:.6g} [{v['change'][0]:.6g}, {v['change'][2]:.6g}] {m['unit']}"
                f"  ratio {v['ratio']:.4f} of base {v['base']:.6g} {m['unit']}"
                f"  wins {v['wins']}/{v['pairs']}  spread {v['spread_share']:.3f} bound {m['bound']}"
                f"  -> {verdict}"
            )
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    for row in report(load(argv[1]), load(argv[2]), metrics):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
