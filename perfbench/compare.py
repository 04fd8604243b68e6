"""Compare two sets of benchmark records metric by metric.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of records written by run.py with ``--trace 0``
(``perfbench/results/`` of a checkout).  Runs of the two sides are paired by
workload and seed.  Every end-to-end metric on every workload gets a verdict:
better or worse when one side wins at least 9 of 10 pairs and the medians
differ by more than the parent's interquartile range; otherwise unresolved
when the parent's spread or the median worsening exceeds the metric's bound,
else unchanged.  Bounds come from BENCHMARK.json; metrics not listed there
use the bound of wall_s, and fail_frac has bound 0.
"""

from __future__ import annotations

import glob
import json
import os
import sys

import stats
from bench import END_TO_END, ROOT


def load(directory: str) -> dict:
    """{workload: {seed: record}} of the untraced records in a directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    return {name: listed.get(name, 0.0 if name == "fail_frac" else listed["wall_s"])
            for name in END_TO_END}


def compare(parent: dict, change: dict, bound: dict) -> list:
    """Rows of (workload, metric, unit, n, parent summary, change summary, verdict)."""
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for metric, (unit, better) in END_TO_END.items():
            p = [parent[workload][s]["end_to_end"][metric]["value"] for s in seeds]
            c = [change[workload][s]["end_to_end"][metric]["value"] for s in seeds]
            if not seeds or None in p or None in c:
                continue
            rows.append((workload, metric, unit, len(seeds), stats.quartiles(p),
                         stats.quartiles(c), stats.verdict(p, c, better, bound[metric])))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    rows = compare(load(argv[0]), load(argv[1]), bounds())
    if not rows:
        print("error: no workload has untraced runs on matching seeds on both sides",
              file=sys.stderr)
        return 1
    print(f"{'workload':<12} {'metric':<17} {'n':>3}  {'parent median [q1, q3]':<38}"
          f"{'change median [q1, q3]':<38} verdict")
    for workload, metric, unit, n, (pq1, pm, pq3), (cq1, cm, cq3), v in rows:
        print(f"{workload:<12} {metric:<17} {n:>3}  "
              f"{f'{pm:.5g} [{pq1:.5g}, {pq3:.5g}] {unit}':<38}"
              f"{f'{cm:.5g} [{cq1:.5g}, {cq3:.5g}] {unit}':<38} {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
