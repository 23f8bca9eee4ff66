#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of result files written by perfbench/run.py
(.bench_out/results/*.json), e.g. one per seed for the parent commit and
for the change, made with the same benchmark code and settings. Only
--trace 0 results are compared. Results from a different host shape
(nproc, jobs) or build (build type, compiler) are refused.

For every workload and end-to-end metric it prints both medians, the
parent's quartile spread, and a verdict against the bound in
BENCHMARK.json: "worse" when the change's median is worse by more than
the bound, "unresolved" when the parent's own spread is wider than the
bound (unless every run of the change reads better than every run of the
parent), else "ok". Exits 1 if any metric is worse.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPE = ("nproc", "jobs", "build_type", "compiler")


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("trace") == 0:
            runs.setdefault(doc["workload"], []).append(doc)
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(argv[1]), load(argv[2])
    shapes = {tuple(d["stamp"][k] for k in SHAPE)
              for runs in (base, new) for docs in runs.values() for d in docs}
    if len(shapes) != 1:
        print("refusing to compare results from different host shapes or "
              f"builds (nproc, jobs, build type, compiler): {sorted(shapes)}",
              file=sys.stderr)
        return 2
    worse_any = False
    print(f"{'workload':10s} {'metric':12s} {'base':>11s} {'new':>11s} "
          f"{'worse by':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            name, bound = m["name"], m["bound"]
            b = [d["result"]["metrics"][name]["value"] for d in base[workload]]
            n = [d["result"]["metrics"][name]["value"] for d in new[workload]]
            bm, nm = statistics.median(b), statistics.median(n)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (nm - bm) / bm
            q = statistics.quantiles(b, n=4) if len(b) > 1 else [bm, bm, bm]
            spread = (q[2] - q[0]) / bm
            all_better = (max(n) < min(b)) if sign > 0 else (min(n) > max(b))
            if change > bound:
                verdict, worse_any = "worse", True
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:10s} {name:12s} {bm:11.5g} {nm:11.5g} "
                  f"{100 * change:+7.1f}% {spread:7.3f} {bound:6.2f}  {verdict}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
