#!/usr/bin/env python3
"""Per-layer report of traced benchmark runs.

    python3 perfbench/report.py .bench_out/ocb_mix-seed1.trace.json [...]

Each trace file is a Chrome trace-event document (open it in a trace
viewer) written by `perfbench/run.py --trace 1`. For every workload the
report prints the self time of each span, then the host time attributed
to each layer per round with its share of the untraced serial `wall_s`,
the dominant layer against the one predicted in perfbench/layers.json,
and the per-layer counts.
"""

import json
import sys
from collections import defaultdict

# Host-time layers of one cell. The builds are timed on a replay of the
# cell's database build, so they stand for the build inside ServerContext.
# A traced Run takes no placement audits; `obs.audit` prices the audits an
# untraced Run takes as one audit of the finished cell (the span's duration)
# times the telemetry samples (its count). `cell.other` is pipeline wiring
# and teardown.
LAYERS = ["workload.build", "ocb.build", "cluster.static_reorg",
          "core.setup_other", "core.run_self", "obs.audit", "cell.other"]
BUILD_SPANS = {"workload.DbBuilder::Build": "workload.build",
               "ocb.OcbBuilder::Build": "ocb.build",
               "cluster.StaticClusterer::Reorganize": "cluster.static_reorg"}


def span_self_times(events):
    """name -> [count, total_s, self_s]; self time excludes child spans."""
    child_us = defaultdict(float)
    for e in events:
        if e["args"]["parent"] >= 0:
            child_us[e["args"]["parent"]] += e["dur"]
    out = {}
    for e in events:
        row = out.setdefault(e["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += e["dur"] * 1e-6
        row[2] += (e["dur"] - child_us[e["args"]["id"]]) * 1e-6
    return out


def layer_times(events):
    """Layer -> host seconds summed over every traced cell."""
    cells = defaultdict(dict)
    for e in events:
        if e["args"]["cell"] >= 0:
            cells[e["args"]["cell"]][e["name"]] = e
    total = dict.fromkeys(LAYERS, 0.0)
    for spans in cells.values():
        dur = {name: e["dur"] * 1e-6 for name, e in spans.items()}
        build = 0.0
        for name, layer in BUILD_SPANS.items():
            total[layer] += dur.get(name, 0.0)
            build += dur.get(name, 0.0)
        audit = spans["obs.PlacementAuditor::Sample"]
        total["core.setup_other"] += dur["core.ServerContext"] - build
        total["core.run_self"] += dur["core.MeasurementController::Run"]
        total["obs.audit"] += audit["dur"] * 1e-6 * audit["args"]["count"]
        children = sum(d for name, d in dur.items() if name != "cell")
        total["cell.other"] += dur["cell"] - children
    return total


def dominant(layers):
    return max((l for l in LAYERS if l != "cell.other"), key=layers.get)


def format_report(doc):
    info = doc["otherData"]
    rounds = info["rounds"]
    wall = info["wall_s"]
    lines = [f"== {info['workload']}: seed {info['seed']}, {rounds} traced "
             f"round(s), untraced serial wall_s {wall:.4f} s"]
    lines.append(f"  {'span':40s} {'n':>6s} {'total_s':>10s} {'self_s':>10s}")
    for name, (n, tot, self_s) in sorted(span_self_times(
            doc["traceEvents"]).items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:40s} {n:6d} {tot:10.4f} {self_s:10.4f}")
    layers = {k: v / rounds for k, v in layer_times(doc["traceEvents"]).items()}
    lines.append(f"  {'layer':40s} {'s/round':>10s} {'of wall_s':>10s}")
    for layer in LAYERS:
        lines.append(f"  {layer:40s} {layers[layer]:10.4f} "
                     f"{100 * layers[layer] / wall:9.1f}%")
    top = dominant(layers)
    want = info["predicted_dominant"]
    verdict = "as predicted" if top == want else "MISMATCH with prediction"
    lines.append(f"  dominant layer: {top} (predicted {want}): {verdict}")
    lines.append("  per-layer metrics:")
    for name, m in info["metrics"].items():
        lines.append(f"    {name:38s} {m['value']:>16.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        with open(path) as f:
            print(format_report(json.load(f)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
