#!/usr/bin/env python3
"""Host-time benchmark of the semclust simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --workload NAME --refresh-reference

Builds perfbench/perfbench.cc against ../src (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then runs one
workload: the cells of perfbench/workloads/NAME.scenario.json with the
document's seed replaced by --seed. The load is a closed loop: one process
runs the cells back to back at jobs=1, in rounds, for S seconds; each round
also runs the same cells through exec::ExperimentRunner at jobs = nproc
(at most 4). Every metric is host time, memory or a count; the simulator's
simulated statistics are the outputs that get checked.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced pass (spans around the public
calls; see perfbench/report.py). --workload all runs every workload both
ways. Results, with a host stamp, go to .bench_out/results/; compare two
sets with perfbench/compare.py.

--refresh-reference records the workload's simulated outputs at the
document's seed as the oracle's reference (perfbench/reference.json). Only a
deliberate model change should do this, in a benchmark change of its own.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import report

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEADLINE_S = 170

# Rounds every run makes whatever --seconds says: enough per-cell samples
# for a tail percentile with at least ten samples beyond it.
MIN_ROUNDS = {"oct_read": 15, "oct_write": 15, "ocb_mix": 5}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def median(xs):
    return statistics.median(xs)


def build():
    """Configures once and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(nproc()),
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def source_sha256():
    """Hash of the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def load_catalogue():
    """End-to-end and per-layer metric names and units. BENCHMARK.json's
    per_layer list must be perfbench/layers.json without the predictions."""
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(BENCH / "layers.json") as f:
        layers = json.load(f)
    want = [{k: m[k] for k in ("name", "unit", "better")}
            for m in layers["metrics"]]
    if bench["per_layer"] != want:
        die("BENCHMARK.json per_layer differs from perfbench/layers.json")
    return bench, layers


# ---------------------------------------------------------------- oracle

def invariant_errors(out, measured_txns):
    """Checks that hold for any seed."""
    errs = []
    if out["transactions"] != measured_txns:
        errs.append(f"transactions {out['transactions']} != {measured_txns}")
    mean = out["response_mean"]
    if mean is None or not math.isfinite(mean) or mean <= 0:
        errs.append(f"response_mean {mean} not finite and > 0")
    if not 0 <= out["buffer_hit_ratio"] <= 1:
        errs.append(f"buffer_hit_ratio {out['buffer_hit_ratio']} not in [0,1]")
    return errs


def diff_outputs(out, ref):
    """Fields where `out` differs from `ref`, compared exactly."""
    return [k for k in ref if out.get(k) != ref[k]]


def check_run(raw, expected, measured_txns):
    """Applies the oracle to every cell execution of the run. Returns
    (attempted, failures): failures are human-readable lines."""
    attempted = len(raw["invalid"])
    failures = [f"cell {e['cell']}: invalid config: {e['error']}"
                for e in raw["invalid"]]
    if raw["invalid"]:
        return max(attempted, 1), failures
    runs = [("warmup", 0, 0, {"out": raw["warmup_out"]})]
    for p in raw["passes"]:
        runs += [(p["kind"], p["round"], i, c) for i, c in enumerate(p["cells"])]
    for kind, rnd, i, c in runs:
        attempted += 1
        errs = invariant_errors(c["out"], measured_txns)
        want = expected[i]
        if kind == "traced":
            # Traced cells run with the in-run audit off (see perfbench.cc).
            want = {k: v for k, v in want.items() if k != "audit_samples"}
        diff = diff_outputs(c["out"], want)
        if diff:
            errs.append("differs from reference in " + ", ".join(diff))
        if "replay" in c and (c["replay"]["objects"] != c["ctx_objects"] or
                              c["replay"]["pages"] != c["ctx_pages"]):
            errs.append("replayed build differs from ServerContext's")
        if errs:
            failures.append(f"{kind} round {rnd} cell {i} "
                            f"({raw['cells'][i]}): " + "; ".join(errs))
    return attempted, failures


def oracle_self_check(expected, out):
    """A perturbed reference must trip the comparison on `out`."""
    for field, bump in (("events", lambda v: v + 1),
                        ("response_mean", lambda v: math.nextafter(v, math.inf))):
        bad = dict(expected)
        bad[field] = bump(bad[field])
        if not diff_outputs(out, bad):
            return f"perturbed reference ({field}) did not trip the oracle"
    return None


# --------------------------------------------------------------- metrics

def nearest_rank(sorted_xs, p):
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def end_to_end(raw, min_samples):
    serial = [p for p in raw["passes"] if p["kind"] == "serial"]
    par = [p for p in raw["passes"] if p["kind"] == "par"]
    cell_s = sorted(c["wall_s"] for p in serial for c in p["cells"])
    # Highest whole percentile with at least ten samples beyond it at the
    # minimum sample count, so the percentile is the same in every run.
    tail_p = math.floor(100 * (1 - 10 / min_samples))
    tail = nearest_rank(cell_s, tail_p)
    values = {
        "wall_s": median([p["wall_s"] for p in serial]),
        "setup_s": median([sum(c["setup_s"] for c in p["cells"])
                           for p in serial]),
        "txn_per_s": median([sum(c["out"]["transactions"] for c in p["cells"])
                             / sum(c["run_s"] for c in p["cells"])
                             for p in serial]),
        "cell_s_p50": median(cell_s),
        "cell_s_tail": tail,
        "par_wall_s": median([p["wall_s"] for p in par]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }
    notes = {
        "wall_s": f"median of {len(serial)} serial rounds",
        "setup_s": f"median of {len(serial)} rounds",
        "txn_per_s": "measured txns / Run seconds, median over rounds",
        "cell_s_p50": f"n={len(cell_s)}",
        "cell_s_tail": f"p{tail_p}, n={len(cell_s)}, "
                       f"{sum(1 for x in cell_s if x > tail)} beyond",
        "par_wall_s": f"median of {len(par)} rounds, jobs={raw['jobs']}",
        "peak_rss_mb": "after the first serial round",
    }
    return values, notes


def per_layer(raw, events, warmup_txns):
    serial = [p for p in raw["passes"] if p["kind"] == "serial"]
    traced = [p for p in raw["passes"] if p["kind"] == "traced"]
    par = [p for p in raw["passes"] if p["kind"] == "par"]
    layers = {k: v / len(traced)
              for k, v in report.layer_times(events).items()}
    cells = traced[0]["cells"]  # simulated counts repeat in every round
    outs = [c["out"] for c in serial[0]["cells"]]
    replays = [c["replay"] for c in cells]

    def total(key, rows=outs):
        return sum(r[key] for r in rows)

    def ratio(num, den):
        return num / den if den else 0.0

    oct_r = [r for r in replays if not r["ocb"]]
    ocb_r = [r for r in replays if r["ocb"]]
    events_n = total("events")
    txns = total("transactions")
    ios = sum(o["data_reads"] + o["dirty_flushes"] + o["log_flush_ios"] +
              o["cluster_exam_reads"] + o["prefetch_reads"] +
              o["split_writes"] for o in outs)
    timed = [sum(c["setup_s"] + c["run_s"] for c in p["cells"])
             for p in serial]
    timed_traced = [sum(c["setup_s"] + c["run_s"] + c["audit_one_s"] *
                        c["out"]["telemetry_samples"] for c in p["cells"])
                    for p in traced]
    all_traced = [c for p in traced for c in p["cells"]]
    return {
        "exec.busy_frac": median([sum(c["wall_s"] for c in p["cells"]) /
                                  (raw["jobs"] * p["wall_s"]) for p in par]),
        "workload.build_s": layers["workload.build"],
        "workload.build_us_per_object":
            ratio(layers["workload.build"], total("objects", oct_r)) * 1e6,
        "workload.objects": total("objects", oct_r),
        "cluster.static_reorg_s": layers["cluster.static_reorg"],
        "cluster.build_placements": total("placements", replays),
        "cluster.build_exam_reads": total("exam_reads", replays),
        "objmodel.edges": total("edges", replays),
        "storage.pages": total("pages", replays),
        "storage.mean_occupancy": median(r["mean_occupancy"] for r in replays),
        "core.setup_other_s": layers["core.setup_other"],
        "ocb.build_s": layers["ocb.build"],
        "ocb.objects": total("objects", ocb_r),
        "core.run_self_s": layers["core.run_self"],
        "core.run_ns_per_event": ratio(layers["core.run_self"], events_n) * 1e9,
        "sim.events": events_n,
        "sim.events_per_txn": ratio(events_n, txns + warmup_txns * len(outs)),
        "buffer.hit_ratio": ratio(total("buffer_hits"),
                                  total("buffer_hits") + total("buffer_misses")),
        "buffer.misses": total("buffer_misses"),
        "buffer.evictions": total("buffer_evictions"),
        "buffer.prefetch_yield": ratio(total("prefetch_hits"),
                                       total("prefetch_issued")),
        "io.per_txn": ratio(ios, txns),
        "cluster.reclusterings": total("reclusterings"),
        "cluster.relocation_yield": ratio(total("relocations"),
                                          total("reclusterings")),
        "cluster.splits": total("splits"),
        "cluster.split_search_steps": total("split_search_steps"),
        "txlog.records": total("log_records"),
        "txlog.flushes": total("log_flushes"),
        "cc.lock_waits": total("cc_lock_waits"),
        "cc.latch_waits": total("cc_latch_waits"),
        "cc.commit_yield": ratio(txns, txns + total("cc_txn_aborts")),
        "dyn.triggers": total("dyn_triggers"),
        "dyn.objects_moved": total("dyn_objects_moved"),
        "obs.audit_s": layers["obs.audit"],
        "obs.audit_samples": total("audit_samples"),
        "obs.audit_us_per_object":
            ratio(sum(c["audit_one_s"] for c in all_traced),
                  sum(c["audit_objects"] for c in all_traced)) * 1e6,
        "obs.trace_overhead_frac":
            (median(timed_traced) - median(timed)) / median(timed),
    }


# ------------------------------------------------------------------ main

def run_all(args):
    """Every workload, untraced then traced: all metrics in one command."""
    worst = 0
    for workload in sorted(MIN_ROUNDS):
        base = [sys.executable, __file__, "--workload", workload]
        if args.refresh_reference:
            runs = [base + ["--refresh-reference"]]
        else:
            base += ["--seconds", str(args.seconds)]
            if args.seed is not None:
                base += ["--seed", str(args.seed)]
            runs = [base + ["--trace", str(t)] for t in (0, 1)]
        for cmd in runs:
            worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(MIN_ROUNDS) + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refresh-reference", action="store_true")
    args = ap.parse_args()
    start = time.monotonic()
    if args.workload == "all":
        return run_all(args)

    bench, layers = load_catalogue()
    scenario = BENCH / "workloads" / f"{args.workload}.scenario.json"
    with open(scenario) as f:
        config = json.load(f)["config"]
    default_seed = config["seed"]
    if args.refresh_reference:
        args.seed, args.seconds, args.trace = default_seed, 1, 0
    elif args.seed is None:
        die("--seed is required")
    if args.seed < 0:
        die("--seed must be >= 0")
    binary = build()

    jobs = min(nproc(), 4)
    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    raw_path = OUT / f"{tag}-trace{args.trace}.raw.json"
    spans_path = OUT / f"{tag}.trace.json"
    cmd = [str(binary), "--scenario", str(scenario), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(jobs),
           "--min-rounds",
           str(1 if args.trace or args.refresh_reference
               else MIN_ROUNDS[args.workload]),
           "--out", str(raw_path)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=max(1, DEADLINE_S - (time.monotonic() -
                                                         start))).returncode
    except subprocess.TimeoutExpired:
        die("benchmark binary timed out")
    if rc != 0:
        die(f"benchmark binary exited with {rc}")
    with open(raw_path) as f:
        raw = json.load(f)

    ref_path = BENCH / "reference.json"
    with open(ref_path) as f:
        references = json.load(f)
    measured_txns = config["measured_transactions"]
    if args.refresh_reference:
        first = [c["out"] for c in raw["passes"][0]["cells"]]
        attempted, failures = check_run(raw, first, measured_txns)
        if failures:
            die("passes disagree; reference not written:\n" +
                "\n".join(failures))
        references[args.workload] = {
            "seed": args.seed,
            "cells": [dict(label=l, **o) for l, o in zip(raw["cells"], first)]}
        with open(ref_path, "w") as f:
            json.dump(references, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"perfbench: reference for {args.workload} written to {ref_path}",
              file=sys.stderr)
        return 0

    # The recorded reference pins the default seed's outputs; at any other
    # seed every pass must agree with the first serial pass.
    ref = references.get(args.workload)
    if args.seed == default_seed:
        if ref is None or [c["label"] for c in ref["cells"]] != raw["cells"]:
            die(f"no reference for {args.workload}; run --refresh-reference")
        expected = [{k: v for k, v in c.items() if k != "label"}
                    for c in ref["cells"]]
    elif raw["invalid"]:
        expected = []
    else:
        expected = [c["out"] for c in raw["passes"][0]["cells"]]
    attempted, failures = check_run(raw, expected, measured_txns)
    failed = len(failures)
    if expected:
        broken = oracle_self_check(expected[0],
                                   raw["passes"][0]["cells"][0]["out"])
        if broken:
            failures.append(broken)
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    stamp = {"nproc": nproc(), "jobs": jobs, "build_type": raw["build_type"],
             "compiler": raw["compiler"], "commit": git_commit(),
             "source_sha256": source_sha256(), "seed": args.seed}
    metrics = {}
    notes = {}
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    if not raw["invalid"]:
        if args.trace:
            with open(spans_path) as f:
                trace_doc = json.load(f)
            values = per_layer(raw, trace_doc["traceEvents"],
                               config.get("warmup_transactions", 0))
        else:
            values, notes = end_to_end(
                raw, MIN_ROUNDS[args.workload] * len(raw["cells"]))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}

    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{len(raw['cells'])} cells; host nproc={stamp['nproc']} "
          f"jobs={jobs} {stamp['build_type']} {stamp['compiler']} "
          f"commit={stamp['commit'] or 'none'} "
          f"source={stamp['source_sha256'][:12]}")
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}  "
                  f"({notes[name]})")
        print(f"  {'fail_frac':30s} {failed / attempted:>16.6g} ratio  "
              f"({failed} of {attempted} cell runs failed)")
    elif metrics:
        serial = [p["wall_s"] for p in raw["passes"] if p["kind"] == "serial"]
        trace_doc["otherData"].update(
            seed=args.seed, stamp=stamp,
            rounds=sum(1 for p in raw["passes"] if p["kind"] == "traced"),
            wall_s=median(serial), metrics=metrics,
            predicted_dominant=layers["dominant"][args.workload])
        with open(spans_path, "w") as f:
            json.dump(trace_doc, f)
        print(report.format_report(trace_doc))
        print(f"  spans: {spans_path.relative_to(ROOT)} "
              "(Chrome trace events; python3 perfbench/report.py FILE)")

    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(OUT / "results" / f"{tag}-trace{args.trace}.json", "w") as f:
        json.dump({"workload": args.workload, "trace": args.trace,
                   "stamp": stamp, "notes": notes, "result": result}, f,
                  indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
