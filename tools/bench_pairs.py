"""Alternating parent/change pairs of `bench/run.py`, summarised as JSON.

Usage, from any directory:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads space_variation --seeds 2701 2702 2703 \\
        --seconds 20 --pr 27 --claim space_variation:items_per_s

`--parent` and `--change` are two checkouts (for example `git archive`
of each commit unpacked into its own directory).  For each workload and
each seed, pair i runs `python3 bench/run.py --workload W --seed S
--seconds T --trace 0` once in each checkout, the parent first when i is
even and the change first when it is odd, and reads the JSON line each
run prints last.  The summary is written to `BENCH_<pr>.json` in the
current directory (`--out` overrides), merged into that file if it
exists, one batch per workload (or per `--label`).  For every
end-to-end metric of `BENCHMARK.json` a batch holds both sides' values,
their medians, the parent's quartiles (`statistics.quantiles`, inclusive
method) and interquartile range over its median, the change's wins (a
tie counts for neither side), and whether the change is worse than the
parent by more than the metric's bound.  `--claim W:M` adds a verdict:
the change must win at least 9 of 10 pairs and beat the parent's median
by more than the parent's interquartile range.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """(result JSON, machine line) of one `bench/run.py` run in `checkout`."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    machine = next((ln[2:] for ln in lines if ln.startswith("# nproc=")), "")
    return json.loads(lines[-1]), machine


def summary(parent, change, better, bound):
    """The BENCH_<pr>.json entry of one metric over paired runs."""
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    pm, cm = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "higher" else -1.0
    ratio = cm / pm if pm else math.nan
    worse_by = sign * (1.0 - ratio)
    return {
        "better": better, "bound": bound,
        "parent_median": pm, "change_median": cm, "ratio": ratio,
        "parent_quartiles": [q1, q3],
        "parent_iqr_over_median": (q3 - q1) / pm if pm else math.nan,
        "change_wins": sum(sign * (c - p) > 0
                           for p, c in zip(parent, change)),
        "pairs": len(parent), "worse_by": worse_by,
        "within_bound": not worse_by > bound,
        "parent": parent, "change": change,
    }


def batch(args, workload, metrics):
    """Run the pairs of one workload and summarise them."""
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    failed = {side: [] for side in sides}
    first, correct, machine = [], True, ""
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            result, machine = run_once(sides[side], workload, seed,
                                       args.seconds)
            correct = correct and result["correct"] is True
            failed[side].append(result["failed"])
            for m in metrics:
                values[side][m["name"]].append(
                    result["metrics"][m["name"]]["value"])
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} {values[side]['items_per_s'][-1]:.4g}"
            for side in sides) + " items/s", file=sys.stderr, flush=True)
    return {
        "workload": workload, "seeds": args.seeds, "correct": correct,
        "first": first, "failed_parent": failed["parent"],
        "failed_change": failed["change"],
        "summary": {m["name"]: summary(values["parent"][m["name"]],
                                       values["change"][m["name"]],
                                       m["better"], m["bound"])
                    for m in metrics},
    }, machine


def claim(batches, spec):
    """The verdict on claim `spec` = "workload:metric"."""
    workload, metric = spec.split(":")
    s = batches[workload]["summary"][metric]
    sign = 1.0 if s["better"] == "higher" else -1.0
    iqr = s["parent_quartiles"][1] - s["parent_quartiles"][0]
    gain = sign * (s["change_median"] - s["parent_median"])
    return {
        "workload": workload, "metric": metric, "pairs": s["pairs"],
        "change_wins": s["change_wins"],
        "parent_median": s["parent_median"],
        "change_median": s["change_median"],
        "gain": gain / s["parent_median"],
        "parent_iqr_over_median": s["parent_iqr_over_median"],
        "met": (s["change_wins"] >= math.ceil(0.9 * s["pairs"])
                and gain > iqr),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--label", default="",
                    help="suffix of the batch names, to keep earlier batches")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two pairs")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    out = args.out or f"BENCH_{args.pr}.json"
    doc = {}
    if os.path.exists(out):
        with open(out) as fh:
            doc = json.load(fh)
    batches = doc.setdefault("batches", {})
    for workload in args.workloads:
        batches[workload + args.label], machine = batch(args, workload,
                                                        metrics)
        doc["machine"] = machine
    doc["pr"] = args.pr
    doc["protocol"] = (
        "tools/bench_pairs.py: bench/run.py --workload W --seed S "
        f"--seconds {args.seconds:g} --trace 0 in each of two checkouts, "
        "alternating which runs first (the parent in even pairs, see "
        "`first`); metrics are the JSON line run.py prints. A win is a "
        "pair where the change is strictly better. Quartiles are the "
        "inclusive method of statistics.quantiles.")
    if args.claim:
        doc["claim"] = claim(batches, args.claim)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    if args.claim:
        c = doc["claim"]
        print(f"claim {c['workload']} {c['metric']}: {c['change_wins']}/"
              f"{c['pairs']} wins, gain {100 * c['gain']:+.1f}%, parent "
              f"IQR {100 * c['parent_iqr_over_median']:.1f}% of its "
              f"median, met {c['met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
