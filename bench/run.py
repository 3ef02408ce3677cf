"""sphex benchmark: seeded closed-loop workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload planar_closed --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` runs the traced
pass and reports the per-layer metrics.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it print every metric by name with its unit.  See
bench/README.md for the definitions and the recorded baseline.

sphex is imported from `src/` of the checkout this file sits in.  One
caller runs the items of a workload in a closed loop in this single
process (`cli_cold`: one child interpreter at a time).
"""

import os
import sys

#: BLAS and OpenMP threads; set before numpy loads.  The benchmark is one
#: single-threaded process, which keeps it at or below nproc.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_run")
sys.path.insert(0, HERE)

import spawner  # noqa: E402

#: a child interpreter that runs longer than this is killed
CHILD_TIMEOUT_S = 120
#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: rounds of the traced pass; counts are reported per round
TRACE_ROUNDS = 2
#: child interpreters per cli.interp_s / cli.import_s probe (median)
CLI_PROBES = 3
#: seconds of items between two reference probes (see `ref_probe`)
PROBE_EVERY_S = 0.5
#: about the median reference probe over the runs of the recorded
#: baseline (nproc 2, "Intel(R) Xeon(R) Processor"); end-to-end timings
#: are reported at that machine speed
REF_NOMINAL_S = 0.080

WORKLOADS = ("planar_closed", "space_identity", "space_variation", "cli_cold")


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, wrong sphex)."""


def load_sphex():
    """Import sphex from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "sphex", "__init__.py")):
        raise SetupError(f"no sphex sources under {SRC}")
    sys.path.insert(0, SRC)
    import sphex

    where = os.path.abspath(sphex.__file__)
    if not where.startswith(SRC + os.sep):
        raise SetupError(f"sphex was imported from {where}, not {SRC}")
    return sphex


def build(name, seed, sp=None):
    """Import sphex and make the workload's inputs: the timed set-up.

    `sp` is the `spawner.Spawner` that runs `cli_cold`'s children.
    Returns (sphex, its loaded modules by short name, the workloads
    module, the workload).
    """
    sx = load_sphex()
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    if name == "cli_cold":
        import sphex.cli  # noqa: F401  (run in process by the traced pass)
        wl = workloads.cli_cold(sx, seed, child_env(), WORKDIR,
                                sp and sp.run)
    else:
        wl = workloads.BUILDERS[name](sx, seed)
    mods = {"sphex": sx}
    for full, mod in list(sys.modules.items()):
        if full.startswith("sphex."):
            mods[full.split(".", 1)[1]] = mod
    return sx, mods, workloads, wl


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds(name, seed):
    """Wall time from spawning a fresh interpreter to its set-up being done."""
    t0 = time.perf_counter()
    p = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
    try:
        line = p.stdout.readline()
        t1 = time.perf_counter()
        p.stdout.read()
    finally:
        p.stdout.close()
        p.wait()
    if line.strip() != b"ready" or p.returncode != 0:
        raise SetupError(f"set-up child exited {p.returncode}")
    return t1 - t0


def child_seconds(sp, code):
    """Wall time of a fresh interpreter running `code`."""
    t0 = time.perf_counter()
    status = sp.run([sys.executable, "-c", code], child_env(), WORKDIR)[0]
    if status != 0:
        raise SetupError(f"python -c {code!r} exited {status}")
    return time.perf_counter() - t0


def ref_probe(sp):
    """Seconds of one reference probe, which runs no sphex code.

    A bare child interpreter and a pure-Python loop: the kinds of work
    the workloads do, and no memory that would show in peak_rss_mb.  The
    machine is shared and its speed drifts by tens of percent from
    minute to minute; the probe, timed between the items, drifts with it.
    """
    t0 = time.perf_counter()
    child_seconds(sp, "pass")
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_once(fn):
    """(outcome or exception, seconds) of one item."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as e:  # an item's failure is counted, not fatal
        out = e
    return out, time.perf_counter() - t0


def warm_up(wl, inproc=False):
    """Run the first item of each kind once, untimed.

    This pays first-call costs (lazy imports, bytecode and file caches)
    before timing starts.  The answers checked are those of each item's
    first timed run.
    """
    kinds = set()
    for it in wl.items:
        if it.kind not in kinds:
            kinds.add(it.kind)
            run_once(it.run_inproc if inproc and it.run_inproc else it.run)


def loop(items, seconds, whole_rounds, inproc=False, sp=None, probes=None):
    """Run items in order, round after round, until `seconds` have passed.

    At least one full round runs.  With `whole_rounds` the loop only stops
    at the end of a round.  With a `probes` list, a reference probe runs
    through `sp` after every PROBE_EVERY_S seconds of items and its time
    is appended.
    Returns ([(slot, outcome, seconds)], elapsed).
    """
    rec = []
    start = time.perf_counter()
    k = 0
    n = len(items)
    since_probe = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if k >= n and elapsed >= seconds and (not whole_rounds or k % n == 0):
            break
        it = items[k % n]
        out, dt = run_once(it.run_inproc if inproc and it.run_inproc
                           else it.run)
        rec.append((k % n, out, dt))
        k += 1
        since_probe += dt
        if probes is not None and since_probe >= PROBE_EVERY_S:
            probes.append(ref_probe(sp))
            since_probe = 0.0
    return rec, time.perf_counter() - start


def tail(sorted_vals, pct):
    """Nearest-rank `pct` percentile, lowered until ten values lie beyond
    it, but not below the median.

    Returns (value, percentile used, values beyond it).
    """
    n = len(sorted_vals)
    rank = max(math.ceil(n / 2), min(math.ceil(pct / 100.0 * n), n - 10))
    return sorted_vals[rank - 1], 100.0 * rank / n, n - rank


def slot_median(rec):
    """Median item time with every item of the round weighted equally.

    An item's runs share its weight, so a round cut short by the time
    limit does not shift the median towards the items that ran once more.
    """
    count = {}
    for slot, _, _ in rec:
        count[slot] = count.get(slot, 0) + 1
    pairs = sorted((dt, 1.0 / count[slot]) for slot, _, dt in rec)
    half = len(count) / 2.0
    acc = 0.0
    for i, (dt, w) in enumerate(pairs):
        acc += w
        if abs(acc - half) < 1e-9:
            return (dt + pairs[i + 1][0]) / 2.0
        if acc > half:
            return dt
    return pairs[-1][0]


def judge(wl, base, rec):
    """Classify the round's items: (failures, known, named problems).

    An item fails if its first answer raised or failed the output checks,
    or if any later run of it raised or answered differently.  Each item
    of the round counts once however often it ran, so the counts depend
    on the seed alone, not on how many rounds fit in the run.  Failures
    whose every problem carries the known ROADMAP 3(b) tag are counted in
    `known`.
    """
    problems = {}
    for slot, it in enumerate(wl.items):
        out = base[slot]
        if isinstance(out, Exception):
            problems[slot] = [(None, f"raised {type(out).__name__}: {out}")]
        else:
            problems[slot] = list(it.check(out))
    for slot, out, _ in rec:
        if isinstance(out, Exception):
            prob = (None, f"raised {type(out).__name__}: {out}")
        elif not isinstance(base[slot], Exception) and \
                out.data != base[slot].data:
            prob = (None, "answer differs from its first run")
        else:
            continue
        if prob not in problems[slot]:
            problems[slot].append(prob)
    named = {wl.items[slot].name: probs
             for slot, probs in problems.items() if probs}
    known = sum(all(tag == "3b" for tag, _ in probs)
                for probs in named.values())
    return len(named), known, named


def median_round(wl, rec):
    """Per-round sums over the items of their median time.

    Returns (median round seconds, time_to_target_s, time_to_target_s
    split by item kind).  An item's time to target is its median of
    t * (sigma / sigma*)^2, or of t when every answer is exact.
    """
    times, scaled = {}, {}
    for slot, out, dt in rec:
        it = wl.items[slot]
        factor = 1.0
        if not isinstance(out, Exception):
            sig = [s for s in out.sigmas if s > 0]
            if sig:
                factor = max(s / it.sigma_target for s in sig) ** 2
        times.setdefault(slot, []).append(dt)
        scaled.setdefault(slot, []).append(dt * factor)
    by_kind = {}
    for slot, v in scaled.items():
        kind = wl.items[slot].kind
        by_kind[kind] = by_kind.get(kind, 0.0) + statistics.median(v)
    round_s = sum(statistics.median(v) for v in times.values())
    return round_s, sum(by_kind.values()), by_kind


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return (f"nproc={os.cpu_count()} cpu=\"{cpu}\" "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas_threads={THREADS}")


def emit(args, header, metrics, notes, attempted, failed, correct):
    print(f"# sphex benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# " + machine())
    for line in header:
        print("# " + line)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def failure_notes(failed, known, attempted, named):
    notes = [f"fail_frac  {failed / attempted:.6g} ratio  ({failed} failed "
             f"of {attempted} attempted; {known} of them the known ROADMAP "
             "3(b) defect)"]
    for name, probs in named.items():
        for tag, msg in probs:
            label = "known 3(b)" if tag == "3b" else "FAIL"
            notes.append(f"#   {label} {name}: {msg}")
    return notes


def end_to_end(args, sp):
    # each set-up is scaled by the probes just before and after it
    setups, setup_probes = [], [ref_probe(sp)]
    for _ in range(SETUP_REPEATS):
        setups.append(setup_seconds(args.workload, args.seed))
        setup_probes.append(ref_probe(sp))
    setup_scaled = statistics.median(
        REF_NOMINAL_S * s / ((a + b) / 2.0)
        for s, a, b in zip(setups, setup_probes, setup_probes[1:]))
    probes = []
    sx, mods, workloads, wl = build(args.workload, args.seed, sp)
    warm_up(wl)
    rec, elapsed = loop(wl.items, args.seconds, whole_rounds=False, sp=sp,
                        probes=probes)
    base = [out for _, out, _ in rec[:len(wl.items)]]
    failed, known, named = judge(wl, base, rec)
    attempted = len(wl.items)
    times = sorted(dt for _, _, dt in rec)
    p50_s = slot_median(rec)
    tail_s, tail_pct, beyond = tail(times, wl.tail_pct)
    round_s, ttt, ttt_kind = median_round(wl, rec)
    if args.workload == "cli_cold":
        rss_kb = max((out.rss_kb for _, out, _ in rec
                      if not isinstance(out, Exception)), default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # every timing is reported at the reference machine speed
    probe_s = statistics.median(probes or [ref_probe(sp)])
    scale = REF_NOMINAL_S / probe_s
    timings = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(wl.items) / round_s, "1/s"),
        "item_p50_ms": (p50_s * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "time_to_target_s": (ttt, "s"),
    }
    metrics = {name: (v / scale if unit == "1/s" else v * scale, unit)
               for name, (v, unit) in timings.items()}
    metrics["setup_s"] = (setup_scaled, "s")
    metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    header = [
        f"closed loop, 1 caller; round of {attempted} items; "
        f"{len(rec)} items in {elapsed:.2f} s; items_per_s is items per "
        f"round over the sum of each item's median time, {round_s:.4g} s",
        f"item_tail_ms is p{tail_pct:.4g} of {len(rec)} items, "
        f"{beyond} beyond it",
        f"fail_frac counts each of the round's {attempted} items once",
        f"setup_s is the median of {SETUP_REPEATS} fresh set-ups, each "
        "scaled by the mean of the reference probes around it: "
        + " ".join(f"{s:.3f}" for s in setups) + " s; probes "
        + " ".join(f"{s:.4f}" for s in setup_probes) + " s",
        "time_to_target_s by item kind, unscaled: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in ttt_kind.items()),
        f"timings below are scaled by {scale:.4g} = {REF_NOMINAL_S} s over "
        f"the median of {len(probes)} reference probes, {probe_s:.4g} s; "
        "unscaled: " + ", ".join(f"{k} {v:.6g} {u}"
                                 for k, (v, u) in timings.items()),
    ]
    notes = failure_notes(failed, known, attempted, named)
    emit(args, header, metrics, notes, attempted, failed, failed == known)


def traced(args, sp):
    sx, mods, workloads, wl = build(args.workload, args.seed, sp)
    import tracing

    warm_up(wl, inproc=True)
    plain, plain_s = loop(wl.items, args.seconds, whole_rounds=True,
                          inproc=True)
    if any(it.run_inproc for it in wl.items):
        base = [run_once(it.run)[0] for it in wl.items]  # the real CLI
    else:
        base = [out for _, out, _ in plain[:len(wl.items)]]
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        rec = []
        t0 = time.perf_counter()
        for _ in range(TRACE_ROUNDS):
            for slot, it in enumerate(wl.items):
                tracer.item = f"{slot}:{it.name}"
                out, dt = run_once(it.run_inproc or it.run)
                rec.append((slot, out, dt))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    # an in-process CLI item returns only its exit code: judge it by the
    # checked answer of the real CLI
    failed, known, named = judge(wl, base, [
        (slot, out if isinstance(out, (Exception, workloads.Outcome))
         else base[slot], dt) for slot, out, dt in rec])
    interp = [child_seconds(sp, "pass") for _ in range(CLI_PROBES)]
    imp = [child_seconds(sp, "import sphex") for _ in range(CLI_PROBES)]
    metrics = tracer.layer_metrics(TRACE_ROUNDS)
    metrics["cli.interp_s"] = (statistics.median(interp), "s")
    metrics["cli.import_s"] = (statistics.median(imp), "s")
    # the machine's speed during the pass, to read the self times by
    metrics["ref_probe_s"] = (statistics.median(
        ref_probe(sp) for _ in range(CLI_PROBES)), "s")
    untraced_ips = len(plain) / plain_s
    traced_ips = len(rec) / traced_s
    metrics["fail_frac"] = (failed / len(wl.items), "ratio")
    metrics["trace.round_s"] = (traced_s / TRACE_ROUNDS, "s")
    metrics["trace.items_per_s"] = (traced_ips, "1/s")
    metrics["trace.untraced_items_per_s"] = (untraced_ips, "1/s")
    metrics["trace.overhead_items_per_s"] = (untraced_ips - traced_ips, "1/s")
    spans = os.path.join(
        WORKDIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans)
    header = [
        f"traced pass: {TRACE_ROUNDS} rounds of {len(wl.items)} items; "
        "counts and self times are per round"
        + ("; cli_cold runs cli.main in process" if wl.name == "cli_cold"
           else ""),
        f"untraced comparison: {len(plain)} items in {plain_s:.2f} s",
        f"{len(tracer.spans)} spans written to {os.path.relpath(spans, ROOT)}",
    ]
    notes = failure_notes(failed, known, len(wl.items), named)
    emit(args, header, metrics, notes, len(wl.items), failed,
         failed == known)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            build(args.workload, args.seed)
            print("ready", flush=True)
        else:
            os.makedirs(WORKDIR, exist_ok=True)
            with spawner.Spawner(CHILD_TIMEOUT_S) as sp:
                (traced if args.trace else end_to_end)(args, sp)
    except SetupError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
