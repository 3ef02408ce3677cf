"""Digest every answer of the in-process benchmark workloads.

Usage, from the root of a checkout:

    python3 tools/report_digest.py --seeds 1 2 3

For each seed and each of `planar_closed`, `space_identity` and
`space_variation`, this runs one round of the workload built by
`bench/workloads.py`, with sphex imported from the checkout's `src/`,
and prints one line

    <workload> <seed> <sha256>

The hash covers every item's outcome (its data and sigmas) with each
float written by `float.hex`, so two checkouts print the same lines only
if every report is the same bit for bit.  Items run in order, once, in
one single-threaded process, as in the benchmark's rounds.

    python3 tools/report_digest.py --seeds 1 2 3 --against ../parent

compares this checkout with a second one (for example a `git worktree`
of the parent commit): each checkout's items run in their own process,
from their own `src/` and `bench/`, and one line per workload and seed
reads

    <workload> <seed> same
    <workload> <seed> differs <first item that differs>

The exit code is non-zero only if a run fails, not if reports differ.
"""

import os
import sys

# BLAS and OpenMP threads, as in bench/run.py; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("planar_closed", "space_identity", "space_variation")


def canonical(x):
    """`x` with every float replaced by its `float.hex`, for hashing."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if x is None or isinstance(x, (bool, int, str)):
        return x
    raise TypeError(f"cannot digest a {type(x).__name__}")


def outcome_lines(workloads, sx, name, seed):
    """(item name, outcome line) of each item of one round of `name` at
    `seed`, each float written by `float.hex`."""
    for item in workloads.BUILDERS[name](sx, seed).items:
        out = item.run()
        yield item.name, json.dumps([item.name, canonical(out.data),
                                     canonical(out.sigmas)], sort_keys=True)


def digest(workloads, sx, name, seed) -> str:
    """sha256 of the outcomes of one round of workload `name` at `seed`."""
    h = hashlib.sha256()
    for _, line in outcome_lines(workloads, sx, name, seed):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def compare(seeds, other) -> int:
    """Print same/differs per workload and seed, this checkout against
    `other`; 1 if either checkout's run fails."""
    argv = [sys.executable, os.path.abspath(__file__), "--seeds",
            *map(str, seeds), "--items-of"]
    runs = [subprocess.Popen(argv + [root], cwd=root, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for root in (ROOT, os.path.abspath(other))]
    items = []
    for run in runs:
        out, err = run.communicate()
        if run.returncode:
            sys.stderr.write(err)
            print(f"run failed in {run.args[-1]} (exit {run.returncode})")
            return 1
        table = {}
        for line in out.splitlines():
            name, seed, sha, item = line.split(" ", 3)
            table.setdefault((name, seed), []).append((sha, item))
        items.append(table)
    for seed in seeds:
        for name in WORKLOADS:
            ours, theirs = (t.get((name, str(seed)), []) for t in items)
            first = next((a[1] for a, b in zip(ours, theirs) if a != b), None)
            if first is None and len(ours) != len(theirs):
                first = f"item {min(len(ours), len(theirs))} (item counts "\
                        f"{len(ours)} and {len(theirs)})"
            print(name, seed, "same" if first is None else f"differs {first}",
                  flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--against", metavar="DIR",
                    help="a second checkout to compare every report with")
    ap.add_argument("--items-of", metavar="DIR",
                    help="print one sha256 per item, from checkout DIR "
                         "(what --against runs in each checkout)")
    args = ap.parse_args(argv)
    if args.against:
        if not os.path.isdir(os.path.join(args.against, "bench")):
            ap.error(f"--against {args.against}: not a checkout")
        return compare(args.seeds, args.against)
    root = args.items_of or ROOT
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import sphex
    import workloads

    for seed in args.seeds:
        for name in WORKLOADS:
            if args.items_of:
                for item, line in outcome_lines(workloads, sphex, name, seed):
                    sha = hashlib.sha256(line.encode()).hexdigest()
                    print(name, seed, sha, item)
            else:
                print(name, seed, digest(workloads, sphex, name, seed),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
