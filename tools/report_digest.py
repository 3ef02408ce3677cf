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


def digest(workloads, sx, name, seed) -> str:
    """sha256 of the outcomes of one round of workload `name` at `seed`."""
    h = hashlib.sha256()
    for item in workloads.BUILDERS[name](sx, seed).items:
        out = item.run()
        line = json.dumps([item.name, canonical(out.data),
                           canonical(out.sigmas)], sort_keys=True)
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import sphex
    import workloads

    for seed in args.seeds:
        for name in WORKLOADS:
            print(name, seed, digest(workloads, sphex, name, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
