"""Command-line front end.

Four subcommands: `check` (hypothesis signs), `volume` (chamber
volume), `identity` (the identity checks, selected with --which), and
`variation` (finite-difference verification of the volume one-forms).
All randomness flows from --seed through counter-based streams, so
repeating a command reproduces its output byte for byte.

Exit codes: 0 pass, 1 usage or parse error, 2 identity or hypothesis
failure, 3 indeterminate sign, 4 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .arrangement import (
    Chamber,
    check_hypotheses,
    evaluate_f,
    load_arrangement,
    restrict_to_unit_sphere,
)
from .cayley_menger import config_matrix
from .errors import (
    DegenerateConfigError,
    EmptyIntersectionError,
    FdNoiseError,
    HypothesisError,
    IndeterminateSignError,
    NonRealizableError,
    SphexError,
)
from .identities import (
    check_decomposition,
    check_gauss_bonnet_n3,
    check_lemma5_pointwise,
    check_prop4_residue,
    check_prop6_values,
    check_theorem_I_i,
    check_theorem_II_i,
)
from .variation import config_basis, param_basis, verify_variation_fd
from .volume import Rng, chamber_volume

SCHEMA = "sphex/1"

_WHICH = ("thmI", "thmII", "lemma5", "prop4", "prop6", "gaussbonnet",
          "decomposition")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sphex",
        description="volumes and identities of hypersphere arrangements")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="arrangement JSON file")
        p.add_argument("--chamber", help="sign string like '--+' (default all minus)")
        p.add_argument("--samples", type=int, default=1_000_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eps", type=float, default=1e-4)
        p.add_argument("--format", dest="fmt", default="json",
                       choices=("json", "csv", "text"))
        p.add_argument("--out", help="write output here instead of stdout")

    common(sub.add_parser("check", help="evaluate the sign hypotheses"))
    common(sub.add_parser("volume", help="volume of one chamber"))
    p_id = sub.add_parser("identity", help="verify one of the identities")
    common(p_id)
    p_id.add_argument("--which", required=True, choices=_WHICH)
    p_id.add_argument("--points", type=int, default=100,
                      help="random points for the pointwise identity")
    p_var = sub.add_parser("variation", help="finite-difference checks")
    common(p_var)
    p_var.add_argument("--model", default="euclidean",
                       choices=("euclidean", "unit-sphere"))
    p_var.add_argument("--params", default="all",
                       help="comma list like 'r1,d12' (default all)")
    return ap


def _check_args(args):
    """Reject values argparse accepts but no subcommand can use."""
    # argparse swallows a bare "--" value into an empty list; reject any
    # non-string remnant instead of silently using the default chamber
    if args.chamber is not None and (not isinstance(args.chamber, str)
                                     or not args.chamber):
        raise ValueError("chamber must be a non-empty string of + and -")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if args.eps <= 0:
        raise ValueError("--eps must be positive")
    if getattr(args, "points", 1) < 1:
        raise ValueError("--points must be at least 1")


def parse_param_token(tok: str, model: str):
    """Parse 'r1' / 'd12' / 'd1,3' (euclidean) or 'a01' / 'a12' tokens."""
    tok = tok.strip()
    one, two = ("r", "d") if model == "euclidean" else ("a0", "a")
    try:
        if tok.startswith(one):
            return (one, int(tok[len(one):]))
        if tok.startswith(two):
            body = tok[len(two):]
            if "," in body:
                j, k = (int(t) for t in body.split(","))
            else:
                j, k = int(body[0]), int(body[1])
            return (two, min(j, k), max(j, k))
    except (ValueError, IndexError):
        pass
    raise ValueError(f"cannot parse parameter token {tok!r}")


def _chamber_for(args, n: int) -> Chamber:
    if args.chamber:
        c = Chamber.from_string(args.chamber)
        if len(c.signs) != n + 1:
            raise ValueError(f"chamber needs {n + 1} signs")
        return c
    return Chamber.all_minus(n)


# ---------------------------------------------------------------------------
# subcommands: each returns (payload dict, exit code)
# ---------------------------------------------------------------------------


def cmd_check(args):
    a = load_arrangement(args.input)
    rep = check_hypotheses(a)
    payload = {
        "schema": SCHEMA,
        "command": "check",
        "h1": rep.h1,
        "h1_prime": rep.h1_prime,
        "h2": rep.h2,
        "subsets": [
            {
                "subset": list(r.subset),
                "plain": r.plain,
                "starred": r.starred,
                "plain_status": r.plain_status,
                "starred_status": r.starred_status,
            }
            for r in rep.table
        ],
        "indeterminate": [list(s) for s in rep.indeterminate_subsets()],
        "pivot_warnings": rep.pivot_warnings,
    }
    if (rep.h1 is True and rep.h2 is not False) or rep.h1_prime is True:
        code = 0
    elif rep.h1 is None or rep.h1_prime is None:
        code = 3
    else:
        code = 2
    return payload, code


def cmd_volume(args):
    a = load_arrangement(args.input)
    c = _chamber_for(args, a.n)
    est = chamber_volume(a, c, args.samples, Rng(args.seed))
    payload = {
        "schema": SCHEMA,
        "command": "volume",
        "chamber": str(c),
        "value": est.value,
        "std_error": est.std_error,
        "samples": est.samples,
        "exact": est.exact,
        "method": est.method,
        "fallback_reason": est.fallback_reason,
    }
    return payload, 0


def _lemma5_points(a, args):
    gen = Rng(args.seed).generator(0)
    maxr = float(np.max(a.radii))
    lo = a.centers.min(axis=0) - maxr
    hi = a.centers.max(axis=0) + maxr
    pts = []
    guard = 0
    while len(pts) < args.points:
        x = lo + (hi - lo) * gen.random(a.n)
        near = min(abs(evaluate_f(a, j, x)) for j in range(1, a.n + 2))
        guard += 1
        if near > 1e-6 * maxr ** 2:
            pts.append(x)
        if guard > 1000 * args.points:
            raise DegenerateConfigError("could not sample points off the spheres")
    return pts


def cmd_identity(args):
    a = load_arrangement(args.input)
    rng = Rng(args.seed)
    reports = []
    if args.which == "thmI":
        reports.append(check_theorem_I_i(a, args.samples, rng,
                                         chamber=_chamber_for(args, a.n)))
    elif args.which == "thmII":
        reports.append(check_theorem_II_i(a, args.samples, rng))
    elif args.which == "decomposition":
        reports.append(check_decomposition(a, args.samples, rng))
    elif args.which == "lemma5":
        for x in _lemma5_points(a, args):
            reports.append(check_lemma5_pointwise(a, x))
    elif args.which == "prop4":
        import itertools
        i = 0
        for p in range(1, a.n + 1):
            for J in itertools.combinations(range(1, a.n + 2), p):
                reports.append(
                    check_prop4_residue(a, J, trials=20, rng=rng.substream(i)))
                i += 1
    elif args.which == "prop6":
        for j in range(1, a.n + 2):
            reports.append(check_prop6_values(a, j))
    elif args.which == "gaussbonnet":
        m = config_matrix(restrict_to_unit_sphere(a))
        reports.append(check_gauss_bonnet_n3(m, args.samples, rng))
    else:
        raise ValueError(f"unknown identity {args.which!r}")
    pass_count = sum(1 for r in reports if r.passed)
    payload = {
        "schema": SCHEMA,
        "command": "identity",
        "which": args.which,
        "count": len(reports),
        "pass_count": pass_count,
        "reports": [r.to_dict() for r in reports],
    }
    return payload, 0 if pass_count == len(reports) else 2


def cmd_variation(args):
    a = load_arrangement(args.input)
    rng = Rng(args.seed)
    rows = []
    saw_noise = False
    if args.model == "euclidean":
        c = _chamber_for(args, a.n)
        keys = param_basis(a.n)
        target = a
    else:
        m = config_matrix(restrict_to_unit_sphere(a))
        c = None
        keys = config_basis(m.n)
        target = m
    if args.params != "all":
        keys = [parse_param_token(t, args.model) for t in args.params.split(",")]
    for i, key in enumerate(keys):
        try:
            rep = verify_variation_fd(args.model, target, c, key, args.eps,
                                      args.samples, rng.substream(100 + i))
            rows.append({**rep.to_dict(), "method": rep.method,
                         "fallback_reason": rep.fallback_reason})
        except FdNoiseError as e:
            saw_noise = True
            rows.append({
                "parameter": "".join(str(t) for t in key),
                "error": str(e),
            })
    payload = {
        "schema": SCHEMA,
        "command": "variation",
        "model": args.model,
        "eps": args.eps,
        "rows": rows,
    }
    if saw_noise:
        return payload, 4
    ok = all(r.get("pass") for r in rows)
    return payload, 0 if ok else 2


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_csv(payload: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    cmd = payload.get("command")
    if cmd == "check":
        w.writerow(["subset", "plain", "starred", "plain_status",
                    "starred_status"])
        for row in payload["subsets"]:
            w.writerow(["|".join(str(j) for j in row["subset"]), row["plain"],
                        row["starred"], row["plain_status"],
                        row["starred_status"]])
    elif cmd == "volume":
        w.writerow(["chamber", "value", "std_error", "samples", "exact"])
        w.writerow([payload["chamber"], payload["value"],
                    payload["std_error"], payload["samples"],
                    payload["exact"]])
    elif cmd == "identity":
        w.writerow(["name", "lhs", "rhs", "residual", "tolerance", "pass"])
        for r in payload["reports"]:
            w.writerow([r["name"], r["lhs"], r["rhs"], r["residual"],
                        r["tolerance"], r["pass"]])
    elif cmd == "variation":
        w.writerow(["parameter", "fd_value", "formula_value", "residual",
                    "tolerance", "pass", "error"])
        for r in payload["rows"]:
            w.writerow([r.get("parameter"), r.get("fd_value", ""),
                        r.get("formula_value", ""), r.get("residual", ""),
                        r.get("tolerance", ""), r.get("pass", ""),
                        r.get("error", "")])
    else:
        w.writerow(["error_type", "message"])
        err = payload.get("error", {})
        w.writerow([err.get("type", ""), err.get("message", "")])
    return buf.getvalue()


def _render_text(payload: dict) -> str:
    lines = []
    cmd = payload.get("command")
    if "error" in payload:
        err = payload["error"]
        lines.append(f"error ({err['type']}): {err['message']}")
    elif cmd == "check":
        for key in ("h1", "h1_prime", "h2"):
            val = payload[key]
            word = {True: "pass", False: "fail", None: "indeterminate"}[val]
            lines.append(f"{key}: {word}")
        for row in payload["subsets"]:
            subset = ",".join(str(j) for j in row["subset"])
            lines.append(
                f"  J={{{subset}}} plain={row['plain']:+.6e} "
                f"[{row['plain_status']}] starred={row['starred']:+.6e} "
                f"[{row['starred_status']}]")
    elif cmd == "volume":
        lines.append(
            f"chamber {payload['chamber']}: value={payload['value']:.9g} "
            f"std_error={payload['std_error']:.3g} "
            f"samples={payload['samples']} exact={payload['exact']}")
    elif cmd == "identity":
        for r in payload["reports"]:
            word = "PASS" if r["pass"] else "FAIL"
            lines.append(
                f"{r['name']}: {word} lhs={r['lhs']:.12g} rhs={r['rhs']:.12g} "
                f"residual={r['residual']:.3e} tolerance={r['tolerance']:.3e}")
            for t in r["terms"]:
                lines.append(f"    {t['label']}: {t['value']:+.12g}")
        lines.append(f"passed {payload['pass_count']} of {payload['count']}")
    elif cmd == "variation":
        for r in payload["rows"]:
            if "error" in r:
                lines.append(f"{r['parameter']}: ERROR {r['error']}")
            else:
                word = "PASS" if r["pass"] else "FAIL"
                lines.append(
                    f"{r['parameter']}: {word} fd={r['fd_value']:.9g} "
                    f"formula={r['formula_value']:.9g} "
                    f"residual={r['residual']:.3e} "
                    f"tolerance={r['tolerance']:.3e}")
    return "\n".join(lines) + "\n"


def _emit(cfg_fmt: str, out_path, payload: dict):
    if cfg_fmt == "json":
        text = _render_json(payload)
    elif cfg_fmt == "csv":
        text = _render_csv(payload)
    else:
        text = _render_text(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_DISPATCH = {
    "check": cmd_check,
    "volume": cmd_volume,
    "identity": cmd_identity,
    "variation": cmd_variation,
}


def _merge_chamber_tokens(argv):
    """Glue `--chamber --+` into `--chamber=--+`.

    Sign strings usually start with '-', which argparse would otherwise
    read as the start of another option.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok == "--chamber" and i + 1 < len(argv)
                and set(argv[i + 1]) <= {"+", "-"} and argv[i + 1]):
            out.append(f"--chamber={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_merge_chamber_tokens(list(argv)))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    fmt, out = args.fmt, args.out
    try:
        _check_args(args)
        payload, code = _DISPATCH[args.command](args)
    except HypothesisError as e:
        _emit(fmt, out, _error_payload(args, e))
        return 2
    except IndeterminateSignError as e:
        _emit(fmt, out, _error_payload(args, e))
        return 3
    except (NonRealizableError, DegenerateConfigError, EmptyIntersectionError,
            FdNoiseError) as e:
        _emit(fmt, out, _error_payload(args, e))
        return 4
    except SphexError as e:
        _emit(fmt, out, _error_payload(args, e))
        return 4
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    _emit(fmt, out, payload)
    return code


def _error_payload(args, e: Exception) -> dict:
    return {
        "schema": SCHEMA,
        "command": args.command,
        "error": {"type": type(e).__name__, "message": str(e)},
    }


if __name__ == "__main__":
    sys.exit(main())
