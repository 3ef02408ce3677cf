"""Command-line front end.

Four subcommands: `check` (hypothesis signs), `volume` (chamber
volume), `identity` (the identity checks, selected with --which), and
`variation` (finite-difference verification of the volume one-forms).
All randomness flows from --seed through counter-based streams, so
repeating a command reproduces its output byte for byte.

--format json writes a command's payload.  csv and text write its rows
(`_rows`): csv one line per row under the rows' keys, text the other
fields as `key: value` lines, then one `key=value ...` line per row.

Exit codes: 0 pass, 1 usage or parse error, 2 identity or hypothesis
failure, 3 a needed sign inside the sign band (a tangency included),
4 any other degeneracy.
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
    FdNoiseError,
    HypothesisError,
    IndeterminateSignError,
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
from .variation import (
    _param_name,
    config_basis,
    param_basis,
    verify_variation_fd,
)
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


def _param_keys(spec: str, basis) -> list:
    """The basis keys a --params list names: 'r1,d12', 'a01,a12', 'r1,d1,3'.

    A key goes by its report name (`r1`, `d12`, `a01`, `a12`) or, for two
    indices, with a comma between them (`d1,3`).
    """
    names = {}
    for key in basis:
        names[_param_name(key)] = key
        if len(key) == 3:
            names[f"{key[0]}{key[1]},{key[2]}"] = key
    tokens = []
    for tok in spec.split(","):
        tok = tok.strip()
        if tok.isdigit() and tokens:
            tokens[-1] += "," + tok  # the second index of a `d1,3` name
        else:
            tokens.append(tok)
    for tok in tokens:
        if tok not in names:
            valid = ", ".join(_param_name(k) for k in basis)
            raise ValueError(f"unknown parameter {tok!r}; valid names: {valid}"
                             " (a comma may separate two indices)")
    return [names[tok] for tok in tokens]


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
        "subsets": [r.to_dict() for r in rep.table],
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
        **est.to_dict(),
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
        keys = _param_keys(args.params, keys)
    for i, key in enumerate(keys):
        try:
            rep = verify_variation_fd(args.model, target, c, key, args.eps,
                                      args.samples, rng.substream(100 + i))
            rows.append(rep.to_dict())
        except FdNoiseError as e:
            saw_noise = True
            rows.append({"parameter": _param_name(key), "error": str(e)})
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


def _rows(payload: dict):
    """A payload's rows and its other fields.

    The rows are its `subsets`, `reports` or `rows`, or its `error`;
    a payload with none of these (one `volume` estimate) is one row
    beside its `schema` and `command`.
    """
    key = next((k for k in ("subsets", "reports", "rows", "error")
                if k in payload), None)
    if key is None:
        head = {k: payload[k] for k in ("schema", "command")}
        return [{k: v for k, v in payload.items() if k not in head}], head
    rows = payload[key]
    rest = {k: v for k, v in payload.items() if k != key}
    return (rows if isinstance(rows, list) else [rows]), rest


def _cell(value) -> str:
    """One field as csv and text write it: None empty, a list of scalars
    joined by '|', any other nested value as compact JSON."""
    if value is None:
        return ""
    if isinstance(value, list) and not any(
            isinstance(v, (list, dict)) for v in value):
        return "|".join(str(v) for v in value)
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _render_csv(payload: dict) -> str:
    """One line per row; the columns are the rows' keys, first seen first."""
    rows, _ = _rows(payload)
    columns = list(dict.fromkeys(k for row in rows for k in row))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_cell(row.get(k)) for k in columns])
    return buf.getvalue()


def _render_text(payload: dict) -> str:
    """The other fields as `key: value` lines, then one `key=value ...`
    line per row."""
    rows, rest = _rows(payload)
    lines = [f"{k}: {_cell(v)}" for k, v in rest.items()]
    lines += [" ".join(f"{k}={_cell(v)}" for k, v in row.items())
              for row in rows]
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
