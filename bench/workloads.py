"""Seeded workloads for the sphex benchmark.

A builder (`BUILDERS[name](sx, seed)`, or `cli_cold`) turns a seed into
one *round*: a fixed list of items.  A run repeats the round in a closed loop.  Every item
calls sphex only through its public API (`cli_cold`: through its
command-line module in a fresh interpreter) and returns an `Outcome`.
The outcome's `data` must repeat exactly whenever the item runs again,
and `Item.check` judges it; both happen outside the timed region.

An item builds its `Arrangement` from plain arrays on every run, so
nothing sphex attaches to an arrangement object outlives one item.

Inputs depend on the seed alone.  Hypothesis filters on random draws use
the benchmark's own determinant test (`signs`), never sphex, so a change
to sphex cannot change which inputs a seed produces.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Monte Carlo samples for a closed-form path that falls back to MC; small,
#: so that a fallback shows as time and error without stalling a run
FALLBACK_SAMPLES = 20_000
#: samples of the independent MC area each n=2 answer is checked against
ORACLE_SAMPLES = 50_000
#: MC comparisons in the checks allow 5 sigma: a run makes hundreds of
#: them, and at 3 sigma correct answers would fail by chance
Z_CHECK = 5.0
#: tolerance an identity report carries when every term is closed form
EXACT_IDENTITY_TOL = 1e-9
#: tolerance of the closed-form (n = 2) finite-difference check
EXACT_FD_TOL = 1e-6

SIDE = 1.5
SIGN_TOL = 1e-9


@dataclass
class Outcome:
    """What one item returned.

    `sigmas` are the standard errors of the item's answers (0 for an exact
    answer).  `rss_kb` is the peak resident set of the child process that
    did the work, when there was one.
    """

    data: dict
    sigmas: list = field(default_factory=list)
    rss_kb: int = 0


@dataclass
class Item:
    name: str
    kind: str
    run: Callable[[], Outcome]
    #: returns the problems of an outcome as (tag, message) pairs; tag
    #: "3b" marks the known ROADMAP 3(b) defect, None anything else
    check: Callable[[Outcome], list]
    #: the fixed target standard error sigma* of the item's answers
    sigma_target: float = 1e-3
    #: the same work in this process, for the traced pass (cli_cold only)
    run_inproc: "Callable[[], object] | None" = None


@dataclass
class Workload:
    name: str
    items: list
    #: percentile reported as item_tail_ms, lowered in a run that has
    #: fewer than ten items beyond it
    tail_pct: float


# ---------------------------------------------------------------------------
# geometry and the benchmark's own hypothesis test
# ---------------------------------------------------------------------------


def simplex_centers(n: int, side: float = SIDE) -> np.ndarray:
    """Vertices of a regular n-simplex with edge `side` (n = 2, 3, 4)."""
    if n == 2:
        return np.array([[0.0, 0.0], [side, 0.0],
                         [side / 2.0, side * math.sqrt(3.0) / 2.0]])
    if n == 3:
        return np.array([
            [0.0, 0.0, 0.0],
            [side, 0.0, 0.0],
            [side / 2.0, side * math.sqrt(3.0) / 2.0, 0.0],
            [side / 2.0, side / (2.0 * math.sqrt(3.0)),
             side * math.sqrt(2.0 / 3.0)],
        ])
    a = side / math.sqrt(2.0)
    t = a * (1.0 - math.sqrt(5.0)) / 4.0
    return np.vstack([np.eye(n) * a, np.full(n, t)])


def _bordered_det(r2, d2, J, starred: bool) -> float:
    k = len(J)
    off = 2 if starred else 1
    M = np.zeros((k + off, k + off))
    M[0, 1:] = M[1:, 0] = 1.0
    if starred:
        M[1, 2:] = M[2:, 1] = r2[list(J)]
        M[1, 1] = 0.0
    M[off:, off:] = d2[np.ix_(J, J)]
    return float(np.linalg.det(M))


def signs(centers, radii):
    """(H1, H1') of an arrangement by the determinant sign conditions.

    Every index set J of size p needs (-1)^p B(0 J) > 0 and
    (-1)^(p+1) B(0*J) > 0; H1' flips the second condition for the full
    set.  A value within 1e-9 of a Hadamard-type bound counts as failing.
    """
    C = np.asarray(centers, float)
    r2 = np.asarray(radii, float) ** 2
    d2 = np.sum((C[:, None, :] - C[None, :, :]) ** 2, axis=2)
    m = len(r2)
    big = max(1.0, float(r2.max()), float(d2.max()))
    h1 = h1p = True
    for p in range(1, m + 1):
        size = p + 2
        tol = SIGN_TOL * big ** size * size ** (size / 2.0)
        for J in itertools.combinations(range(m), p):
            if (-1) ** p * _bordered_det(r2, d2, J, False) <= tol:
                return False, False
            starred = (-1) ** (p + 1) * _bordered_det(r2, d2, J, True)
            h1 = h1 and starred > tol
            h1p = h1p and (starred > tol if p < m else -starred > tol)
    return h1, h1p


def draw(gen, base_centers, base_radius, center_scale, radius_scale,
         want: str, tries: int = 10_000):
    """Jitter a base arrangement until hypothesis `want` ("h1"/"h1p") holds."""
    for _ in range(tries):
        c = base_centers + gen.normal(scale=center_scale,
                                      size=base_centers.shape)
        r = np.abs(base_radius + gen.normal(scale=radius_scale,
                                            size=len(base_centers)))
        h1, h1p = signs(c, r)
        if (h1 if want == "h1" else h1p):
            return c, r
    raise RuntimeError(f"no {want} draw in {tries} tries")


# ---------------------------------------------------------------------------
# answers and their checks
# ---------------------------------------------------------------------------


def _rep_data(rep) -> dict:
    return {"lhs": rep.lhs, "rhs": rep.rhs, "residual": rep.residual,
            "tolerance": rep.tolerance, "pass": rep.passed}


def _fd_data(rep) -> dict:
    return {"fd": rep.fd_value, "formula": rep.formula_value,
            "residual": rep.residual, "tolerance": rep.tolerance,
            "pass": rep.passed}


def _sigma(d: dict, exact_tol: float) -> float:
    """A report's propagated sigma: 0 if exact, else its 3-sigma tolerance / 3."""
    return 0.0 if d["tolerance"] <= exact_tol else d["tolerance"] / 3.0


def _report_problems(label: str, d: dict, exact_tol: float) -> list:
    """An exact report must pass; an MC one must agree within Z_CHECK sigma."""
    if d["tolerance"] <= exact_tol:
        ok = d["pass"]
    else:
        ok = d["residual"] <= Z_CHECK * _sigma(d, exact_tol)
    if ok:
        return []
    return [(None, f"{label}residual {d['residual']:.3e} vs tolerance "
                   f"{d['tolerance']:.3e}")]


def _oracle_problems(sx, a, chamber, stream, value, sigma, tag):
    """Compare an n=2 area with an independent indicator-MC estimate.

    The MC sigma is floored at one hit, so an empty sample still bounds
    the area.
    """
    bounding = None if chamber.minus_set() else "simplex"
    est = sx.chamber_volume_mc(a, chamber, ORACLE_SAMPLES,
                               sx.Rng(7_000_003, stream), bounding=bounding)
    if chamber.minus_set():
        minus = chamber.minus_set()
        lo = np.max([a.center(j) - a.radius(j) for j in minus], axis=0)
        hi = np.min([a.center(j) + a.radius(j) for j in minus], axis=0)
    else:
        lo, hi = a.centers.min(axis=0), a.centers.max(axis=0)
    floor = float(np.prod(np.maximum(hi - lo, 0.0))) / ORACLE_SAMPLES
    s = math.hypot(max(est.std_error, floor), sigma)
    if abs(est.value - value) <= Z_CHECK * s:
        return []
    return [(tag, f"{chamber} area {value:.6g} vs MC {est.value:.6g} "
                  f"+- {est.std_error:.2g}")]


# ---------------------------------------------------------------------------
# planar_closed: n = 2, every answer closed form
# ---------------------------------------------------------------------------

#: draws per round; the cost of a draw varies, and a round of this size
#: keeps the round's cost within a few percent from seed to seed
H1_DRAWS = 48
GAP_DRAWS = 144
MINUS_CHAMBERS = ("---", "--+", "-+-", "+--", "-++", "+-+", "++-")
#: relative tolerance of the exact partition identities below
PARTITION_TOL = 1e-9


def _lens_area(r1, r2, d):
    """Area of the intersection of two disks that overlap."""
    a1 = math.acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))
    a2 = math.acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))
    kite = math.sqrt((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2)
                     * (d + r1 + r2))
    return r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * kite


def _partition_problems(centers, radii, areas):
    """The seven minus chambers tile each disk and each lens exactly.

    Under H1 every pair of circles crosses, so disk j is the union of the
    four chambers inside circle j, and the lens of j and k the union of
    the two chambers inside both.  `areas` maps chamber strings to areas.
    """
    probs = []
    for j in range(3):
        inside = [s for s in MINUS_CHAMBERS if s[j] == "-"]
        want = math.pi * radii[j] ** 2
        got = math.fsum(areas[s] for s in inside)
        if abs(got - want) > PARTITION_TOL * want:
            probs.append((None, f"chambers inside circle {j + 1} sum to "
                                f"{got:.12g}, disk area {want:.12g}"))
        for k in range(j + 1, 3):
            both = [s for s in inside if s[k] == "-"]
            d = float(np.linalg.norm(centers[j] - centers[k]))
            want = _lens_area(radii[j], radii[k], d)
            got = math.fsum(areas[s] for s in both)
            if abs(got - want) > PARTITION_TOL * want:
                probs.append((None, f"chambers inside circles {j + 1},{k + 1} "
                                    f"sum to {got:.12g}, lens {want:.12g}"))
    return probs


def _planar_h1_item(sx, idx, centers, radii):
    cham = [sx.Chamber.from_string(s) for s in MINUS_CHAMBERS]
    allm = cham[0]

    def run():
        a = sx.from_centers_radii(centers, radii)
        rep = sx.check_hypotheses(a)
        vols = [sx.chamber_volume(a, c, FALLBACK_SAMPLES, sx.Rng(11, k))
                for k, c in enumerate(cham)]
        thm = _rep_data(sx.check_theorem_I_i(a, FALLBACK_SAMPLES, sx.Rng(12)))
        form = sx.dB_volume_form(a, allm, FALLBACK_SAMPLES, sx.Rng(13))
        fds = [_fd_data(sx.verify_variation_fd(
                   "euclidean", a, allm, key, 1e-5, FALLBACK_SAMPLES,
                   sx.Rng(14, i)))
               for i, key in enumerate(sx.param_basis(2))]
        sigmas = [v.std_error for v in vols] + [
            _sigma(thm, EXACT_IDENTITY_TOL)] + [
            _sigma(f, EXACT_FD_TOL) for f in fds]
        return Outcome({
            "h": [rep.h1, rep.h1_prime, rep.h2],
            "vol": [[v.value, v.std_error, v.exact] for v in vols],
            "thmI": thm,
            "form": list(form.coeffs),
            "fd": fds,
        }, sigmas)

    def check(out):
        a = sx.from_centers_radii(centers, radii)
        d = out.data
        probs = []
        if d["h"][0] is not True:
            probs.append((None, f"check_hypotheses h1={d['h'][0]} on an "
                                "H1 draw"))
        for k, (c, (value, sigma, _)) in enumerate(zip(cham, d["vol"])):
            probs += _oracle_problems(sx, a, c, k, value, sigma, None)
        if all(exact for _, _, exact in d["vol"]):
            probs += _partition_problems(
                centers, radii,
                {s: v[0] for s, v in zip(MINUS_CHAMBERS, d["vol"])})
        probs += _report_problems("theorem I ", d["thmI"], EXACT_IDENTITY_TOL)
        for key, f in zip(sx.param_basis(2), d["fd"]):
            probs += _report_problems(f"fd {key} ", f, EXACT_FD_TOL)
        return probs

    return Item(f"h1[{idx}]", "planar_h1", run, check)


def _planar_gap_item(sx, idx, centers, radii):
    allp = sx.Chamber.all_plus(2)
    simplex = abs(float(np.linalg.det(centers[:-1] - centers[-1]))) / 2.0

    def run():
        a = sx.from_centers_radii(centers, radii)
        try:
            v = sx.chamber_volume(a, allp, FALLBACK_SAMPLES, sx.Rng(21))
            thm = _rep_data(sx.check_theorem_II_i(a, FALLBACK_SAMPLES,
                                                  sx.Rng(22)))
            dec = _rep_data(sx.check_decomposition(a, FALLBACK_SAMPLES,
                                                   sx.Rng(23)))
        except (sx.HypothesisError, sx.IndeterminateSignError) as e:
            # declining an input without a certified gap is a valid answer
            return Outcome({"refused": type(e).__name__})
        return Outcome({"gap": [v.value, v.std_error, v.exact],
                        "thmII": thm, "decomposition": dec},
                       [v.std_error, _sigma(thm, EXACT_IDENTITY_TOL),
                        _sigma(dec, EXACT_IDENTITY_TOL)])

    def check(out):
        d = out.data
        if "refused" in d:
            return []
        value, sigma, exact = d["gap"]
        # an exact gap area that is wrong is the ROADMAP 3(b) defect
        tag = "3b" if exact else None
        probs = []
        if not 0.0 <= value <= simplex:
            probs.append((tag, f"+++ area {value:.6g} outside "
                               f"[0, {simplex:.6g}]"))
        probs += _oracle_problems(sx, sx.from_centers_radii(centers, radii),
                                  allp, 0, value, sigma, tag)
        probs += _report_problems("theorem II ", d["thmII"],
                                  EXACT_IDENTITY_TOL)
        probs += _report_problems("decomposition ", d["decomposition"],
                                  EXACT_IDENTITY_TOL)
        return probs

    return Item(f"gap[{idx}]", "planar_gap", run, check)


def planar_closed(sx, seed):
    gen = np.random.default_rng([seed, 1])
    base = simplex_centers(2)
    h1 = []
    for i in range(H1_DRAWS):
        # the jittered-equilateral H1 distribution of tests/conftest.py
        c, r = draw(gen, base, 1.0, 0.12, 0.08, "h1")
        h1.append(_planar_h1_item(sx, i, c, r))
    gaps = []
    for i in range(GAP_DRAWS):
        # wide enough that some H1' draws have no real gap (ROADMAP 3b)
        c, r = draw(gen, base, 0.8, 0.25, 0.15, "h1p")
        gaps.append(_planar_gap_item(sx, i, c, r))
    per = GAP_DRAWS // H1_DRAWS
    items = []
    for i, item in enumerate(h1):
        items += [item] + gaps[per * i:per * (i + 1)]
    return Workload("planar_closed", items, tail_pct=95.0)


# ---------------------------------------------------------------------------
# space_identity: n >= 3 identity checks, Monte Carlo at fixed sample counts
# ---------------------------------------------------------------------------

N3_SAMPLES = 100_000
GAP3_SAMPLES = 50_000
GAP3_RADIUS = 0.89
N4_SAMPLES = 30_000
GB_SAMPLES = 1_000_000
#: the jittered n=3 draws are fixed; the run seed picks the MC streams,
#: since the sigma of a jittered draw varies several-fold between draws
N3_JITTER_SEED = 2024
N3_JITTER_DRAWS = 4


def _report_item(sx, name, kind, sigma_target, fn, fd=False):
    """An item whose answer is one identity report (or FD report if `fd`)."""
    to_data, exact_tol = ((_fd_data, EXACT_FD_TOL) if fd
                          else (_rep_data, EXACT_IDENTITY_TOL))

    def run():
        try:
            d = to_data(fn())
        except sx.FdNoiseError as e:
            return Outcome({"fd_noise": str(e)})
        return Outcome(d, [_sigma(d, exact_tol)])

    def check(out):
        if "fd_noise" in out.data:
            return [(None, "FdNoiseError: " + out.data["fd_noise"])]
        return _report_problems("", out.data, exact_tol)

    return Item(name, kind, run, check, sigma_target)


def space_identity(sx, seed):
    def arr(c, r):
        return lambda: sx.from_centers_radii(c, r)

    def item(name, kind, sigma_target, fn):
        items.append(_report_item(sx, name, kind, sigma_target, fn))

    tet = arr(simplex_centers(3), [1.0] * 4)
    items = []
    # sigma* is about the seed commit's sigma at these sample counts
    for k, (ch, target) in enumerate((("----", 7e-3), ("---+", 1e-2),
                                      ("--++", 2e-2), ("-+++", 5e-2))):
        c = sx.Chamber.from_string(ch)
        item(f"thmI_tet[{ch}]", "thmI_n3", target,
             lambda c=c, k=k: sx.check_theorem_I_i(
                 tet(), N3_SAMPLES, sx.Rng(seed, 100 + k), chamber=c))
    gen = np.random.default_rng(N3_JITTER_SEED)
    for i in range(N3_JITTER_DRAWS):
        a = arr(*draw(gen, simplex_centers(3), 1.0, 0.12, 0.08, "h1"))
        item(f"thmI_jit[{i}]", "thmI_n3", 5e-3,
             lambda a=a, i=i: sx.check_theorem_I_i(
                 a(), N3_SAMPLES, sx.Rng(seed, 200 + i)))
    gap = arr(simplex_centers(3), [GAP3_RADIUS] * 4)
    item("thmII_gap", "thmII_n3", 5e-3,
         lambda: sx.check_theorem_II_i(gap(), GAP3_SAMPLES,
                                       sx.Rng(seed, 300)))
    item("decomposition_gap", "decomposition_n3", 1.5e-3,
         lambda: sx.check_decomposition(gap(), GAP3_SAMPLES,
                                        sx.Rng(seed, 301)))
    simplex4 = arr(simplex_centers(4), [1.0] * 5)
    item("thmI_n4", "thmI_n4", 4e-3,
         lambda: sx.check_theorem_I_i(simplex4(), N4_SAMPLES,
                                      sx.Rng(seed, 400)))
    item("gauss_bonnet_tet", "gauss_bonnet", 8e-4,
         lambda: sx.check_gauss_bonnet_n3(
             sx.config_matrix(sx.restrict_to_unit_sphere(tet())),
             GB_SAMPLES, sx.Rng(seed, 500)))
    return Workload("space_identity", items, tail_pct=75.0)


# ---------------------------------------------------------------------------
# space_variation: n = 3 one-forms against central finite differences
# ---------------------------------------------------------------------------

FD_EPS = 1e-2
FD_EUCLID_SAMPLES = 200_000
#: the unit-sphere differences need a wider step and, for the offset
#: entries, more samples: at eps 1e-2 and 5e5 samples the paired noise of
#: a01 is 0.6 of its coefficient, so FdNoiseError would fire by chance
FD_SPHERE_EPS = 3e-2
FD_SPHERE_SAMPLES = {"a0": 2_000_000, "a": 500_000}
#: sigma* per parameter: about the seed commit's sigma at these settings
FD_SIGMA_TARGET = {
    "r1": 1.4e-3, "r2": 1.4e-3, "r3": 1.4e-3, "r4": 1.4e-3,
    "d12": 7e-4, "d13": 7e-4, "d14": 7e-4, "d23": 9e-4, "d24": 9e-4,
    "d34": 1.25e-3,
    "a01": 5e-3, "a02": 3.3e-3, "a03": 1.7e-3,
    "a12": 8e-3, "a13": 6.5e-3, "a23": 6.5e-3,
}


def space_variation(sx, seed):
    # fixed geometry, seeded MC streams: the FD sigma of a jittered
    # tetrahedron varies by tens of percent between draws
    def tet():
        return sx.from_centers_radii(simplex_centers(3), [1.0] * 4)

    def unit_sphere():
        return sx.config_matrix(sx.restrict_to_unit_sphere(tet()))

    allm = sx.Chamber.all_minus(3)
    items = []
    for i, key in enumerate(sx.param_basis(3)):
        name = "".join(map(str, key))
        items.append(_report_item(
            sx, "euclidean:" + name, "fd_euclidean", FD_SIGMA_TARGET[name],
            lambda key=key, i=i: sx.verify_variation_fd(
                "euclidean", tet(), allm, key, FD_EPS, FD_EUCLID_SAMPLES,
                sx.Rng(seed, 600 + i)), fd=True))
    for i, key in enumerate(sx.config_basis(3)):
        name = "".join(map(str, key))
        items.append(_report_item(
            sx, "unit-sphere:" + name, "fd_unit_sphere",
            FD_SIGMA_TARGET[name],
            lambda key=key, i=i: sx.verify_variation_fd(
                "unit-sphere", unit_sphere(), None, key, FD_SPHERE_EPS,
                FD_SPHERE_SAMPLES[key[0]], sx.Rng(seed, 700 + i)), fd=True))
    return Workload("space_variation", items, tail_pct=75.0)


# ---------------------------------------------------------------------------
# cli_cold: one fresh interpreter per command
# ---------------------------------------------------------------------------

CLI_COMMANDS = (
    ("check",),
    ("volume",),
    ("identity", "--which", "thmI"),
    ("variation",),
)


def _cli_expected(sx, obj, cmd):
    """The CLI's answer and exit code, computed with the API in this process.

    Uses the CLI's defaults: all-minus chamber, 10^6 samples, seed 0,
    eps 1e-4, every parameter.
    """
    a = sx.arrangement_from_json(obj)
    allm = sx.Chamber.all_minus(a.n)
    if cmd[0] == "check":
        rep = sx.check_hypotheses(a)
        ok = (rep.h1 is True and rep.h2 is not False) or rep.h1_prime is True
        return {"h": [rep.h1, rep.h1_prime, rep.h2],
                "subsets": [[r.plain, r.starred] for r in rep.table]}, \
            0 if ok else 2
    if cmd[0] == "volume":
        v = sx.chamber_volume(a, allm, 1_000_000, sx.Rng(0))
        return {"value": v.value, "exact": v.exact}, 0
    if cmd[0] == "identity":
        rep = sx.check_theorem_I_i(a, 1_000_000, sx.Rng(0))
        return {"lhs": rep.lhs, "rhs": rep.rhs}, 0 if rep.passed else 2
    reps = [sx.verify_variation_fd("euclidean", a, allm, key, 1e-4,
                                   1_000_000, sx.Rng(0).substream(100 + i))
            for i, key in enumerate(sx.param_basis(a.n))]
    return {"rows": [[r.fd_value, r.formula_value] for r in reps]}, \
        0 if all(r.passed for r in reps) else 2


def _cli_summary(cmd, payload):
    """The fields of a CLI JSON payload that `_cli_expected` predicts."""
    if "error" in payload:
        return {"error": payload["error"]}
    if cmd[0] == "check":
        return {"h": [payload["h1"], payload["h1_prime"], payload["h2"]],
                "subsets": [[s["plain"], s["starred"]]
                            for s in payload["subsets"]]}
    if cmd[0] == "volume":
        return {"value": payload["value"], "exact": payload["exact"]}
    if cmd[0] == "identity":
        r = payload["reports"][0]
        return {"lhs": r["lhs"], "rhs": r["rhs"]}
    return {"rows": [[r.get("fd_value"), r.get("formula_value")]
                     for r in payload["rows"]]}


def _matches(got, want) -> bool:
    """Structural equality, floats to 1e-12 relative."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _matches(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _matches(g, w) for g, w in zip(got, want))
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return abs(got - want) <= 1e-12 * max(1.0, abs(want))
    return got == want


def _cli_item(sx, name, obj, cmd, path, env, cwd, run_child):
    argv = list(cmd) + ["--input", path]

    def run():
        code, out, err, rss = run_child(
            [sys.executable, "-m", "sphex.cli"] + argv, env, cwd)
        try:
            payload = json.loads(out)
        except ValueError:
            payload = {"error": {"type": "unparsable output", "message":
                                 err.decode(errors="replace")[-300:]}}
        return Outcome({"code": code, "out": _cli_summary(cmd, payload)},
                       rss_kb=rss)

    def run_inproc():
        with contextlib.redirect_stdout(io.StringIO()):
            return sys.modules["sphex.cli"].main(argv)

    def check(out):
        want, want_code = _cli_expected(sx, obj, cmd)
        probs = []
        if out.data["code"] != want_code:
            probs.append((None, f"exit code {out.data['code']} != {want_code}"))
        if not _matches(out.data["out"], want):
            probs.append((None, "CLI JSON differs from the in-process API"))
        return probs

    return Item(name, "cli", run, check, run_inproc=run_inproc)


def cli_cold(sx, seed, env, workdir, run_child):
    """`env` makes a child import sphex from the checkout's src/.

    `run_child(argv, env, cwd)` runs a child interpreter to completion and
    returns (exit code, stdout, stderr, peak RSS KiB).
    """
    gen = np.random.default_rng([seed, 4])
    c, r = draw(gen, simplex_centers(2), 1.0, 0.12, 0.08, "h1")
    a = sx.from_centers_radii(c, r)
    items = []
    for form, obj in (("centers", sx.arrangement_to_json(a)),
                      ("params", sx.params_to_json(sx.params_of(a)))):
        path = os.path.join(workdir, f"cli-seed{seed}-{form}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        for cmd in CLI_COMMANDS:
            items.append(_cli_item(sx, f"{cmd[0]}[{form}]", obj, cmd, path,
                                   env, workdir, run_child))
    return Workload("cli_cold", items, tail_pct=60.0)


#: the in-process workloads; `cli_cold` also needs a child environment
BUILDERS = {
    "planar_closed": planar_closed,
    "space_identity": space_identity,
    "space_variation": space_variation,
}
