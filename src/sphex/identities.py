"""Numerical verification of the contiguity and pointwise identities.

Each check returns an IdentityReport whose terms always sum (fsum) to
the reported rhs, so a failing identity can be diagnosed per summand.
When every ingredient is closed form, a volume identity's tolerance is
1e-12 of its largest rhs term, so its verdict does not change with the
arrangement's scale; it is 3x the propagated standard error when Monte
Carlo estimates enter the sum.  The volume identities take the chamber
from `chamber_volume` and all faces from one `_faces` call (what
`face_volume` returns face by face), exact wherever a path applies;
the indicator estimators `chamber_volume_mc` and `face_volume_mc` are
independent oracles for tests, not a mode here.

The volume identity for a chamber with sign vector sigma reads

    n * v(chamber) = sum_J c_J * v_J + c_N * sqrt((-1)^(n+1) B(0N)/2^n)

with c_J = -((n-p)!/(n-1)!) * s_J * sqrt((-1)^(p+1) B(0*J)/2^p).  For
the all-minus chamber s_J = (-1)^p and c_N carries (-1)^n/(n-1)!; for
chambers mixing signs each face factor gains (-1)^{|J cap plus|} and
the determinant term gains (-1)^{#plus}.  The all-plus chamber is the
one exception: there s_J = +1 and the determinant term is
+1/(n-1)!, which differs from the mixed-sign extrapolation in the
final term only.  All sign patterns are validated against closed-form
areas at machine precision for n = 2 and against MC for n = 3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arrangement import (
    Chamber,
    _as_arrangement,
    evaluate_f,
    require_hypothesis,
)
from .cayley_menger import CMTable, ConfigMatrix
from .errors import DegenerateConfigError, HypothesisError
from .intersect import intersection_sphere, sphere_angle, vertices
from .volume import (
    AREA_TOL,
    Rng,
    _faces,
    _require_gap,
    _sqrt_starred,
    chamber_volume,
    decomposition_cell_coefficient,
    simplex_volume,
    sphere_arc_lengths,
    sphere_region_area_mc,
    sphere_vertex_counts,
)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check with a per-term breakdown.  `z` is
    3 (lhs - rhs) / tolerance if sampled (tolerance 3 sigma > 0), else None."""

    name: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    terms: tuple  # of (label, value) pairs; fsum of values == rhs
    z: "float | None" = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "z": self.z,
            "terms": [{"label": l, "value": v} for l, v in self.terms],
        }


def _report(name, lhs, terms, tolerance, weighted=()) -> IdentityReport:
    rhs = math.fsum(v for _, v in terms)
    residual = abs(lhs - rhs)
    sampled = tolerance and not all(v.exact for _, v in weighted)
    z = 3.0 * float(lhs - rhs) / tolerance if sampled else None
    return IdentityReport(name, float(lhs), rhs, residual, float(tolerance),
                          bool(residual <= tolerance), tuple(terms), z)


def volume_identity_coefficients(table: CMTable, n: int, c: Chamber):
    """Face coefficients and determinant term of the volume identity.

    Returns (dict J -> coefficient on v_J, value of the determinant
    term), with the sign pattern selected by the chamber as described
    in the module docstring; HypothesisError if a root has the wrong
    sign (`CMTable.signed`).
    """
    plus = set(c.plus_set())
    all_plus = len(plus) == n + 1
    coefs = {}
    for p in range(1, n + 1):
        base = -math.factorial(n - p) / math.factorial(n - 1)
        for J in itertools.combinations(range(1, n + 2), p):
            w = base * _sqrt_starred(table, J)
            if not all_plus:
                w *= (-1) ** p * (-1) ** len(plus & set(J))
            coefs[J] = w
    final = math.sqrt(table.signed(("0",) + tuple(range(1, n + 2)),
                                   HypothesisError, "simplex term")
                      / 2 ** n) / math.factorial(n - 1)
    if not all_plus:
        final *= (-1) ** n * (-1) ** len(plus)
    return coefs, final


def _label(J) -> str:
    return "S_" + "".join(str(j) for j in J)


def _tolerance(weighted, terms=()) -> float:
    """1e-12 x the largest |value| of the rhs `terms` (label, value), a
    scale-free bound, if every (weight, VolumeEstimate) pair is exact;
    else 3x the propagated standard error."""
    if all(v.exact for _, v in weighted):
        return 1e-12 * max((abs(v) for _, v in terms), default=0.0)
    return 3.0 * math.sqrt(sum((w * v.std_error) ** 2 for w, v in weighted))


def _check_volume_identity(name, a, c, samples, rng):
    coefs, final = volume_identity_coefficients(
        CMTable.from_arrangement(a), a.n, c)
    Js = sorted(coefs, key=lambda t: (len(t), t))
    weighted = [(a.n, chamber_volume(a, c, samples, rng.substream(0)))]
    faces = _faces(a, c, {J: rng.substream(s) for s, J in enumerate(Js, 1)},
                   samples)
    weighted += [(coefs[J], faces[J]) for J in Js]
    terms = [(_label(J), w * v.value) for J, (w, v) in zip(Js, weighted[1:])]
    terms.append(("simplex", final))
    return _report(name, a.n * weighted[0][1].value, terms,
                   _tolerance(weighted, terms), weighted)


def check_theorem_I_i(a, samples: int = 1_000_000, rng: Rng = Rng(0),
                      chamber: "Chamber | None" = None) -> IdentityReport:
    """n * v(chamber) against the face-volume expansion, default all-minus.

    Closed-form volumes and arcs are used for n = 2 (tolerance
    1e-12 of the largest term).
    Otherwise `chamber_volume` integrates exactly along `samples` random
    lines through an interior point, faces come from `_faces` (exact
    up to dimension 2, conditional MC above), and the tolerance is 3x
    the propagated standard error.
    `chamber` may be any sign vector with at least one minus entry; the
    all-plus case has its own sign pattern and check.  Needs H1, else
    HypothesisError (IndeterminateSignError if H1 is unresolved).
    `a` may be an Arrangement or a ParamVector, as in the gap checks.
    """
    a = _as_arrangement(a)
    c = chamber if chamber is not None else Chamber.all_minus(a.n)
    if not c.minus_set():
        raise ValueError("all-plus chamber: use check_theorem_II_i")
    require_hypothesis(a, "h1", "theorem I does not apply")
    return _check_volume_identity("theorem_I_i", a, c, samples, rng)


def check_theorem_II_i(a, samples: int = 1_000_000,
                       rng: Rng = Rng(0)) -> IdentityReport:
    """The all-plus (gap chamber) volume identity; needs H1' and a
    certified gap: positive gap arcs at n = 2, gap faces (k,) of
    positive area at n = 3.  At n = 2 the lhs area reads the pair
    angles, the rhs the gap arcs, vertex counts and B(0*jk)."""
    a = _as_arrangement(a)
    _require_gap(a, "theorem II does not apply")
    return _check_volume_identity("theorem_II_i", a, Chamber.all_plus(a.n),
                                  samples, rng)


def check_decomposition(a, samples: int = 1_000_000,
                        rng: Rng = Rng(0)) -> IdentityReport:
    """Closure of the cone-cell decomposition of the center simplex.

    lhs is the simplex volume; the terms are the cone cells over every
    face of the gap chamber plus the gap chamber itself (at n = 2 the
    cells read the gap arcs and vertex counts, the gap the pair angles).
    Needs H1' and a certified gap, as `check_theorem_II_i` does.
    """
    a = _as_arrangement(a)
    _require_gap(a, "the decomposition does not apply")
    lhs = simplex_volume(a)
    c = Chamber.all_plus(a.n)
    Js = [J for p in range(1, a.n + 1)
          for J in itertools.combinations(range(1, a.n + 2), p)]
    faces = _faces(a, c, {J: rng.substream(s) for s, J in enumerate(Js)},
                   samples)
    weighted = [(decomposition_cell_coefficient(a, J), faces[J]) for J in Js]
    weighted.append((1.0, chamber_volume(a, c, samples,
                                         rng.substream(len(Js)))))
    terms = [("cell_" + _label(J), w * v.value)
             for J, (w, v) in zip(Js, weighted)]
    terms.append(("gap", weighted[-1][1].value))
    return _report("decomposition", lhs, terms, _tolerance(weighted, terms),
                   weighted)


def check_lemma5_pointwise(a, x) -> IdentityReport:
    """Pointwise n-form identity at a point off all spheres.

    lhs alternates minors of the gradient rows divided by products of
    the f values; rhs is the weighted combination of mixed determinants
    divided by the same products, with prefactor
    2^n (-1)^(n+1) sign(det(O_j - O_{n+1})) / sqrt(2^n B(0N)).  The lhs
    changes sign with the orientation of the center simplex (relabel two
    spheres) and the determinants do not, hence the orientation sign.
    The check is scale-free: a point with |f_j| < 1e-9 max r^2 counts as
    on a sphere, and the tolerance is 1e-10 times the sum of the |lhs|
    summands.  IndeterminateSignError if B(0N) has no sign (dependent
    centers).
    """
    x = np.asarray(x, dtype=float)
    n = a.n
    if x.shape != (n,):
        raise ValueError(f"point must have {n} coordinates")
    N = tuple(range(1, n + 2))
    f = {j: evaluate_f(a, j, x) for j in N}
    if min(abs(v) for v in f.values()) < 1e-9 * float(np.max(a.radii)) ** 2:
        raise DegenerateConfigError("point lies on (or too near) a sphere")
    grads = {j: 2.0 * (x - a.center(j)) for j in N}
    lhs_parts = []
    for nu in N:
        rows = np.array([grads[j] for j in N if j != nu])
        prod = math.prod(f[j] for j in N if j != nu)
        lhs_parts.append((-1) ** (nu - 1) * float(np.linalg.det(rows)) / prod)
    lhs = math.fsum(lhs_parts)
    table = CMTable.from_arrangement(a)
    plain = table.signed(("0",) + N, DegenerateConfigError,
                         "center simplex")
    # plain is beyond the band, so the simplex's orientation is resolved
    turn = 1 if np.linalg.det(a.centers[:-1] - a.centers[-1]) > 0 else -1
    pref = 2 ** n * ((-1) ** (n + 1) * turn) / math.sqrt(2 ** n * plain)
    terms = []
    for nu in N:
        dN = tuple(j for j in N if j != nu)
        mixed = table.chain(("0", "*") + dN, ("0", nu) + dN)
        prod = math.prod(f[j] for j in dN)
        terms.append((f"face_{nu}", -pref * mixed / prod))
    starred_full = table.chain(("0", "*") + N, ("0", "*") + N)
    terms.append(("full", pref * starred_full / math.prod(f.values())))
    tolerance = 1e-10 * math.fsum(abs(v) for v in lhs_parts)
    return _report("lemma5_pointwise", lhs, terms, tolerance)


def check_prop4_residue(a, J, trials: int = 20,
                        rng: Rng = Rng(0)) -> IdentityReport:
    """Constancy of the face-form normalizing determinant on S_J.

    At sampled points of S_J, the determinant of the p gradient rows
    stacked with an orthonormal tangent frame has constant absolute
    value sqrt((-1)^(p-1) 2^p B(0*J)); the printed residue constant is
    its reciprocal up to an orientation sign.  Passing requires both
    the match to the constant (1e-9 relative) and constancy across the
    samples (std below 1e-10 of the constant), so any rescaled copy of
    the arrangement gets the same verdict.  S_J must exist
    (`intersection_sphere`).
    """
    J = tuple(sorted(J))
    p = len(J)
    sub = intersection_sphere(a, J)
    table = CMTable.from_arrangement(a)
    const = 2 ** p * _sqrt_starred(table, J)     # sqrt(2^p |B(0*J)|)
    V = sub.basis.T  # (n, n-p+1)
    k = V.shape[1]
    gen = rng.generator(0)
    vals = []
    for _ in range(max(1, trials)):
        g = gen.normal(size=k)
        # complete g to an orthonormal basis of R^k, as `_fibre_frame`
        # does; the other columns, mapped into S_J's span, are tangent
        q, _ = np.linalg.qr(np.column_stack([g, np.eye(k)]))
        x = sub.center + sub.radius * (V @ (g / np.linalg.norm(g)))
        rows = [2.0 * (x - a.center(j)) for j in J]
        rows += list((V @ q[:, 1:]).T)
        vals.append(abs(float(np.linalg.det(np.array(rows)))))
    vals = np.array(vals)
    worst = float(vals[np.argmax(np.abs(vals - const))])
    residual = float(np.max(np.abs(vals - const)))
    spread = float(np.std(vals))
    tolerance = 1e-9 * const
    passed = residual <= tolerance and spread <= 1e-10 * const
    name = "prop4_residue_" + "".join(str(j) for j in J)
    return IdentityReport(name, worst, const, residual, tolerance,
                          passed, (("constant", const),))


def check_prop6_values(a, j: int) -> IdentityReport:
    """Closed forms for 1/f_j at the two vertices of the opposite face.

    Checks the two vertex values (negative at P, positive at P') and
    their product against the determinant expressions; residual is the
    worst relative error of the three.  The signs assume H1:
    HypothesisError unless H1 holds (IndeterminateSignError if it is
    unresolved), before the vertices are sought.
    """
    n = a.n
    N = tuple(range(1, n + 2))
    dN = tuple(k for k in N if k != j)
    require_hypothesis(a, "h1", "the vertex signs of proposition 6 need it")
    vp = vertices(a, j)
    fP = evaluate_f(a, j, vp.P)
    fPp = evaluate_f(a, j, vp.P_prime)
    table = CMTable.from_arrangement(a)
    # B(0*dN) B(0N): both have size n + 2, so one sign under H1
    root = math.sqrt(math.prod(
        table.signed(c, HypothesisError, "vertex values")
        for c in (("0", "*") + dN, ("0",) + N)))
    Bmix = table.chain(("0", "*") + dN, ("0", j) + dN)
    BsN = table.chain(("0", "*") + N, ("0", "*") + N)
    BdN = table.chain(("0",) + dN, ("0",) + dN)
    closP = ((-1) ** (n + 1) * root + Bmix) / BsN
    closPp = ((-1) ** n * root + Bmix) / BsN
    closProd = -BdN / BsN
    residual = max(
        abs(1.0 / fP - closP) / abs(closP),
        abs(1.0 / fPp - closPp) / abs(closPp),
        abs(1.0 / (fP * fPp) - closProd) / abs(closProd),
    )
    tolerance = 1e-9
    passed = residual <= tolerance and closP < 0 < closPp
    return IdentityReport(f"prop6_values_{j}", 1.0 / fP, closP,
                          float(residual), tolerance, bool(passed),
                          (("vertex_value", closP),))


def check_gauss_bonnet_n3(m: ConfigMatrix, samples: int = 1_000_000,
                          rng: Rng = Rng(0)) -> IdentityReport:
    """Spherical region area against its boundary-integral closed form.

    lhs is the area of the region cut by the planes on the unit
    2-sphere, from `sphere_region_area_mc`: exact, by Stokes' theorem
    over the region's boundary arcs, so `samples` and `rng` are not
    used.  rhs combines the Euler term 2 pi, the offset-weighted
    boundary arc lengths, and the exterior angles at the vertices, all
    computed exactly from circle geometry.  The tolerance is the area's
    accuracy `AREA_TOL`.
    """
    if m.n != 3:
        raise ValueError("this check is specific to n = 3")
    est = sphere_region_area_mc(m, samples, rng)
    arcs = sphere_arc_lengths(m)
    counts = sphere_vertex_counts(m)
    terms = [("euler", 2.0 * math.pi)]
    for j in (1, 2, 3):
        terms.append((f"arc_{j}", -m.offset(j) * arcs[j]))
    for j, k in itertools.combinations((1, 2, 3), 2):
        cnt = counts[(j, k)]
        if cnt:
            ang = sphere_angle(m, j, k)
            terms.append((f"vertex_{j}{k}", -cnt * (math.pi - ang)))
        else:
            terms.append((f"vertex_{j}{k}", 0.0))
    return _report("gauss_bonnet_n3", est.value, terms, AREA_TOL)
