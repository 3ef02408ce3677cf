"""Hypersphere arrangements and their parameter coordinates.

An arrangement is a set of n+1 spheres S_1..S_{n+1} in R^n, stored as
centers O_j and radii r_j with 1-based indices.  Every determinant and
volume downstream depends on the configuration only through the squared
radii r_j^2 and squared center distances rho_jk^2, so this module also
provides that coordinate system (`ParamVector`), the classical
multidimensional-scaling reconstruction of centers from it
(`from_params`), and the normalized coordinates in which sphere n+1
sits at the origin and the center matrix is triangular (`normalize`).

Sign conventions: the defining function of sphere j is
f_j(x) = |x - O_j|^2 - r_j^2, negative inside.  In normalized
coordinates the coefficient alpha_{j,nu} of 2 x_nu in f_j equals
-O_{j,nu}, and the normalization makes alpha_{j,n+1-j} > 0, i.e. the
last nonzero center coordinate negative.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .cayley_menger import CMTable, _stored, hadamard_scale
from .errors import (
    DegenerateConfigError,
    HypothesisError,
    IndeterminateSignError,
    NonRealizableError,
)

SIGN_TOL = 1e-9


def _frozen(arr):
    a = np.array(arr, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Arrangement:
    """n+1 spheres in R^n: centers (n+1, n), radii (n+1,), distances."""

    n: int
    centers: np.ndarray
    radii: np.ndarray
    dist: np.ndarray
    #: quantities derived from the arrangement, computed once (`_stored`)
    _store: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def center(self, j: int) -> np.ndarray:
        return self.centers[j - 1]

    def radius(self, j: int) -> float:
        return float(self.radii[j - 1])

    def distance(self, j: int, k: int) -> float:
        return float(self.dist[j - 1, k - 1])

    @property
    def indices(self):
        return tuple(range(1, self.n + 2))


@dataclass(frozen=True)
class Chamber:
    """A sign choice per sphere: -1 selects the inside, +1 the outside."""

    signs: tuple

    def __post_init__(self):
        if not self.signs or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("chamber signs must be a non-empty tuple of -1/+1")

    @classmethod
    def from_string(cls, s: str) -> "Chamber":
        try:
            return cls(tuple({"-": -1, "+": 1}[ch] for ch in s.strip()))
        except KeyError:
            raise ValueError(f"chamber string {s!r} must consist of '+' and '-'")

    @classmethod
    def all_minus(cls, n: int) -> "Chamber":
        return cls((-1,) * (n + 1))

    @classmethod
    def all_plus(cls, n: int) -> "Chamber":
        return cls((1,) * (n + 1))

    def sign(self, j: int) -> int:
        return self.signs[j - 1]

    def minus_set(self):
        return tuple(j for j, s in enumerate(self.signs, start=1) if s < 0)

    def plus_set(self):
        return tuple(j for j, s in enumerate(self.signs, start=1) if s > 0)

    def __str__(self):
        return "".join("-" if s < 0 else "+" for s in self.signs)


@dataclass(frozen=True)
class ParamVector:
    """The squared-parameter coordinates (r_j^2, rho_jk^2) of an arrangement.

    `radii_sq` has n+1 entries; `dist_sq` is the full symmetric
    (n+1, n+1) matrix with zero diagonal.  Basis keys are ("r", j) for
    d r_j^2 and ("d", j, k) with j < k for d rho_jk^2.
    """

    n: int
    radii_sq: np.ndarray
    dist_sq: np.ndarray
    #: its `CMTable` and `from_params` reconstruction, computed once
    _store: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        m = self.n + 1
        if self.radii_sq.shape != (m,) or self.dist_sq.shape != (m, m):
            raise ValueError("parameter arrays have wrong shape")
        if np.any(self.radii_sq <= 0):
            raise ValueError("all squared radii must be positive")
        off = self.dist_sq[~np.eye(m, dtype=bool)]
        if np.any(off <= 0):
            raise ValueError("all squared distances must be positive")
        if np.max(np.abs(self.dist_sq - self.dist_sq.T)) != 0:
            raise ValueError("squared-distance matrix must be symmetric")

    def get(self, key) -> float:
        if key[0] == "r":
            return float(self.radii_sq[key[1] - 1])
        if key[0] == "d":
            return float(self.dist_sq[key[1] - 1, key[2] - 1])
        raise KeyError(key)

    def with_entry(self, key, value: float) -> "ParamVector":
        r2 = np.array(self.radii_sq)
        d2 = np.array(self.dist_sq)
        if key[0] == "r":
            r2[key[1] - 1] = value
        elif key[0] == "d":
            d2[key[1] - 1, key[2] - 1] = d2[key[2] - 1, key[1] - 1] = value
        else:
            raise KeyError(key)
        return ParamVector(self.n, _frozen(r2), _frozen(d2))


@dataclass(frozen=True)
class RigidTransform:
    """x -> (x - translation) @ rotation, mapping old to new coordinates."""

    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, x) -> np.ndarray:
        return (np.asarray(x, float) - self.translation) @ self.rotation


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def from_centers_radii(centers, radii) -> Arrangement:
    """Build an arrangement; computes the distance matrix, checks nothing else."""
    C = np.asarray(centers, float)
    r = np.asarray(radii, float)
    if C.ndim != 2:
        raise ValueError("centers must be a list of points")
    m, n = C.shape
    if m != n + 1:
        raise ValueError(f"need n+1 points of dimension n, got {m} points in R^{n}")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if r.shape != (m,):
        raise ValueError("need one radius per center")
    if np.any(r <= 0):
        raise ValueError("radii must be positive")
    diff = C[:, None, :] - C[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    return Arrangement(n, _frozen(C), _frozen(r), _frozen(dist))


def params_of(a: Arrangement) -> ParamVector:
    """The squared parameters of `a`: one `ParamVector` per arrangement,
    built on first use and stored on it, so its `CMTable` is shared too.
    Squared distances are sums of squared coordinate differences, not
    squares of `a.dist`, which would round twice."""
    def build():
        diff = a.centers[:, None, :] - a.centers[None, :, :]
        return ParamVector(a.n, _frozen(a.radii ** 2),
                           _frozen((diff * diff).sum(axis=2)))

    return _stored(a, "params", build)


def from_params(p: ParamVector, n: int) -> Arrangement:
    """Reconstruct an embedding from squared parameters in a fixed gauge.

    Classical multidimensional scaling with base point n+1: the Gram
    matrix G_jk = (d_{j,n+1}^2 + d_{k,n+1}^2 - d_jk^2)/2 of the centers
    relative to O_{n+1} must be positive semidefinite of full rank n.
    The gauge places O_{n+1} at the origin, O_n on the positive first
    axis, O_{n-1} in the span of the first two axes with positive second
    coordinate, and so on.  Stored on `p`: one arrangement per vector.
    """
    if p.n != n:
        raise ValueError("parameter vector dimension mismatch")
    return _stored(p, "from_params", lambda: _reconstruct(p, n))


def _reconstruct(p: ParamVector, n: int) -> Arrangement:
    m = n + 1
    d2 = p.dist_sq
    G = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            G[j, k] = 0.5 * (d2[j, m - 1] + d2[k, m - 1] - d2[j, k])
    scale = float(np.max(np.abs(G)))
    w, V = np.linalg.eigh(G)
    if w[0] < -SIGN_TOL * scale:
        raise NonRealizableError(
            f"distance set is not realizable in R^{n} "
            f"(Gram eigenvalue {w[0]:.3e})")
    small = w < SIGN_TOL * scale
    if np.any(small):
        raise DegenerateConfigError(
            "degenerate configuration: center Gram matrix has rank "
            f"{int(np.sum(~small))} < {n}")
    X = V * np.sqrt(w)              # rows = O_1..O_n relative to O_{n+1}
    centers = np.vstack([X, np.zeros(n)])
    centers, _ = _gauge(centers, n, diag_sign=+1.0)
    return from_centers_radii(centers, np.sqrt(p.radii_sq))


def _gauge(centers, n, diag_sign):
    """Rotate so O_{n+1-i} has support in the first i coordinates.

    The diagonal entry (coordinate i of O_{n+1-i}) gets sign
    `diag_sign`.  O_{n+1} must already be at the origin.
    """
    X = np.array([centers[n - i] for i in range(1, n + 1)])  # O_n, O_{n-1}, ..
    Q, R = np.linalg.qr(X.T)
    d = np.ones(n)
    for i in range(n):
        if R[i, i] * diag_sign < 0:
            d[i] = -1.0
    W = Q * d
    return centers @ W, W


def normalize(a: Arrangement):
    """Move an arrangement into the triangular normalized coordinates.

    Returns (normalized arrangement, transform).  Sphere n+1 is centered
    at the origin; sphere j's center is supported on the first n+1-j
    coordinates with its last nonzero coordinate negative (so the
    corresponding defining-function coefficient alpha_{j,n+1-j} is
    positive).  Radii and distances are preserved exactly.
    """
    require_hypothesis(a, "h1", "normalization undefined")
    n = a.n
    shifted = a.centers - a.centers[n]
    new, W = _gauge(shifted, n, diag_sign=-1.0)
    scale = float(np.max(np.abs(shifted)))
    # pivot i is coordinate i of O_{n+1-i}, the QR diagonal
    for i in range(1, n + 1):
        if abs(new[n - i, i - 1]) < 1e-10 * scale:
            raise DegenerateConfigError(
                f"near-degenerate triangularization at sphere {n + 1 - i}")
    b = from_centers_radii(new, a.radii)
    return b, RigidTransform(_frozen(W), _frozen(a.centers[n]))


def restrict_to_unit_sphere(a: Arrangement) -> Arrangement:
    """Similarity-map the arrangement so sphere n+1 is the unit sphere at 0.

    Translates by -O_{n+1} and rescales by 1/r_{n+1}; all radii and
    distances scale accordingly.  This is the precondition for the
    configuration-matrix model.
    """
    s = 1.0 / a.radius(a.n + 1)
    centers = (a.centers - a.centers[a.n]) * s
    return from_centers_radii(centers, a.radii * s)


# ---------------------------------------------------------------------------
# pointwise predicates
# ---------------------------------------------------------------------------


def evaluate_f(a: Arrangement, j: int, x):
    """f_j(x) = |x - O_j|^2 - r_j^2; negative inside sphere j.

    A float for one point x of shape (n,), an array (N,) for points
    (N, n); each point's value is the same float either way.
    """
    x = np.asarray(x, float)
    if x.ndim not in (1, 2) or x.shape[-1] != a.n:
        raise ValueError(f"point must have dimension {a.n}")
    d = np.atleast_2d(x) - a.center(j)
    f = np.einsum("ij,ij->i", d, d) - a.radius(j) ** 2
    return float(f[0]) if x.ndim == 1 else f


def _check_chamber(a: Arrangement, c: Chamber):
    if len(c.signs) != a.n + 1:
        raise ValueError("chamber length must be n+1")


def chamber_contains(a: Arrangement, c: Chamber, x, tol: float = 0.0) -> bool:
    """Sign test per sphere; boundary points belong to both closed sides."""
    _check_chamber(a, c)
    for j in range(1, a.n + 2):
        if c.sign(j) * evaluate_f(a, j, x) < -tol:
            return False
    return True


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetSigns:
    """Determinant signs for one index subset, in the H1 reading.

    `plain` is B(0 J) with required sign (-1)^p, `starred` is B(0*J)
    with required sign (-1)^(p+1); statuses are "pass", "fail" or
    "indeterminate".
    """

    subset: tuple
    plain: float
    starred: float
    plain_status: str
    starred_status: str


@dataclass
class HypothesisReport:
    h1: "bool | None"
    h1_prime: "bool | None"
    h2: "bool | None"
    table: list
    h2_details: list = field(default_factory=list)
    #: sign-table determinants whose LU met a degraded pivot
    #: (`CMTable.flagged`)
    pivot_warnings: list = field(default_factory=list)

    def indeterminate_subsets(self):
        out = []
        for row in self.table:
            if "indeterminate" in (row.plain_status, row.starred_status):
                out.append(row.subset)
        return out


def _status(value: float, required_sign: int, tol: float) -> str:
    if abs(value) < tol:
        return "indeterminate"
    return "pass" if value * required_sign > 0 else "fail"


def _combine(statuses) -> "bool | None":
    if any(s == "fail" for s in statuses):
        return False
    if any(s == "indeterminate" for s in statuses):
        return None
    return True


def check_hypotheses(a: Arrangement, h2: str = "auto") -> HypothesisReport:
    """Evaluate the determinant-sign hypotheses and the vertex condition.

    For every nonempty subset J the signs of (-1)^p B(0 J) and
    (-1)^(p+1) B(0*J) are tabulated.  H1 requires all of them positive
    up to p = n+1.  H1' keeps the conditions through p = n and the
    full-set plain condition, but requires (-1)^n B(0*N) < 0 instead of
    > 0.  H2 looks at the designated coordinate x_{n+1-j} of the vertex
    P_j in normalized coordinates, for j = 1..n; pass `h2="skip"` to
    omit it (used internally to avoid recursion through normalize).

    Values whose magnitude is below 1e-9 times a Hadamard-type bound of
    the same degree in length are reported indeterminate rather than
    pass/fail, whatever the arrangement's scale.  The sign table and the
    H1/H1' verdicts are stored on `a`; each call returns a new report,
    which lists the sign table's determinants whose LU met a degraded
    pivot.
    """
    rows, h1, h1_prime, flagged = _stored(a, "signs", lambda: _sign_table(a))
    h2_val = None
    h2_details = []
    if h2 != "skip" and h1:
        from . import intersect  # local import: intersect builds on this module

        try:
            na, _ = normalize(a)
            statuses = []
            cscale = float(np.max(np.abs(na.centers)))
            for j in range(1, a.n + 1):
                pair = intersect.vertices(na, j)
                coord = float(pair.P[a.n - j])
                st = _status(coord, -1, SIGN_TOL * cscale)
                h2_details.append((j, coord, st))
                statuses.append(st)
            h2_val = _combine(statuses)
        except (DegenerateConfigError, ValueError):
            h2_val = None
    return HypothesisReport(h1, h1_prime, h2_val, list(rows), h2_details,
                            list(flagged))


def require_hypothesis(a: Arrangement, name: str, what: str):
    """HypothesisError unless hypothesis `name` ("h1" or "h1_prime") holds
    for `a`, IndeterminateSignError if it is unresolved; `what` ends the
    message."""
    verdict = getattr(check_hypotheses(a, h2="skip"), name)
    label = {"h1": "H1", "h1_prime": "H1'"}[name]
    if verdict is None:
        raise IndeterminateSignError(f"{label} indeterminate; {what}")
    if not verdict:
        raise HypothesisError(f"{label} fails; {what}")


def _sign_table(a: Arrangement):
    """(rows, h1, h1_prime, flagged pivots): the h2-free part of
    `check_hypotheses`."""
    table = CMTable.from_arrangement(a)
    n = a.n
    m = n + 1
    rows = []
    for p in range(1, m + 1):
        tol_plain = SIGN_TOL * hadamard_scale(table, p + 1)
        tol_starred = SIGN_TOL * hadamard_scale(table, p + 2)
        for J in itertools.combinations(range(1, m + 1), p):
            plain = table.chain(("0",) + J, ("0",) + J)
            starred = table.chain(("0", "*") + J, ("0", "*") + J)
            rows.append(SubsetSigns(
                J, plain, starred,
                _status(plain, (-1) ** p, tol_plain),
                _status(starred, (-1) ** (p + 1), tol_starred)))
    h1 = _combine([s for r in rows for s in (r.plain_status, r.starred_status)])
    # H1': same through p <= n, plain full-set condition unchanged,
    # starred full-set sign flipped.
    primed = []
    for r in rows:
        if len(r.subset) <= n:
            primed += [r.plain_status, r.starred_status]
        else:
            tol = SIGN_TOL * hadamard_scale(table, m + 2)
            primed.append(r.plain_status)
            # (-1)^n B(0*N) < 0, i.e. the starred full-set sign flips
            primed.append(_status(r.starred, (-1) ** m, tol))
    return tuple(rows), h1, _combine(primed), tuple(table.flagged())


# ---------------------------------------------------------------------------
# serialization (field names are part of the file format)
# ---------------------------------------------------------------------------


def arrangement_to_json(a: Arrangement) -> dict:
    return {
        "n": a.n,
        "centers": [[float(x) for x in row] for row in a.centers],
        "radii": [float(r) for r in a.radii],
    }


def params_to_json(p: ParamVector) -> dict:
    dist = {}
    for j, k in itertools.combinations(range(1, p.n + 2), 2):
        dist[f"{j},{k}"] = float(p.dist_sq[j - 1, k - 1])
    return {
        "n": p.n,
        "radii_sq": [float(v) for v in p.radii_sq],
        "dist_sq": dist,
    }


def _field(obj: dict, name: str):
    try:
        return obj[name]
    except KeyError:
        raise ValueError(f'arrangement JSON is missing field "{name}"') from None


def params_from_json(obj: dict) -> ParamVector:
    n = int(_field(obj, "n"))
    m = n + 1
    r2 = np.asarray(_field(obj, "radii_sq"), float)
    d2 = np.zeros((m, m))
    for key, val in _field(obj, "dist_sq").items():
        j, k = (int(t) for t in key.split(","))
        if not (1 <= j <= m and 1 <= k <= m and j != k):
            raise ValueError(f"bad dist_sq key {key!r}")
        d2[j - 1, k - 1] = d2[k - 1, j - 1] = float(val)
    if np.any(d2[~np.eye(m, dtype=bool)] == 0):
        raise ValueError("dist_sq must cover every pair j<k")
    return ParamVector(n, _frozen(r2), _frozen(d2))


def arrangement_from_json(obj: dict) -> Arrangement:
    """Parse either serialized form; the params form is reconstructed."""
    if "centers" in obj:
        a = from_centers_radii(obj["centers"], _field(obj, "radii"))
        if a.n != int(_field(obj, "n")):
            raise ValueError("field n inconsistent with centers shape")
        return a
    if "radii_sq" in obj:
        p = params_from_json(obj)
        return from_params(p, p.n)
    raise ValueError("arrangement JSON needs either centers/radii or "
                     "radii_sq/dist_sq")


def load_arrangement(path: str) -> Arrangement:
    with open(path) as fh:
        return arrangement_from_json(json.load(fh))
