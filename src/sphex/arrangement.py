"""Hypersphere arrangements and their parameter coordinates.

An arrangement is a set of n+1 spheres S_1..S_{n+1} in R^n, stored as
centers O_j and radii r_j with 1-based indices.  Every determinant and
volume downstream depends on the configuration only through the squared
radii r_j^2 and squared center distances rho_jk^2, so this module also
provides that coordinate system (`ParamVector`), the reconstruction
of centers from it by a Cholesky factorisation of their Gram matrix
(`from_params`), and the normalized coordinates in which sphere n+1
sits at the origin and the center matrix is triangular (`normalize`).

Sign conventions: the defining function of sphere j is
f_j(x) = |x - O_j|^2 - r_j^2, negative inside.  In normalized
coordinates the coefficient alpha_{j,nu} of 2 x_nu in f_j equals
-O_{j,nu}, and the normalization makes alpha_{j,n+1-j} > 0, i.e. the
last nonzero center coordinate negative.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .cayley_menger import SIGN_TOL, CMTable, _stored
from .errors import (
    DegenerateConfigError,
    HypothesisError,
    IndeterminateSignError,
    NonRealizableError,
)


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
    #: its `CMTable`, sign table, n = 2 closed forms, `from_params`: once
    _store: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    #: (parent vector, x, y) of a `with_entry` copy that changed entry (x, y)
    _parent: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.n + 1
        if self.radii_sq.shape != (m,) or self.dist_sq.shape != (m, m):
            raise ValueError("parameter arrays have wrong shape")
        for name in ("radii_sq", "dist_sq"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.radii_sq <= 0):
            raise ValueError("all squared radii must be positive")
        off = self.dist_sq[~np.eye(m, dtype=bool)]
        if np.any(off <= 0):
            raise ValueError("all squared distances must be positive")
        if np.max(np.abs(self.dist_sq - self.dist_sq.T)) != 0:
            raise ValueError("squared-distance matrix must be symmetric")

    def _index(self, key) -> tuple:
        """The index of basis key ("r", j) in `radii_sq` or ("d", j, k) in
        `dist_sq`; KeyError unless 1 <= j < k <= n + 1."""
        m = self.n + 1
        if len(key) == 2 and key[0] == "r" and 1 <= key[1] <= m:
            return (key[1] - 1,)
        if len(key) == 3 and key[0] == "d" and 1 <= key[1] < key[2] <= m:
            return key[1] - 1, key[2] - 1
        raise KeyError(key)

    def get(self, key) -> float:
        i = self._index(key)
        return float((self.dist_sq if len(i) == 2 else self.radii_sq)[i])

    def with_entry(self, key, value: float) -> "ParamVector":
        """A copy with entry `key` set to `value`; it keeps this vector
        alive, and its `CMTable` takes from this vector's every chain the
        step has not `moved`.  Once this vector stores its sign table,
        `require_hypothesis` on the copy certifies H1/H1' from it (`_certify`).
        Only the new value is checked: the rest was checked in this
        vector, and the copy sets both (j, k) and (k, j).  A key outside
        `param_basis(n)` raises KeyError."""
        i = self._index(key)
        r2 = np.array(self.radii_sq)
        d2 = np.array(self.dist_sq)
        if len(i) == 1:
            name, what = "radii_sq", "radii"
            r2[i] = value
        else:
            name, what = "dist_sq", "distances"
            d2[i] = d2[i[::-1]] = value
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if value <= 0:
            raise ValueError(f"all squared {what} must be positive")
        pair = ("*", key[1]) if key[0] == "r" else (key[1], key[2])
        r2.flags.writeable = d2.flags.writeable = False
        q = copy.copy(self)                     # skips __post_init__
        for attr, v in (("radii_sq", r2), ("dist_sq", d2), ("_store", {}),
                        ("_parent", (self,) + pair)):
            object.__setattr__(q, attr, v)
        return q


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
    for name, x in (("centers", C), ("radii", r)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite")
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


def _as_params(x) -> ParamVector:
    """The `ParamVector` of an Arrangement or ParamVector `x`."""
    return x if isinstance(x, ParamVector) else params_of(x)


def _as_arrangement(x) -> Arrangement:
    """An Arrangement `x`, or `from_params` of a ParamVector `x`."""
    return from_params(x, x.n) if isinstance(x, ParamVector) else x


def from_params(p: ParamVector, n: int) -> Arrangement:
    """Reconstruct an embedding from squared parameters in a fixed gauge.

    The gauge places O_{n+1} at the origin, O_n on the positive first
    axis, O_{n-1} in the span of the first two axes with positive second
    coordinate, and so on (`_reconstruct`).  Since O_{n+1-i} reads only
    the distances among O_n, ..., O_{n+1-i} and O_{n+1}, a step
    `p.with_entry(key, v)` keeps every center bit for bit for an r_j
    key, and O_{j+1}, ..., O_{n+1} for d_jk with j < k.  Stored on `p`:
    one arrangement per vector, whose `params_of` is `p`, so the two
    share everything stored on `p`.
    """
    if p.n != n:
        raise ValueError("parameter vector dimension mismatch")
    return _stored(p, "from_params", lambda: _reconstruct(p, n))


def _reconstruct(p: ParamVector, n: int) -> Arrangement:
    """Centers from the Cholesky factor L L^T = G of the Gram matrix
    G_ab = (d_{a,n+1}^2 + d_{b,n+1}^2 - d_ab^2)/2 of O_n, ..., O_1
    relative to O_{n+1}: row i of L is O_{n-i}, supported on the first
    i + 1 coordinates with the last one positive, and reads only the
    first i + 1 rows of G.  G must be positive definite: an eigenvalue
    below -`SIGN_TOL` of its largest entry raises NonRealizableError,
    one below +`SIGN_TOL` of it DegenerateConfigError."""
    d2 = p.dist_sq
    rev = slice(n - 1, None, -1)            # O_n, ..., O_1
    g = d2[rev, n]
    G = 0.5 * (g[:, None] + g[None, :] - d2[rev, rev])
    scale = float(np.max(np.abs(G)))
    w = np.linalg.eigvalsh(G)
    if w[0] < -SIGN_TOL * scale:
        raise NonRealizableError(
            f"distance set is not realizable in R^{n} "
            f"(Gram eigenvalue {w[0]:.3e})")
    small = w < SIGN_TOL * scale
    if np.any(small):
        raise DegenerateConfigError(
            "degenerate configuration: center Gram matrix has rank "
            f"{int(np.sum(~small))} < {n}")
    centers = np.vstack([np.linalg.cholesky(G)[::-1], np.zeros(n)])
    a = from_centers_radii(centers, np.sqrt(p.radii_sq))
    _stored(a, "params", lambda: p)
    return a


def _gauge(centers, n):
    """Rotate so O_{n+1-i} has support in the first i coordinates, with
    coordinate i negative.  O_{n+1} must already be at the origin."""
    X = np.array([centers[n - i] for i in range(1, n + 1)])  # O_n, O_{n-1}, ..
    Q, R = np.linalg.qr(X.T)
    W = Q * np.where(np.diag(R) > 0, -1.0, 1.0)
    return centers @ W, W


def normalize(a: Arrangement):
    """Move an arrangement into the triangular normalized coordinates.

    Returns (normalized arrangement, transform).  Sphere n+1 is centered
    at the origin; sphere j's center is supported on the first n+1-j
    coordinates with its last nonzero coordinate negative (so the
    corresponding defining-function coefficient alpha_{j,n+1-j} is
    positive).  Radii and distances are preserved exactly.  It needs
    H1, whose certified B(0 J) keep every pivot of the triangle far from 0.
    """
    require_hypothesis(a, "h1", "normalization undefined")
    new, W = _gauge(a.centers - a.centers[a.n], a.n)
    b = from_centers_radii(new, a.radii)
    return b, RigidTransform(_frozen(W), _frozen(a.centers[a.n]))


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

    def to_dict(self) -> dict:
        return {**asdict(self), "subset": list(self.subset)}


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
    P_j, for j = 1..n: P_j is taken on `_as_arrangement(a)`, mapped into
    normalized coordinates by `normalize`'s transform; `h2="skip"` omits it.

    Values inside the table's sign band (SIGN_TOL times a Hadamard-type
    bound of the same degree in length, the rule of `CMTable.signed`)
    are reported indeterminate rather than pass/fail, whatever the
    arrangement's scale.  The sign table and the H1/H1' verdicts are
    stored on `params_of(a)`, and the table is always built, also where
    `require_hypothesis` certified the verdicts.  `a` may be an
    Arrangement or a ParamVector.  Each call returns a new report,
    which lists the sign table's determinants whose LU met a degraded
    pivot.
    """
    rows, h1, h1_prime, flagged = _stored(_as_params(a), "signs",
                                          lambda: _sign_table(a))
    h2_val = None
    h2_details = []
    if h2 != "skip" and h1:
        from . import intersect  # local import: intersect builds on this module

        try:
            b = _as_arrangement(a)
            na, move = normalize(b)
            tol = SIGN_TOL * float(np.max(np.abs(na.centers)))
            for j in range(1, a.n + 1):
                coord = float(move.apply(intersect.vertices(b, j).P)[a.n - j])
                h2_details.append((j, coord, _status(coord, -1, tol)))
            h2_val = _combine([st for _, _, st in h2_details])
        except ValueError:  # degenerate, tangent or not normalizable
            pass
    return HypothesisReport(h1, h1_prime, h2_val, list(rows), h2_details,
                            list(flagged))


def require_hypothesis(a, name: str, what: str):
    """HypothesisError unless hypothesis `name` ("h1" or "h1_prime") holds
    for the Arrangement or ParamVector `a` (whose plain sign conditions
    certify that `a` is realisable), IndeterminateSignError if it is
    unresolved; `what` ends the message.

    The verdicts are stored on the vector.  For a `with_entry` vector
    whose parent stores its sign table they come from the parent's
    values when `_certify` finds every row beyond its table's
    `move_bound`; then no determinant is factored.  Otherwise the
    vector's own sign table is built.
    """
    p = _as_params(a)

    def verdicts():
        if "signs" not in p._store:
            certified = _certify(p)
            if certified is not None:
                return certified
        return _stored(p, "signs", lambda: _sign_table(p))[1:3]

    h1, h1_prime = _stored(p, "verdicts", verdicts)
    label, verdict = {"h1": ("H1", h1), "h1_prime": ("H1'", h1_prime)}[name]
    if verdict is None:
        raise IndeterminateSignError(f"{label} indeterminate; {what}")
    if not verdict:
        raise HypothesisError(f"{label} fails; {what}")


def _certify(p: ParamVector):
    """(h1, h1_prime) of a `with_entry` vector `p` from its parent's
    stored sign table, or None unless every row certifies.

    The vector's table must have a `_base` (the two share a unit).  A
    determinant B of size s that the step has not `moved` is the parent's
    value bit for bit, so it keeps its sign and certifies when |B|
    exceeds p's own `_status` tolerance; a moved one certifies when |B|
    exceeds that tolerance plus the table's `move_bound(s)`.  A row that
    certifies has the status its sign gives; the verdicts are combined
    from these as in `_sign_table`.
    """
    if p._parent is None:
        return None
    signs = p._parent[0]._store.get("signs")
    if signs is None:
        return None
    table = CMTable.from_params(p)
    if table._base is None:
        return None
    band = table._band      # by chain size s: (band, band + move bound)
    margins = {s: (band[s], band[s] + table.move_bound(s))
               for s in range(2, p.n + 4)}
    statuses = []
    for row in signs[0]:
        q = (-1) ** len(row.subset)     # the plain sign; starred needs -q
        for head, value, sign in ((("0",), row.plain, q),
                                  (("0", "*"), row.starred, -q)):
            chain = head + row.subset
            margin = margins[len(chain)][table.moved(chain, chain)]
            if not abs(value) > margin:
                return None
            statuses.append(_status(value, sign, margin))
    return _h1_verdicts(statuses)


def _h1_verdicts(statuses):
    """(h1, h1_prime) from the sign table's statuses in row order, plain
    before starred.  H1' keeps every condition but the last, the starred
    full set: (-1)^n B(0*N) < 0, its sign flipped."""
    flip = {"pass": "fail", "fail": "pass"}
    last = statuses[-1]
    return (_combine(statuses),
            _combine(statuses[:-1] + [flip.get(last, last)]))


def _sign_table(a):
    """(rows, h1, h1_prime, flagged pivots): the h2-free part of
    `check_hypotheses`."""
    table = CMTable.from_arrangement(a)
    n = a.n
    m = n + 1
    rows = []
    for p in range(1, m + 1):
        for J in itertools.combinations(range(1, m + 1), p):
            plain = table.chain(("0",) + J, ("0",) + J)
            starred = table.chain(("0", "*") + J, ("0", "*") + J)
            rows.append(SubsetSigns(
                J, plain, starred,
                _status(plain, (-1) ** p, table._band[p + 1]),
                _status(starred, (-1) ** (p + 1), table._band[p + 2])))
    h1, h1_prime = _h1_verdicts(
        [s for r in rows for s in (r.plain_status, r.starred_status)])
    return tuple(rows), h1, h1_prime, tuple(table.flagged())


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


def _object(obj) -> dict:
    """`obj` if it is a JSON object, else ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("arrangement JSON must be an object, not "
                         f"{type(obj).__name__}")
    return obj


def _field(obj: dict, name: str, parse=lambda v: np.asarray(v, float)):
    """parse(obj[name]): ValueError naming the field if it is missing or
    `parse` refuses it (an array of floats by default)."""
    try:
        value = obj[name]
    except KeyError:
        raise ValueError(f'arrangement JSON is missing field "{name}"') from None
    try:
        return parse(value)
    except (TypeError, ValueError) as e:
        raise ValueError(f'arrangement JSON field "{name}": {e}') from None


def _dimension(value) -> int:
    """A JSON integer n >= 2: not a bool, a float or a string."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 2:
        raise ValueError(f"needs an integer >= 2, not {value!r}")
    return value


def params_from_json(obj: dict) -> ParamVector:
    n = _field(_object(obj), "n", _dimension)
    m = n + 1
    r2 = _field(obj, "radii_sq")
    if r2.shape != (m,):
        raise ValueError(f'arrangement JSON field "radii_sq" needs {m} values')

    def pairs(dist_sq):
        if not isinstance(dist_sq, dict):
            raise TypeError('needs an object with keys "j,k"')
        d2 = np.zeros((m, m))
        for key, val in dist_sq.items():
            j, k = (int(t) for t in key.split(","))
            if not (1 <= j <= m and 1 <= k <= m and j != k):
                raise ValueError(f"bad dist_sq key {key!r}")
            d2[j - 1, k - 1] = d2[k - 1, j - 1] = float(val)
        return d2

    d2 = _field(obj, "dist_sq", pairs)
    if np.any(d2[~np.eye(m, dtype=bool)] == 0):
        raise ValueError("dist_sq must cover every pair j<k")
    return ParamVector(n, _frozen(r2), _frozen(d2))


def arrangement_from_json(obj: dict) -> Arrangement:
    """Parse either serialized form; the params form is reconstructed.
    Fields of the wrong type or shape raise ValueError."""
    if "centers" in _object(obj):
        a = from_centers_radii(_field(obj, "centers"), _field(obj, "radii"))
        if a.n != _field(obj, "n", _dimension):
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
