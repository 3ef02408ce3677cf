"""Bordered squared-distance determinants for sphere arrangements.

Every quantity in this package ultimately reduces to determinants of
matrices whose entries are squared radii and squared center distances,
bordered by rows and columns of ones.  A determinant is described here
by a pair of index chains (row chain, column chain).  A chain is a tuple
of tokens: the string ``"0"`` for a border of ones, the string ``"*"``
for a border of squared radii, and 1-based sphere indices for ordinary
rows.  The entry rule is symmetric:

    ("0", "0") -> 0      ("0", j)   -> 1      ("*", j) -> r_j^2
    ("0", "*") -> 1      ("*", "*") -> 0      (j, k)   -> rho_jk^2  (0 if j = k)

`CMTable` holds the determinants of one arrangement (or parameter
vector) object, which stores it on first use.  `CMTable.chain` is the
one evaluator: it accepts any square pair of chains, with tokens in any
order, the printed shapes B(0 J; 0 K) and B(0*J; 0*K) as well as the
mixed ones of the one-form coefficients and the vertex value formulas.
It memoizes each (rows, cols) pair exactly as called, and a small
pure-Python LU evaluates the matrix in that order, so a permuted or
transposed chain agrees with the sign rule to rounding, not bit for bit.
`with_entry` vectors share their parent's chains that avoid the changed entry.
`CMTable.signed` is the one sign rule for every sign test and square root;
inside the sign band the chain, not the caller, decides what is raised.

The module also builds the configuration matrix of an arrangement whose
last sphere is the unit sphere at the origin: each other sphere is cut
by a hyperplane, normalized so that the Lorentzian square of its
coefficient vector is one, and the matrix collects the pairwise
Lorentzian products.  `ConfigMatrix.signed` is the same rule for its
minors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arrangement  # imports this module; read at call time
from .errors import (
    DegenerateConfigError,
    IndeterminateSignError,
    NonRealizableError,
    TangencyError,
)

#: pivot magnitudes below this set a warning flag (entries are at most 1)
PIVOT_WARN = 1e-12
#: a size-s chain has no sign if |B| < SIGN_TOL * hadamard_scale(table, s)
SIGN_TOL = 1e-9


def _det_lu(M):
    """Determinant via partially pivoted LU, plus a pivot-degradation flag.

    `M` is a square list of row lists, overwritten, with entries of
    magnitude at most 1 (`CMTable` measures lengths in units of its
    largest).  The flag is set when a pivot falls below PIVOT_WARN.
    """
    m = len(M)
    det = 1.0
    degraded = False
    for k in range(m):
        p = k
        for i in range(k + 1, m):
            if abs(M[i][k]) > abs(M[p][k]):
                p = i
        if p != k:
            M[k], M[p] = M[p], M[k]
            det = -det
        rk = M[k]
        piv = rk[k]
        if piv == 0.0:
            return 0.0, True
        det *= piv
        degraded = degraded or abs(piv) < PIVOT_WARN
        for ri in M[k + 1:]:
            f = ri[k] / piv
            for j in range(k + 1, m):
                ri[j] -= f * rk[j]
    return det, degraded


def _lu_error(s: int) -> float:
    """A bound on the rounding error of `_det_lu` on an s x s matrix with
    entries at most 1: to first order gamma_s s^3 2^(s-1) (s-1)^((s-1)/2)
    from the backward error of LU with growth factor 2^(s-1) (Higham,
    Thm 9.3), plus gamma_s s^(s/2) from the product of the pivots,
    with gamma_s <= 2 s u; doubled for the higher-order terms."""
    return s ** 4 * 2.0 ** (s + 1) * 2.0 ** -52 * s ** (s / 2.0)


def _stored(obj, key, compute):
    """`compute()`, once per object: kept in `obj._store` under `key` once
    it returns (an exception stores nothing; of two racing first calls,
    the first value stored wins).  Stored values are shared: never mutate."""
    store = obj._store
    if key not in store:
        store.setdefault(key, compute())
    return store[key]


@dataclass
class CMTable:
    """Memoized determinant evaluator for one set of squared parameters.

    `from_arrangement` / `from_params` return the one table of a frozen
    object, built on first use and stored on it.  `chain` memoizes the
    (rows, cols) pair as given and validates only on a miss, so invalid
    chains raise on every call.  The memo holds pure values, so
    concurrent callers inserting the same key are harmless.  Pairs whose
    LU met a degraded pivot are collected, as called, in
    `pivot_warnings`.  `scale` is the largest squared radius or distance
    (see `hadamard_scale`); the LU sees lengths in units of it, so its
    pivot flags do not depend on the arrangement's scale.  A `with_entry`
    vector's table has `_base` = (parent's table, x, y) if the two share
    `_unit`; `chain` takes from it each chain the step has not `moved`.
    """

    n: int
    radii_sq: np.ndarray  # shape (n+2,), entry 0 unused
    dist_sq: np.ndarray   # shape (n+2, n+2), entry [j, k] = rho_jk^2

    _raw: dict = field(default_factory=dict, repr=False)
    pivot_warnings: set = field(default_factory=set, repr=False)
    _base: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # every entry by its (row, column) token pair, squared lengths / _unit
        r2, d2 = self.radii_sq.tolist(), self.dist_sq.tolist()
        self.scale = max(r2 + [max(row) for row in d2])
        self._unit = s = math.ldexp(1.0, math.frexp(self.scale)[1])
        e = {("0", "0"): 0.0, ("0", "*"): 1.0, ("*", "0"): 1.0, ("*", "*"): 0.0}
        for j in range(1, self.n + 2):
            e["0", j] = e[j, "0"] = 1.0
            e["*", j] = e[j, "*"] = r2[j] / s
            for k in range(1, self.n + 2):
                e[j, k] = d2[j][k] / s
        self._entries = e
        self._band = [SIGN_TOL * hadamard_scale(self, s)  # by chain size s
                      for s in range(self.n + 4)]

    @classmethod
    def from_arrangement(cls, a):
        """The table of a ParamVector or of an Arrangement's `params_of`."""
        return cls.from_params(arrangement._as_params(a))

    @classmethod
    def from_params(cls, params):
        """The table of a parameter vector (no point coordinates needed)."""
        return cls._of(params)

    @classmethod
    def _of(cls, params):
        def build():
            m = params.n + 1
            r2 = np.zeros(m + 1)
            r2[1:] = params.radii_sq
            d2 = np.zeros((m + 1, m + 1))
            d2[1:, 1:] = params.dist_sq
            table = cls(params.n, r2, d2)
            if params._parent is not None:
                base = cls._of(params._parent[0])
                if base._unit == table._unit:   # else every entry differs
                    table._base = (base,) + params._parent[1:]
            return table

        return _stored(params, "cm_table", build)

    # -- evaluation -------------------------------------------------------

    def chain(self, rows, cols):
        """Determinant for an arbitrary square pair of chains."""
        key = (tuple(rows), tuple(cols))
        value = self._raw.get(key)
        return value if value is not None else self._miss(key)

    def signed(self, chain, error, reason) -> float:
        """(-1)^(s-1) B(chain; chain), s = len(chain), which must reach the
        band `_band[s]`: under H1 every bordered chain has the sign
        (-1)^(s-1), (-1)^p for B(0 J) and (-1)^(p+1) for B(0*J).  Inside
        the band raises `_no_sign(chain)`; beyond it, on the wrong side,
        error(reason, with B)."""
        sign = (-1) ** (len(chain) - 1)
        value = sign * self.chain(chain, chain)
        band = self._band[len(chain)]
        if value < band:
            _refuse(_chain_name(chain), sign * value, value, band, error,
                    reason, _no_sign(chain))
        return value

    def nonzero(self, chain, reason) -> float:
        """B(chain; chain), of either sign, outside the band `_band[s]`;
        else raises `_no_sign(chain)` (reason, with B)."""
        value = self.chain(chain, chain)
        band = self._band[len(chain)]
        if abs(value) < band:
            _refuse(_chain_name(chain), value, abs(value), band, None,
                    reason, _no_sign(chain))
        return value

    def moved(self, rows, cols) -> bool:
        """Whether the chain may differ from the parent's: it reads the
        changed entry (x, y) or (y, x), or the table has no `_base`."""
        if self._base is None:
            return True
        _, x, y = self._base
        return x in rows and y in cols or y in rows and x in cols

    def move_bound(self, s: int) -> float:
        """A bound on |B' - B| for a `moved` bordered chain of size s (with
        a `_base`): B' = B + 2 d C + d^2 D, d the step over `_unit`, C a
        cofactor and D a size s - 2 minor, entries <= 1 (Hadamard), plus
        both LUs' rounding (`_lu_error`); all times `_unit`^(s-2)."""
        base, x, y = self._base
        d = abs(self._entries[x, y] - base._entries[x, y])
        move = (2.0 * d * (s - 1) ** ((s - 1) / 2.0)
                + d * d * (s - 2) ** ((s - 2) / 2.0) + 2.0 * _lu_error(s))
        return move * self._unit ** (s - 2)

    def _miss(self, key):
        rows, cols = key
        if not self.moved(rows, cols):
            # the parent's matrix, entry for entry: same value and flag
            base = self._base[0]
            value = base._raw[key] if key in base._raw else base._miss(key)
            degraded = key in base.pivot_warnings
        else:
            if len(rows) != len(cols):
                raise ValueError("row and column chains must have equal length")
            for c in key:
                idx = [t for t in c if not isinstance(t, str)]
                if len(set(idx)) != len(idx):
                    raise ValueError(f"repeated index in chain {c!r}")
            e = self._entries
            try:
                M = [[e[s, t] for t in cols] for s in rows]
            except KeyError as err:
                raise ValueError(f"no entry for tokens {err.args[0]!r}: a token "
                                 f"is '0', '*' or a sphere index 1..{self.n + 1}"
                                 ) from None
            # M has every squared length divided by u = _unit; the true matrix
            # is D M D with D = u^(-1/2) on "0" tokens and u^(1/2) on the rest
            value, degraded = _det_lu(M)
            value *= self._unit ** (len(rows) - rows.count("0")
                                    - cols.count("0"))
        if degraded:    # first, so whoever finds the value finds its flag
            self.pivot_warnings.add(key)
        self._raw[key] = value
        return value

    def flagged(self) -> list:
        """`pivot_warnings` as sorted chains, like "B(0 1 2; 0 1 2)"."""
        return sorted("B(%s; %s)" % tuple(" ".join(map(str, c)) for c in key)
                      for key in self.pivot_warnings)


def _chain_name(chain) -> str:
    return f"B({' '.join(map(str, chain))})"


def _no_sign(chain):
    """What a chain inside the band raises: `TangencyError` for a starred
    chain B(0*J), whose S_J shrinks to a point, else
    `IndeterminateSignError`."""
    return TangencyError if "*" in chain else IndeterminateSignError


def _refuse(name, raw, value, band, error, reason, no_sign):
    """Raise for the determinant `name` = `raw`, whose `value` (`raw`
    times the sign it must have) is below `band`: `no_sign` inside the
    band, `error` beyond it on the wrong side."""
    wrong = -value >= band
    raise (error if wrong else no_sign)(
        f"{reason}: {name} = {raw:.3g} has {('no', 'the wrong')[wrong]} sign")


def hadamard_scale(table: CMTable, size: int) -> float:
    """Magnitude bound for a size x size determinant bordered by one row
    and one column of ones: B(0 J) (size p+1) or B(0*J) (size p+2).

    Such a determinant has degree size-2 in the squared lengths, so a
    sign test against tol * table.scale^(size-2) * size^(size/2) gives
    the same verdict for any rescaled copy of the arrangement.
    """
    return table.scale ** (size - 2) * size ** (size / 2.0)


# ---------------------------------------------------------------------------
# configuration matrix (arrangement restricted to the unit sphere)
# ---------------------------------------------------------------------------


@dataclass
class ConfigMatrix:
    """Normalized hyperplane data for spheres cutting the unit sphere.

    For an arrangement in dimension n whose sphere n+1 is the unit
    sphere at the origin, each sphere j <= n meets the unit sphere in
    the slice of a hyperplane  sum_nu u[j-1, nu] x_nu + offset[j-1] = 0
    with |u_j|^2 - offset_j^2 = 1.  `matrix` is the (n+1) x (n+1) Gram
    matrix of Lorentzian products, index 0 being the distinguished
    direction: matrix[0, 0] = -1, matrix[0, j] = offset_{j},
    matrix[j, j] = 1.
    """

    n: int
    matrix: np.ndarray        # (n+1, n+1)
    normals: np.ndarray       # (n, n) rows u_j
    offsets: np.ndarray       # (n,)

    def offset(self, j: int) -> float:
        return float(self.offsets[j - 1])

    def inner(self, j: int, k: int) -> float:
        return float(self.matrix[j, k])

    def signed(self, J, zero, error, reason) -> float:
        """-A'(0 J) with `zero`, else A'(J) (`config_minor`): the minor
        times the sign it must have.  A'(0 J) < 0 always, since the
        Lorentzian span of e0 and the normals of J is timelike; A'(J) > 0
        where the planes of J meet inside the ball.  The band is SIGN_TOL
        times the Hadamard bound of the principal submatrix (the product
        of its row norms).  Inside it raises `IndeterminateSignError` for
        A'(0 J) and `TangencyError` for A'(J), whose planes then meet on
        the sphere; beyond it, on the wrong side, error(reason, with the
        minor)."""
        rows = ((0,) if zero else ()) + tuple(J)
        raw = config_minor(self, J, with_zero=zero)
        value = -raw if zero else raw
        band = SIGN_TOL * float(np.prod(np.linalg.norm(
            self.matrix[np.ix_(rows, rows)], axis=1)))
        if value < band:
            _refuse(f"A'({', '.join(map(str, rows))})", raw, value, band,
                    error, reason,
                    IndeterminateSignError if zero else TangencyError)
        return value

    @classmethod
    def from_entries(cls, n: int, offsets, inner) -> "ConfigMatrix":
        """Rebuild plane data from matrix entries.

        Args:
            n: ambient dimension (the sphere is the unit (n-1)-sphere).
            offsets: sequence of n offset entries.
            inner: mapping (j, k) -> matrix entry for 1 <= j < k <= n.

        The Euclidean Gram matrix u_j . u_k = inner[jk] + off_j off_k
        must be positive definite; its Cholesky factor supplies normals
        in a fixed orientation, which makes perturbation sweeps of the
        entries well defined.
        """
        off = np.asarray(offsets, float)
        if off.shape != (n,):
            raise ValueError("expected one offset per cutting sphere")
        A = _config_gram(off, dict(inner))
        try:
            L = np.linalg.cholesky(A[1:, 1:] + np.outer(off, off))
        except np.linalg.LinAlgError as e:
            raise NonRealizableError(
                "matrix entries admit no plane configuration") from e
        return cls(n, A, L, off)


def config_matrix(a) -> ConfigMatrix:
    """Configuration matrix of an arrangement with unit last sphere.

    Requires radius 1 and center at the origin for sphere n+1 (see
    `restrict_to_unit_sphere`).  Matrix entries are computed from
    bordered determinants; the plane coefficient vectors come directly
    from the centers.  Both routes agree to rounding.
    """
    n = a.n
    m = n + 1
    if abs(a.radii[-1] - 1.0) > 1e-9 or np.max(np.abs(a.centers[-1])) > 1e-9:
        raise ValueError("sphere n+1 must be the unit sphere at the origin")
    table = CMTable.from_arrangement(a)
    norm = np.empty(m - 1)
    for j in range(1, m):
        norm[j - 1] = math.sqrt(table.signed(
            ("0", "*", j, m), DegenerateConfigError,
            "a sphere does not cut the unit sphere transversally"))
    off = np.array([table.chain(("0", j, m), ("0", "*", m)) / norm[j - 1]
                    for j in range(1, m)])
    inner = {(j, k): -table.chain(("0", "*", j, m), ("0", "*", k, m))
             / (norm[j - 1] * norm[k - 1])
             for j in range(1, m) for k in range(j + 1, m)}
    normals = np.array([-2.0 * a.centers[j - 1] / norm[j - 1] for j in range(1, m)])
    return ConfigMatrix(n, _config_gram(off, inner), normals, off)


def _config_gram(off, inner) -> np.ndarray:
    """The `matrix` of a `ConfigMatrix`: -1 at [0, 0], the offsets on
    row and column 0, 1 on the rest of the diagonal, and the entry
    inner[(j, k)] at [j, k] and [k, j]."""
    A = np.eye(len(off) + 1)
    A[0, 0] = -1.0
    A[0, 1:] = A[1:, 0] = off
    for (j, k), v in inner.items():
        A[int(j), int(k)] = A[int(k), int(j)] = v
    return A


def config_minor(m: ConfigMatrix, J, with_zero: bool = False) -> float:
    """Principal minor A'(J) or A'(0 J) of the configuration matrix.

    `J` holds 1-based sphere labels; `with_zero` prepends the
    distinguished index 0.  An empty J with `with_zero` gives -1.
    """
    rows = ((0,) if with_zero else ()) + tuple(J)
    return config_minor_pair(m, rows, rows)


def config_minor_pair(m: ConfigMatrix, rows, cols) -> float:
    """General minor A'(rows; cols) with independent row and column sets.

    Needed by the one-form recursion, which mixes the 0 index into the
    rows only.  Indices as in `config_minor`.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("row and column index sets must have equal size")
    return float(np.linalg.det(m.matrix[np.ix_(rows, cols)]))
