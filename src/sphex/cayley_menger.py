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
vector) object, which stores it on first use, and memoizes raw chain
pairs over canonical keys (index order sorted, transpose normalized,
the permutation sign applied on lookup).  A small pure-Python LU
evaluates them.  `CMTable.chain` is the one evaluator: it accepts any
square pair of chains, the printed shapes B(0 J; 0 K) and B(0*J; 0*K)
as well as the mixed ones of the one-form coefficients and the vertex
value formulas.

The module also builds the configuration matrix of an arrangement whose
last sphere is the unit sphere at the origin: each other sphere is cut
by a hyperplane, normalized so that the Lorentzian square of its
coefficient vector is one, and the matrix collects the pairwise
Lorentzian products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfigError, NonRealizableError

#: pivot magnitudes below this fraction of the entry scale set a warning flag
PIVOT_WARN = 1e-12


def _perm_sign(seq):
    """Sign of the permutation sorting `seq` (distinct ints)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _split_chain(chain):
    """Separate leading header tokens from index tokens.

    Headers may appear only before the first index.  Returns
    (headers, indices).
    """
    head = []
    idx = []
    for t in chain:
        if isinstance(t, str):
            if t not in ("0", "*"):
                raise ValueError(f"unknown chain token {t!r}")
            if idx:
                raise ValueError("header tokens must precede index tokens")
            head.append(t)
        else:
            idx.append(int(t))
    if len(set(idx)) != len(idx):
        raise ValueError(f"repeated index in chain {chain!r}")
    return tuple(head), tuple(idx)


def _det_lu(M):
    """Determinant via partially pivoted LU, plus a pivot-degradation flag.

    `M` is a square list of row lists, overwritten.  The flag is set when
    a pivot falls below PIVOT_WARN times the largest entry (at least 1).
    """
    m = len(M)
    scale = max([1.0] + [abs(x) for row in M for x in row])
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
        degraded = degraded or abs(piv) < PIVOT_WARN * scale
        for ri in M[k + 1:]:
            f = ri[k] / piv
            for j in range(k + 1, m):
                ri[j] -= f * rk[j]
    return det, degraded


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
    object, built on first use and stored on it.  `chain` looks up the
    raw (rows, cols) pair as given and validates only on a miss, so
    invalid chains raise on every call.  The caches hold pure values, so
    concurrent callers inserting the same key are harmless.  Keys whose
    LU met a degraded pivot are collected in `pivot_warnings`.  `scale`
    is the largest squared radius or distance (see `hadamard_scale`).
    """

    n: int
    radii_sq: np.ndarray  # shape (n+2,), entry 0 unused
    dist_sq: np.ndarray   # shape (n+2, n+2), entry [j, k] = rho_jk^2

    _cache: dict = field(default_factory=dict, repr=False)
    _raw: dict = field(default_factory=dict, repr=False)
    pivot_warnings: set = field(default_factory=set, repr=False)

    def __post_init__(self):
        # every matrix entry by its (row token, column token) pair
        r2, d2 = self.radii_sq.tolist(), self.dist_sq.tolist()
        e = {("0", "0"): 0.0, ("0", "*"): 1.0, ("*", "0"): 1.0, ("*", "*"): 0.0}
        for j in range(1, self.n + 2):
            e["0", j] = e[j, "0"] = 1.0
            e["*", j] = e[j, "*"] = r2[j]
            for k in range(1, self.n + 2):
                e[j, k] = d2[j][k]
        self._entries = e
        self.scale = max(r2 + [max(row) for row in d2])

    @classmethod
    def from_arrangement(cls, a):
        """The table of arrangement `a`: that of its `params_of` vector."""
        from .arrangement import params_of  # arrangement imports this

        return cls.from_params(params_of(a))

    @classmethod
    def from_params(cls, params):
        """The table of a parameter vector (no point coordinates needed)."""
        def build():
            m = params.n + 1
            r2 = np.zeros(m + 1)
            r2[1:] = params.radii_sq
            d2 = np.zeros((m + 1, m + 1))
            d2[1:, 1:] = params.dist_sq
            return cls(params.n, r2, d2)

        return _stored(params, "cm_table", build)

    # -- evaluation -------------------------------------------------------

    def chain(self, rows, cols):
        """Determinant for an arbitrary square pair of chains."""
        raw = (tuple(rows), tuple(cols))
        value = self._raw.get(raw)
        if value is not None:
            return value
        rh, ri = _split_chain(rows)
        ch, ci = _split_chain(cols)
        if len(rh) + len(ri) != len(ch) + len(ci):
            raise ValueError("row and column chains must have equal length")
        for t in ri + ci:
            if not 1 <= t <= self.n + 1:
                raise ValueError(f"sphere index {t} out of range 1..{self.n + 1}")
        sign = _perm_sign(ri) * _perm_sign(ci)
        rkey = (rh, tuple(sorted(ri)))
        ckey = (ch, tuple(sorted(ci)))
        key = (rkey, ckey) if rkey <= ckey else (ckey, rkey)  # transpose symmetry
        det = self._cache.get(key)
        if det is None:
            chain_r = key[0][0] + key[0][1]
            chain_c = key[1][0] + key[1][1]
            e = self._entries
            det, degraded = _det_lu([[e[x, y] for y in chain_c] for x in chain_r])
            self._cache[key] = det
            if degraded:
                self.pivot_warnings.add(key)
        value = self._raw[raw] = sign * det
        return value

    def flagged(self) -> list:
        """`pivot_warnings` as sorted chains, like "B(0 1 2; 0 1 2)"."""
        return sorted("B(%s; %s)" % tuple(" ".join(map(str, h + i))
                                           for h, i in key)
                      for key in self.pivot_warnings)


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
        A = np.zeros((n + 1, n + 1))
        A[0, 0] = -1.0
        G = np.empty((n, n))
        for j in range(1, n + 1):
            A[0, j] = A[j, 0] = off[j - 1]
            A[j, j] = 1.0
            G[j - 1, j - 1] = 1.0 + off[j - 1] ** 2
        for (j, k), v in dict(inner).items():
            j, k = int(j), int(k)
            A[j, k] = A[k, j] = v
            G[j - 1, k - 1] = G[k - 1, j - 1] = v + off[j - 1] * off[k - 1]
        try:
            L = np.linalg.cholesky(G)
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
        c2 = -table.chain(("0", "*", j, m), ("0", "*", j, m))
        if c2 <= 0:
            raise DegenerateConfigError(
                f"sphere {j} does not cut the unit sphere transversally")
        norm[j - 1] = math.sqrt(c2)
    off = np.empty(m - 1)
    A = np.zeros((m, m))
    A[0, 0] = -1.0
    for j in range(1, m):
        off[j - 1] = table.chain(("0", j, m), ("0", "*", m)) / norm[j - 1]
        A[0, j] = A[j, 0] = off[j - 1]
        A[j, j] = 1.0
    for j in range(1, m):
        for k in range(j + 1, m):
            A[j, k] = A[k, j] = -table.chain(
                ("0", "*", j, m), ("0", "*", k, m)) / (norm[j - 1] * norm[k - 1])
    normals = np.array([-2.0 * a.centers[j - 1] / norm[j - 1] for j in range(1, m)])
    return ConfigMatrix(n, A, normals, off)


def config_minor(m: ConfigMatrix, J, with_zero: bool = False) -> float:
    """Principal minor A'(J) or A'(0 J) of the configuration matrix.

    `J` holds 1-based sphere labels; `with_zero` prepends the
    distinguished index 0.  An empty J with `with_zero` gives -1.
    """
    J = tuple(J)
    rows = ((0,) if with_zero else ()) + J
    if not rows:
        return 1.0
    return float(np.linalg.det(m.matrix[np.ix_(rows, rows)]))


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
