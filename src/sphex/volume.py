"""Chamber and face volumes: Monte Carlo estimators plus closed forms.

Chamber volumes without a closed form integrate exactly along random
lines through an interior point (`_ray_scores`), cut into the chamber's
pieces by the interval core `_line_measure`.  The lines come in
frames: a random rotation of the (3^n - 1) / 2 axes of the cube (of the
n coordinate axes above n = 4), so one rotation serves several evenly
spread lines.  The Euclidean finite difference scores both perturbed
chambers on the same lines.

Monte Carlo sampling is organized in fixed blocks of a counter-based
generator, so a result depends only on (seed, stream, sample count) and
never on how blocks are scheduled.  Closed forms cover the n=2 chamber
areas (assembled from lens areas and the three-arc region), the lens
volume in any dimension, cap integrals, the Euclidean simplex volume,
and the cone-cell volumes of the simplex decomposition.

Faces: on the sphere S_J every other sphere's sign constraint, and
every barycentric constraint of the center simplex, is affine in the
unit direction g, so a face is a region {g in S^m : alpha + beta.g >= 0}
with m = n - |J|.  `_measure` alone decides how such regions are
measured: exactly for m <= 2 (two points counted, arcs intersected, or
by Stokes' theorem a one-form summed over the boundary arcs), one
kernel call per row count, and for m >= 3 by the exact arc length of
random circle fibres (conditional Monte Carlo).  `_faces` hands it a
chamber's faces in one call; `sphere_region` and `face_volume` take one
region or face, and the unit-sphere model's region, arcs and vertices
are regions too (`config_face_constraints`).  The indicator estimators
`chamber_volume_mc` and `face_volume_mc` only draw points and test their
signs with `evaluate_f`; they stay as the independent oracles that tests
and benchmarks check the rest against.

Every estimate names its `method`; `exact` follows from it.

Boundedness: a chamber with at least one minus sign lives inside the
corresponding ball, so rejection sampling uses the intersection of the
minus-ball bounding boxes.  The all-plus chamber is unbounded as a sign
region; its bounded component (the gap enclosed by the spheres) lies
inside the simplex of the centers, so all-plus calls must opt in with
``bounding="simplex"`` which intersects the predicate with simplex
membership.  Face estimators restrict to the same bounded component.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .arrangement import (
    Chamber,
    _as_params,
    _check_chamber,
    evaluate_f,
    require_hypothesis,
)
from .cayley_menger import CMTable, ConfigMatrix, _stored
from .errors import (
    DegenerateConfigError,
    EmptyIntersectionError,
    HypothesisError,
    SphexError,
)
from .intersect import angles_pair, intersection_sphere, triangle_angles

#: samples per RNG block; results are invariant under block scheduling
BLOCK = 65536
_ADVANCE = 1 << 24


@dataclass(frozen=True)
class Rng:
    """Deterministic counter-based random source.

    Each (seed, stream) pair is an independent Philox stream; block i of
    a computation always draws from counter offset i * 2^24, so any
    partition of blocks over workers yields bit-identical results.  An
    integer stream k keys Philox with (seed, k); `substream(k)` is the
    stream with path (parent stream, k), keyed by `SeedSequence`.
    """

    seed: int
    stream: "int | tuple" = 0

    def substream(self, stream: int) -> "Rng":
        path = self.stream if isinstance(self.stream, tuple) \
            else (self.stream,)
        return Rng(self.seed, path + (stream,))

    def generator(self, block: int) -> np.random.Generator:
        seed = self.seed % 2 ** 64
        if isinstance(self.stream, tuple):
            key = np.random.SeedSequence(seed, spawn_key=[
                k % 2 ** 64 for k in self.stream]).generate_state(2, np.uint64)
        else:
            key = np.array([seed, self.stream % 2 ** 64], dtype=np.uint64)
        bit = np.random.Philox(key=key)
        bit.advance(block * _ADVANCE)
        return np.random.Generator(bit)


#: how a `VolumeEstimate` was obtained: a closed form, an exact count of
#: points, an exact arc intersection, indicator Monte Carlo, or Monte
#: Carlo conditioned on circle fibres or on lines
METHODS = ("closed", "count", "arc", "mc", "conditional-mc")
#: the methods whose value is exact
EXACT_METHODS = METHODS[:3]


@dataclass(frozen=True)
class VolumeEstimate:
    """A volume value with its uncertainty bookkeeping.

    `method` is one of `METHODS`, and `exact` says whether it is one of
    `EXACT_METHODS` ("closed", "count", "arc"), whose results carry
    std_error 0; "closed" covers the closed forms and the m = 2 areas
    that `sphere_region` takes from their boundary arcs.  For "mc"
    `std_error` is the binomial standard error propagated through the
    bounding-measure factor and `samples` counts points; for
    "conditional-mc" it is the sample standard error of the per-fibre
    arc lengths (of a face) or of the per-frame line scores (of a
    chamber, `chamber_volume`, whose lines come in dependent frames),
    and `samples` counts fibres or lines.
    `fallback_reason` says why a closed form was not taken (it raised,
    or its hypothesis failed); it is None when the first path applied.
    """

    value: float
    std_error: float
    samples: int
    method: str
    fallback_reason: "str | None" = None

    @property
    def exact(self) -> bool:
        return self.method in EXACT_METHODS

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown volume method {self.method!r}")
        if self.exact and self.std_error != 0.0:
            raise ValueError("exact results must have zero std_error")


def _blocks(samples: int, rng: Rng):
    """(generator, count) for each RNG block of a `samples`-draw estimate.

    Block i draws from `rng.generator(i)` and holds `BLOCK` draws (the
    last one the rest), so a result depends only on (seed, stream,
    samples).  `samples` is checked at the call, not at the first block.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return ((rng.generator(b), min(BLOCK, samples - b * BLOCK))
            for b in range(-(-samples // BLOCK)))


def _mean_error(scores, samples: int):
    """Mean and standard error of `samples` scores arriving in chunks.

    A chunk is an array of independent scores, or a pair (S, k) of the
    score sums S of groups of k dependent scores each (the frames of
    `_ray_scores`); the error is then taken over the F groups,
    sqrt(F / (F - 1) * sum (S - k mean)^2) / samples, which needs
    F >= 2.
    """
    total = total_sq = cross = count_sq = 0.0
    groups = 0
    for x in scores:
        if isinstance(x, tuple):
            x, k = x
            cross += float(x @ k)
            count_sq += float(k @ k)
            groups += len(k)
        total += float(x.sum())
        total_sq += float(x @ x)
    mean = total / samples
    if groups:                          # sum (S - k mean)^2, expanded
        ss = total_sq - 2.0 * mean * cross + mean * mean * count_sq
        ss *= groups / (groups - 1)
        return mean, math.sqrt(max(ss, 0.0)) / samples
    return mean, math.sqrt(max(total_sq / samples - mean * mean, 0.0)
                           / samples)


def _mc_fraction(samples: int, rng: Rng, hit_fn) -> float:
    hits = sum(int(hit_fn(gen, cnt)) for gen, cnt in _blocks(samples, rng))
    return hits / samples


def _signs_mask(a, c: Chamber, pts, tol: float = 0.0, skip=()):
    """Which of `pts` satisfy c's sign on every sphere outside `skip`."""
    mask = np.ones(len(pts), dtype=bool)
    for j in range(1, a.n + 2):
        if j not in skip:
            mask &= c.sign(j) * evaluate_f(a, j, pts) >= -tol
    return mask


def _simplex_rows(a):
    """The center simplex as rows P (n+1, n), q (n+1,): P x + q >= 0 inside.

    Row i < n is the barycentric coordinate lambda_i of x relative to
    the last center, and row n is 1 - sum lambda.  Stored, read-only.
    """
    def build():
        P = np.empty((a.n + 1, a.n))
        P[:-1] = np.linalg.inv((a.centers[:-1] - a.centers[-1]).T)
        P[-1] = -P[:-1].sum(axis=0)
        q = -(P @ a.centers[-1])
        q[-1] += 1.0
        P.flags.writeable = q.flags.writeable = False
        return P, q

    return _stored(a, "simplex_rows", build)


def _simplex_mask(rows, pts, tol: float = 0.0):
    P, q = rows
    return (pts @ P.T + q >= -tol).all(axis=1)


def _sampling_box(a, c: Chamber):
    """(lo, hi) of the box rejection sampling draws from for chamber c.

    The minus balls' boxes intersected, or for the all-plus chamber the
    box of the center simplex; lo >= hi on some axis means empty.
    """
    minus = c.minus_set()
    if not minus:
        return a.centers.min(axis=0), a.centers.max(axis=0)
    return (np.max([a.center(j) - a.radius(j) for j in minus], axis=0),
            np.min([a.center(j) + a.radius(j) for j in minus], axis=0))


def _line_measure(lo, hi, c: Chamber, window, n: int):
    """Sum of F(end) - F(begin) over chamber c's pieces on N lines.

    Ball j meets line i in [lo, hi][j, i] of its coordinate t (a point
    if it misses).  The pieces are the window, the minus balls'
    intervals intersected (the all-plus chamber's is the simplex's,
    `window` = (lo, hi); None otherwise), minus the plus balls'
    intervals.  F(t) = t |t|^(n-1), n >= 2, increases, so the ends are
    mapped first.  The starts and the ends of the plus intervals are
    sorted apart by min/max networks: t is uncovered when the k-th
    smallest end is <= t, k the number of starts <= t, so the k-th piece
    runs from the k-th end to the (k+1)-th start.
    """
    minus = [j - 1 for j in c.minus_set()]
    plus = [j - 1 for j in range(1, len(c.signs) + 1) if c.sign(j) > 0]
    if minus:
        wlo = functools.reduce(np.maximum, [lo[j] for j in minus])
        whi = functools.reduce(np.minimum, [hi[j] for j in minus])
    else:
        wlo, whi = window

    def F(t):   # t |t|^(n-1) by repeated multiplication, t^n for odd n
        out = t * (t if n % 2 else np.abs(t))
        for _ in range(n - 2):
            out *= t
        return out

    whi = np.maximum(whi, wlo)
    wlo, whi = F(wlo), F(whi)
    los = [np.minimum(F(lo[j]), whi) for j in plus]
    his = [np.maximum(F(hi[j]), wlo) for j in plus]
    for i in range(len(plus) - 1, 0, -1):
        for k in range(i):
            for r in (los, his):
                r[k], r[k + 1] = (np.minimum(r[k], r[k + 1]),
                                  np.maximum(r[k], r[k + 1]))
    return functools.reduce(np.add, [np.maximum(s - e, 0.0) for s, e in
                                     zip(los + [whi], [wlo] + his)])


# ---------------------------------------------------------------------------
# Monte Carlo chamber and face volumes
# ---------------------------------------------------------------------------


def chamber_volume_mc(a, c: Chamber, samples: int, rng: Rng,
                      bounding=None) -> VolumeEstimate:
    """Rejection-sampled volume of a chamber.

    For chambers with a minus sign the sampling box is the intersection
    of the minus-ball boxes.  The all-plus sign region is unbounded; the
    caller must pass ``bounding="simplex"`` to select the bounded
    component inside the center simplex.
    """
    _check_chamber(a, c)
    rows = _simplex_rows(a) if _needs_simplex(c, bounding) else None
    lo, hi = _sampling_box(a, c)
    if np.any(hi <= lo):
        return VolumeEstimate(0.0, 0.0, samples, "mc")
    box = float(np.prod(hi - lo))
    width = hi - lo

    def hit_fn(gen, cnt):
        pts = lo + width * gen.random((cnt, a.n))
        mask = _signs_mask(a, c, pts)
        if rows is not None:
            mask &= _simplex_mask(rows, pts)
        return mask.sum()

    f = _mc_fraction(samples, rng, hit_fn)
    return VolumeEstimate(box * f, box * math.sqrt(f * (1.0 - f) / samples),
                          samples, "mc")


def _needs_simplex(c: Chamber, bounding) -> bool:
    """Whether c is all-plus, which needs ``bounding="simplex"``."""
    if c.minus_set():
        return False
    if bounding != "simplex":
        raise ValueError(
            "all-plus chamber is unbounded; pass bounding='simplex' for the "
            "component inside the center simplex")
    return True


def unit_sphere_area(m: int) -> float:
    """Surface measure of the unit m-sphere in R^{m+1}; m = 0 gives 2."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def face_volume_mc(a, c: Chamber, J, samples: int, rng: Rng,
                   bounding=None) -> VolumeEstimate:
    """Hausdorff measure of S_J intersected with the chamber boundary.

    Samples the (n-p)-sphere S_J uniformly and scores the sign
    constraints of the spheres outside J.  For |J| = n the result is the
    exact count of the two points lying on the boundary.  All-plus
    chambers need ``bounding="simplex"`` exactly as in
    `chamber_volume_mc` (the far side of each sphere satisfies the sign
    constraints without bounding the gap component).
    """
    _check_chamber(a, c)
    J = tuple(sorted(J))
    sub = intersection_sphere(a, J)
    rows = _simplex_rows(a) if _needs_simplex(c, bounding) else None
    m = a.n - len(J)
    if m == 0:
        pts = sub.center + np.multiply.outer([sub.radius, -sub.radius],
                                             sub.basis[0])
        tol = 1e-9 * float(np.max(a.radii)) ** 2
        ok = _signs_mask(a, c, pts, tol, skip=J)
        if rows is not None:
            ok &= _simplex_mask(rows, pts, tol=1e-9)
        return VolumeEstimate(float(ok.sum()), 0.0, 2, "count")
    area = unit_sphere_area(m) * sub.radius ** m

    def hit_fn(gen, cnt):
        g = gen.normal(size=(cnt, m + 1))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts = sub.center + sub.radius * (g @ sub.basis)
        mask = _signs_mask(a, c, pts, skip=J)
        if rows is not None:
            mask &= _simplex_mask(rows, pts)
        return mask.sum()

    f = _mc_fraction(samples, rng, hit_fn)
    return VolumeEstimate(area * f, area * math.sqrt(f * (1.0 - f) / samples),
                          samples, "mc")


# ---------------------------------------------------------------------------
# the spherical-region kernel
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi
#: tolerance of the two-point count (m = 0); constraint rows from
#: `face_constraints` are scaled so that it matches `face_volume_mc`
COUNT_TOL = 1e-9
#: fibres (or lines, for `_ray_scores`, whose sub-chunks hold whole
#: frames) per sub-chunk of an RNG block: the arc and line intersections
#: hold about a dozen (fibres, K) arrays, so a sub-chunk keeps the working
#: set of a block no larger than the indicator estimators'
FIBRE_CHUNK = 4096
#: absolute accuracy of an m = 2 area (`_region_area`), which the
#: unit-sphere finite difference's step guard assumes; the tests hold the
#: areas of rotated regions to a tenth of it
AREA_TOL = 1e-12
#: normalized rows (h, b) of an m = 2 region that agree to this are one
#: circle, given twice
SAME_ROW_TOL = 1e-15


def _half_width(A, B):
    """Half the arc {t : A + B cos t >= 0}: arccos(-A/B), pi when A >= B."""
    return np.arccos(np.clip(-A / np.maximum(B, 1e-300), -1.0, 1.0))


def _arcs(half, phase):
    """Feasible arcs of circles on which constraint k allows the t within
    half_k of phase_k (A + B cos(t - phase) >= 0 has `_half_width(A, B)`).

    `half` is (N, K): one row per circle, one column per constraint;
    `phase` is (K,), or (N, K) for a phase per row; it broadcasts.
    Constraint k alone allows the arc [s_k, s_k + w_k) of t with
    s_k = phase_k - half_k and w_k = 2 half_k.  The intersection lies
    in the narrowest arc r, so it is the window [s_r, s_r + w_r) minus
    the gap of every arc.  Because w_k >= w_r, each gap meets the window
    in one interval; their starts and ends, sorted apart, bound the
    pieces as in `_line_measure`.  Returns (start, length), both
    (N, K+1): the feasible pieces between the merged gaps, some of
    length 0 (with an arbitrary start).
    """
    width = 2.0 * half
    start = np.subtract(phase, half)
    rows = np.arange(len(half))[:, None]
    r = width.argmin(axis=1)[:, None]
    s_r, w_r = start[rows, r], width[rows, r]
    # arc k relative to s_r: [sig, sig + w), so its gap is [sig + w - 2pi, sig)
    sig = np.subtract(start, s_r, out=start)
    np.remainder(sig, TWO_PI, out=sig)
    lo = sig + width - TWO_PI
    hi = np.minimum(sig, w_r, out=sig)
    empty = hi <= lo
    lo[empty] = hi[empty] = np.broadcast_to(w_r, lo.shape)[empty]
    lo.sort(axis=1)
    hi.sort(axis=1)
    begin = np.concatenate([np.zeros_like(w_r), hi], axis=1)
    length = np.concatenate([lo, w_r], axis=1)
    np.subtract(length, begin, out=length)
    np.maximum(length, 0.0, out=length)
    begin += s_r
    np.remainder(begin, TWO_PI, out=begin)
    return begin, length


def _binding(alpha, beta):
    """Drop constraints that never bind; None if one is never satisfied."""
    amp = np.linalg.norm(beta, axis=1)
    if np.any(alpha < -amp):
        return None
    keep = alpha < amp
    return alpha[keep], beta[keep]


def _region_rows(m: int, alpha, beta):
    """The rows of a region on S^m that its kernel measures, or the
    region's measure when no kernel is needed.

    m = 0 keeps every row, since the two-point count has a tolerance.
    m >= 1 keeps the binding rows (`_binding`): a row that is never met
    gives 0, no binding row gives |S^m|.  m = 2 also keeps the first of
    rows whose normalized (h, b) agree to `SAME_ROW_TOL`, so a circle
    given twice bounds the region once.  Returns a float or (alpha, beta).
    """
    if m == 0:
        return alpha, beta
    rows = _binding(alpha, beta)
    if rows is None or not len(rows[0]):
        return 0.0 if rows is None else unit_sphere_area(m)
    if m != 2:
        return rows
    alpha, beta = rows
    hb = np.column_stack([alpha, beta])
    hb /= np.linalg.norm(beta, axis=1)[:, None]         # (-h, b)
    same = np.abs(hb[:, None] - hb).max(axis=2) <= SAME_ROW_TOL
    if np.count_nonzero(same) == len(same):            # the diagonal only
        return alpha, beta
    keep = ~np.tril(same, -1).any(axis=1)
    return alpha[keep], beta[keep]


def _circle_arcs(alpha, beta):
    """(start, length), both (S, K+1), of the arcs
    {t : alpha_k + beta_k . (cos t, sin t) >= 0 for all k} of S circles
    with K binding rows each; alpha (S, K), beta (S, K, 2)."""
    amp = np.hypot(beta[..., 0], beta[..., 1])
    return _arcs(_half_width(alpha, amp),
                 np.arctan2(beta[..., 1], beta[..., 0]))


def _fibre_frame(beta):
    """Orthonormal rows e1, e2, ... with e1 the region's centre direction.

    The centre direction is the normalized sum of the unit constraint
    normals; the circle fibres lie in planes parallel to span(e1, e2).
    """
    d = (beta / np.linalg.norm(beta, axis=1, keepdims=True)).sum(axis=0)
    norm = np.linalg.norm(d)
    d = d / norm if norm > 1e-12 else np.eye(len(d))[0]
    q, _ = np.linalg.qr(np.column_stack([d, np.eye(len(d))]))
    return q.T


def _fibre_lengths(y, alpha, perp, amp, phase):
    """Exact feasible arc length of the fibres at heights y, (N, m-1).

    The fibre at y is g = y + sqrt(1 - |y|^2) (cos t e1 + sin t e2), on
    which constraint k reads A_k + B_k cos(t - phase_k) >= 0 with
    A = alpha + y . perp and B = sqrt(1 - |y|^2) amp.  Only fibres that
    meet every constraint enter the arc intersection; the rest give 0.
    """
    A = y @ perp.T
    A += alpha
    B = np.sqrt(np.maximum(1.0 - np.einsum("ij,ij->i", y, y), 0.0))
    B = B[:, None] * amp
    out = np.zeros(len(y))
    meets = (A + B > 0.0).all(axis=1)
    if meets.any():
        out[meets] = _arcs(_half_width(A[meets], B[meets]),
                           phase)[1].sum(axis=1)
    return out


#: pole candidates of `_region_area` besides +-b_k: the axes and the cube
#: diagonals (the octant's circles pass through every axis)
_POLES = np.vstack([np.eye(3), -np.eye(3), np.array(list(
    itertools.product((1.0, -1.0), repeat=3))) / math.sqrt(3.0)])


def _region_area(alpha, beta):
    """Exact measures of S regions {g in S^2 : alpha_k + beta_k . g >= 0}.

    alpha is (S, K) and beta (S, K, 3): K binding rows per region, all
    different (`_region_rows` prepares them); returns the S areas.
    Row k is the cap b_k . g >= h_k (b = beta / |beta|, h = -alpha /
    |beta|) inside the circle g = h b + rho (cos t u + sin t v), rho =
    sqrt(1 - h^2), with (u, v, b) right-handed: the region lies on the
    left as t grows.  With phi the azimuth about a pole N, dA =
    d((1 - N . g) dphi) on S^2 minus -N, so by Stokes' theorem the area
    is that one-form summed over the boundary arcs, plus 4 pi when -N
    is in the region.  On circle k it reads
    (-h + (h + a0) / (A + B cos(t - tau))) dt, a0 = N . b, A = 1 + h a0,
    B = rho |(N . u, N . v)|, tau = atan2(N . v, N . u).  As
    A^2 - B^2 = (h + a0)^2, an arc of length L adds
    -h L + 2 sgn(h + a0) (Phi(x1) - Phi(x0)), x = (t - tau) / 2, where
    Phi(x) = x + atan2((kappa - 1) sin x cos x, cos^2 x + kappa sin^2 x),
    kappa = |h + a0| / (A + B), is the continuous branch of
    atan(kappa tan x).  Each region's N is the axis, cube diagonal or
    +-b_k whose antipode keeps the largest angle to every circle.

    The arcs are the rows on each circle, in one `_arcs` call for all
    S K circles: on circle k, row j reads A_kj + B_kj cos(t - phase_kj)
    >= 0 with A_kj = h_k (b_j . b_k) - h_j and B_kj = rho_k |w_perp|,
    where w = b_j - s b_k (s the sign of b_j . b_k) gives b_j . b_k =
    s (1 - |w|^2 / 2), so nearly coinciding circles keep their
    crossings.  The two circles of a pair take their half-widths from
    one value D = B_kj^2 - A_kj^2 (the same for both up to rounding), so
    their arcs end at the same points where they nearly touch.  A circle
    given with both sides has two whole arcs that cancel and leave
    measure 0.
    """
    S, K = alpha.shape
    norm = np.linalg.norm(beta, axis=2)
    b, h = beta / norm[..., None], -alpha / norm
    rho = np.sqrt(1.0 - h * h)
    u = np.cross(b, np.eye(3)[np.abs(b).argmin(axis=2)])
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    v = np.cross(b, u)
    bT = b.transpose(0, 2, 1)
    s = np.where(b @ bT < 0.0, -1.0, 1.0)                 # [., k, j]
    w = b[:, None] - s[..., None] * b[:, :, None]         # b_j - s b_k
    hk = h[:, :, None]
    A_kj = (s * hk - h[:, None]) \
        - 0.5 * s * hk * np.einsum("skjx,skjx->skj", w, w)
    wu = np.einsum("skjx,skx->skj", w, u)
    wv = np.einsum("skjx,skx->skj", w, v)
    B_kj = rho[..., None] * np.hypot(wu, wv)
    D = (B_kj - A_kj) * (B_kj + A_kj)
    D = 0.5 * (D + D.transpose(0, 2, 1))     # one value per pair of circles
    half = np.arctan2(np.sqrt(np.maximum(D, 0.0)), -A_kj)
    half[:, range(K), range(K)] = math.pi    # a circle does not cut itself
    start, length = (x.reshape(S, K, K + 1) for x in _arcs(
        half.reshape(S * K, K), np.arctan2(wv, wu).reshape(S * K, K)))
    cand = np.concatenate([np.broadcast_to(_POLES, (S,) + _POLES.shape),
                           b, -b], axis=1)
    ang = np.arccos(np.clip(-cand @ bT, -1.0, 1.0))
    pick = np.abs(ang - np.arccos(h)[:, None]).min(axis=2).argmax(axis=1)
    N = cand[np.arange(S), pick][..., None]                   # (S, 3, 1)
    a0 = (b @ N)[..., 0]
    uN, vN = (u @ N)[..., 0], (v @ N)[..., 0]
    A, B = 1.0 + h * a0, rho * np.hypot(uN, vN)
    kappa = (np.abs(h + a0) / (A + B))[..., None]
    x0 = 0.5 * (start - np.arctan2(vN, uN)[..., None])

    def Phi(x):
        sin, cos = np.sin(x), np.cos(x)
        return x + np.arctan2((kappa - 1.0) * sin * cos,
                              cos * cos + kappa * sin * sin)

    total = (-h * length.sum(axis=2)).sum(axis=1) + 2.0 * (
        np.sign(h + a0)[..., None] * (Phi(x0 + 0.5 * length) - Phi(x0))
    ).sum(axis=(1, 2))
    total += np.where((-a0 >= h).all(axis=1), 2.0 * TWO_PI, 0.0)
    return np.maximum(total, 0.0)      # a measure-0 region may round below 0


#: the method of an exact region of each dimension m <= 2; a region of
#: any m whose measure needs no kernel is "closed"
_EXACT_BY_DIM = ("count", "arc", "closed")


def _measure(m: int, regions, samples: int, rngs) -> list:
    """`VolumeEstimate`s of the regions [(alpha, beta), ...] on S^m.

    Each region's rows go through `_region_rows` alone.  m <= 2 is exact
    and draws nothing: the regions left with the same row count K are
    stacked, (S, K) and (S, K, m+1), and measured by one kernel call,
    the count of the points g = +-1 that meet every row (tolerance
    `COUNT_TOL`), the arc lengths of `_circle_arcs` or the areas of
    `_region_area`.  m >= 3 measures region i by `samples` circle
    fibres on `rngs[i]` (`_fibres`); `rngs` is read only there.
    """
    out = [None] * len(regions)
    groups = {}
    for i, (alpha, beta) in enumerate(regions):
        rows = _region_rows(m, alpha, beta)
        if isinstance(rows, float):
            out[i] = VolumeEstimate(rows, 0.0, 0, _EXACT_BY_DIM[min(m, 2)])
        elif m > 2:
            out[i] = _fibres(m, *rows, samples, rngs[i])
        else:
            groups.setdefault(len(rows[0]), []).append((i, rows))
    for group in groups.values():
        alpha = np.array([rows[0] for _, rows in group])
        beta = np.array([rows[1] for _, rows in group])
        if m == 0:
            b = beta[..., 0]
            values = ((alpha + b >= -COUNT_TOL).all(axis=1).astype(float)
                      + (alpha - b >= -COUNT_TOL).all(axis=1)).tolist()
        elif m == 1:
            values = [math.fsum(x) for x in
                      _circle_arcs(alpha, beta)[1].tolist()]
        else:
            values = _region_area(alpha, beta).tolist()
        for (i, _), value in zip(group, values):
            out[i] = VolumeEstimate(value, 0.0, 2 if m == 0 else 0,
                                    _EXACT_BY_DIM[m])
    return out


def _fibres(m: int, alpha, beta, samples: int, rng: Rng) -> VolumeEstimate:
    """Measure of a region on S^m, m >= 3, with binding rows only, by
    circle fibres g = y + sqrt(1 - |y|^2) (cos t e1 + sin t e2), y in
    the unit (m-1)-ball orthogonal to e1, e2.  The surface measure is
    exactly dy dt, so the measure is vol(B^(m-1)) times the mean exact
    feasible arc length of fibres with y uniform in the ball
    ("conditional-mc"; `std_error` per fibre, `samples` fibres, drawn
    on `rng`, so the result depends only on (seed, stream, samples)).
    """
    blocks = _blocks(samples, rng)
    proj = beta @ _fibre_frame(beta).T          # (K, m+1) in the fibre frame
    amp = np.hypot(proj[:, 0], proj[:, 1])
    phase = np.arctan2(proj[:, 1], proj[:, 0])
    perp = proj[:, 2:]
    k = m - 1

    def arcs():
        for gen, cnt in blocks:
            y = gen.normal(size=(cnt, k))
            y *= (gen.random(cnt) ** (1.0 / k)
                  / np.linalg.norm(y, axis=1))[:, None]
            for lo in range(0, cnt, FIBRE_CHUNK):
                yield _fibre_lengths(y[lo:lo + FIBRE_CHUNK], alpha, perp,
                                     amp, phase)

    mean, err = _mean_error(arcs(), samples)
    ball = unit_sphere_area(m) / TWO_PI          # vol(B^(m-1))
    return VolumeEstimate(ball * mean, ball * err, samples, "conditional-mc")


def sphere_region(alpha, beta, samples: int, rng: Rng) -> VolumeEstimate:
    """Measure of the region {g in S^m : alpha_k + beta_k . g >= 0 for all k}.

    `alpha` has K entries and `beta` is (K, m+1); with no rows (K = 0)
    the region is the whole sphere, |S^m| ("closed").  Otherwise
    `_measure` decides, as a batch of one: m = 0 counts the two points
    g = +-1 ("count"), m = 1 intersects arcs ("arc"), m = 2 takes the
    area from the boundary arcs ("closed"), none of them drawing; m >= 3
    draws `samples` circle fibres on `rng` ("conditional-mc").  Rows
    that never bind are dropped, and a row never met gives an exact 0.
    """
    alpha = np.asarray(alpha, float).reshape(-1)
    beta = np.asarray(beta, float)
    beta = beta.reshape(len(alpha), beta.shape[1] if beta.ndim == 2 else -1)
    m = beta.shape[1] - 1
    if not len(alpha):
        return VolumeEstimate(unit_sphere_area(m), 0.0, 0, "closed")
    return _measure(m, [(alpha, beta)], samples, [rng])[0]


def face_constraints(a, c: Chamber, J):
    """The face S_J of chamber c as the region of `sphere_region`.

    A point of S_J is x = center + R (g @ basis) with g on the unit
    m-sphere, m = n - |J|.  For each sphere k outside J,
    sign_k f_k(x) = sign_k (|center - O_k|^2 + R^2 - r_k^2
    + 2R (basis (center - O_k)) . g), scaled by 1 / max r^2; an all-plus
    chamber adds the barycentric rows lambda_i >= 0 and
    1 - sum lambda >= 0 that select the gap component inside the center
    simplex.  Returns (alpha, beta, R).
    """
    sub = intersection_sphere(a, tuple(sorted(J)))
    R = sub.radius
    out = [k for k in range(a.n + 1) if k + 1 not in sub.J]
    s = np.array([c.signs[k] for k in out]) / a.radii.max() ** 2
    d = sub.center - a.centers[out]
    alpha = s * ((d * d).sum(axis=1) + (R * R - a.radii[out] ** 2))
    beta = d @ sub.basis.T
    beta *= (2.0 * R * s)[:, None]
    if not c.minus_set():
        P, q = _simplex_rows(a)
        alpha = np.concatenate([alpha, P @ sub.center + q])
        beta = np.vstack([beta, R * (P @ sub.basis.T)])
    return alpha, beta, R


def config_face_constraints(m: ConfigMatrix, J):
    """The face on the planes in J of the restricted model's region.

    The twin of `face_constraints` for the region
    {x in S^(n-1) : u_j . x + u_j0 <= 0 for all j} of `m`.  The planes
    in J cut the unit sphere in a sphere of dimension n - 1 - |J| with
    centre c, the point of their intersection nearest the origin, and
    radius R = sqrt(1 - |c|^2).  A point of it is x = c + R (g @ basis),
    on which plane k outside J reads
    -(u_k . c + u_k0) - R (basis u_k) . g >= 0.  Returns (alpha, beta,
    R); planes that do not meet on the sphere (parallel, or meeting
    outside it) give an empty face: one row that is never met, and
    R = 0.  J = () is the region itself, with R = 1; |J| >= n, a face
    of negative dimension, raises ValueError.
    """
    idx = [j - 1 for j in J]
    p = len(idx)
    if p >= m.n:
        raise ValueError(f"the face on the planes {tuple(J)} has dimension "
                         f"{m.n - 1 - p} < 0: |J| must be below n = {m.n}")
    empty = np.full(1, -1.0), np.zeros((1, m.n - p)), 0.0
    W, s, Vt = np.linalg.svd(m.normals[idx])
    if p and s[-1] <= 1e-12 * s[0]:
        return empty
    c = Vt[:p].T @ ((W.T @ -m.offsets[idx]) / s)
    R2 = 1.0 - c @ c
    if R2 <= 0.0:
        return empty
    R = math.sqrt(R2)
    rest = [k for k in range(m.n) if k not in idx]
    U, off = m.normals[rest], m.offsets[rest]
    return -(U @ c + off), -R * (U @ Vt[p:].T), R


# ---------------------------------------------------------------------------
# caps and lenses
# ---------------------------------------------------------------------------


def sin_power_integral(m: int, theta: float) -> float:
    """int_0^theta sin^m t dt by the stable reduction recurrence."""
    if m < 0:
        raise ValueError("power must be >= 0")
    if m == 0:
        return theta
    if m == 1:
        return 1.0 - math.cos(theta)
    return (-math.cos(theta) * math.sin(theta) ** (m - 1)
            + (m - 1) * sin_power_integral(m - 2, theta)) / m


def cap_integral(n: int, t0: float) -> float:
    """int_{t0}^1 (1 - tau^2)^((n-1)/2) dtau.

    Substitutes tau = cos t and uses the finite sine-power recurrence.
    """
    if not -1.0 <= t0 <= 1.0:
        raise ValueError("t0 must lie in [-1, 1]")
    return sin_power_integral(n, math.acos(t0))


def _lens_half_angles(r1, r2, rho):
    c1 = (rho * rho + r1 * r1 - r2 * r2) / (2.0 * rho * r1)
    c2 = (rho * rho + r2 * r2 - r1 * r1) / (2.0 * rho * r2)
    return math.acos(max(-1.0, min(1.0, c1))), math.acos(max(-1.0, min(1.0, c2)))


def lens_volume_closed(n: int, r1: float, r2: float, rho: float) -> float:
    """Volume of the intersection of two n-balls with center distance rho:
    the sum of two hyperspherical caps."""
    if rho >= r1 + r2:
        raise EmptyIntersectionError("balls do not overlap")
    if rho <= abs(r1 - r2):
        raise EmptyIntersectionError("one ball is nested inside the other")
    h1, h2 = _lens_half_angles(r1, r2, rho)
    out = 0.0
    for r, h in ((r1, h1), (r2, h2)):
        out += unit_sphere_area(n - 2) / (n - 1) * r ** n \
            * sin_power_integral(n, h)
    return out


# ---------------------------------------------------------------------------
# closed forms for n = 2 chambers, of an Arrangement or a ParamVector and
# stored on the ParamVector; they read the squared parameters only
# ---------------------------------------------------------------------------


def _pair_data(a):
    """Half-angles psih[(j,k)] and triangle angles phi for n = 2 (stored)."""
    def build():
        psih = {}
        for j, k in ((1, 2), (1, 3), (2, 3)):
            pjk, pkj = angles_pair(a, j, k)
            psih[(j, k)] = 0.5 * pjk
            psih[(k, j)] = 0.5 * pkj
        return psih, dict(zip((1, 2, 3), triangle_angles(a)))

    return _stored(_as_params(a), "pair_data", build)


def chamber_arc_angles(a, c: Chamber) -> dict:
    """Opening angle of the boundary arc of each circle, n = 2.

    For sign patterns with a minus entry this is pure inclusion and
    exclusion of the in-disk arcs; for the all-plus chamber it is the
    gap arc phi_j - psi_jk/2 - psi_jl/2 of the bounded component.
    Assumes the hypotheses appropriate to the chamber hold, so that the
    region has the standard arc structure.
    """
    if a.n != 2:
        raise ValueError("arc angles are defined for n = 2")
    psih, phi = _pair_data(a)
    out = {}
    for j in (1, 2, 3):
        k, l = (m for m in (1, 2, 3) if m != j)
        tri = psih[(j, k)] + psih[(j, l)] - phi[j]
        if not c.minus_set():
            out[j] = phi[j] - psih[(j, k)] - psih[(j, l)]
        else:
            sk, sl = c.sign(k), c.sign(l)
            if sk < 0 and sl < 0:
                out[j] = tri
            elif sk < 0:
                out[j] = 2.0 * psih[(j, k)] - tri
            elif sl < 0:
                out[j] = 2.0 * psih[(j, l)] - tri
            else:
                out[j] = 2.0 * math.pi - 2.0 * psih[(j, k)] \
                    - 2.0 * psih[(j, l)] + tri
    return out


def pseudo_triangle_area_closed(a) -> float:
    """Area of the all-minus chamber for n = 2: the three-arc region of
    `chamber_area_closed_n2` (needs H1)."""
    return chamber_area_closed_n2(a, Chamber.all_minus(2))


def simplex_volume(a) -> float:
    """Euclidean volume of the simplex spanned by the n+1 centers."""
    E = a.centers[:-1] - a.centers[-1]
    scale = float(np.max(np.abs(E))) ** a.n
    det = float(np.linalg.det(E))
    if abs(det) < 1e-12 * scale:
        raise DegenerateConfigError("centers are affinely dependent")
    return abs(det) / math.factorial(a.n)


def chamber_area_closed_n2(a, c: Chamber) -> float:
    """Closed-form area of any n = 2 chamber, from the pair angles alone.

    The three-arc region (triangle minus corner sectors plus half
    lenses) is the all-minus chamber (needs H1) and the gap (needs H1'
    and a positive gap arc on every circle, `_require_gap`, which put
    every sector and inner half lens in the centre triangle).  One or
    two minus signs (needs H1): inclusion-exclusion of disk, lens and
    three-arc areas.  Stored per chamber.
    """
    if a.n != 2:
        raise ValueError("closed area path is for n = 2")
    return _stored(_as_params(a), ("area", c.signs), lambda: _area_n2(a, c))


def _require_gap(a, what: str):
    """`require_hypothesis(a, "h1_prime", what)`; at n = 2 also
    HypothesisError unless every gap arc is positive, and at n = 3 unless
    every gap face (k,) has positive area (exact, and stored)."""
    require_hypothesis(a, "h1_prime", what)
    if a.n == 2:
        for j, t in chamber_arc_angles(a, Chamber.all_plus(2)).items():
            if t <= 0.0:
                raise HypothesisError(
                    f"gap arc of circle {j} is {t:.3g} <= 0; {what}")
    elif a.n == 3:
        faces = _faces(a, Chamber.all_plus(3),
                       dict.fromkeys([(k,) for k in range(1, 5)]), 0)
        for (k,), face in faces.items():
            if face.value <= 0.0:
                raise HypothesisError(
                    f"gap face on sphere {k} has measure 0; {what}")


def _area_n2(a, c: Chamber) -> float:
    minus = c.minus_set()
    if minus:
        require_hypothesis(a, "h1", "the three-arc region does not exist")
    else:
        _require_gap(a, "bounded gap chamber undefined")
    psih, phi = _pair_data(a)
    r2 = dict(zip((1, 2, 3), _as_params(a).radii_sq.tolist()))
    # seg[(j, k)]: the part of disk j on circle k's side of their common
    # chord; seg[(j, k)] + seg[(k, j)] is the jk lens
    seg = {jk: 0.5 * r2[jk[0]] * (2.0 * h - math.sin(2.0 * h))
           for jk, h in psih.items()}
    table = CMTable.from_arrangement(a)
    tri = 0.25 * math.sqrt(-table.chain(("0", 1, 2, 3), ("0", 1, 2, 3)))
    for j in (1, 2, 3):
        tri -= 0.5 * r2[j] * phi[j]
    for v in seg.values():
        tri += 0.5 * v
    if len(minus) in (0, 3):
        return tri

    def lens(j, k):
        return seg[(j, k)] + seg[(k, j)]

    if len(minus) == 2:
        return lens(*minus) - tri
    (j,) = minus
    k, l = (m for m in (1, 2, 3) if m != j)
    return math.pi * r2[j] - lens(j, k) - lens(j, l) + tri


#: the largest n whose frames rotate the cube's axes; above it a frame
#: is n orthonormal lines, so its size stays n
CUBE_AXES_MAX_N = 4


@functools.lru_cache(maxsize=None)
def _frame_axes(n: int) -> np.ndarray:
    """The K lines of a frame before its rotation, (K, n), read-only.

    For n <= `CUBE_AXES_MAX_N` the K = (3^n - 1) / 2 axes of the cube
    [-1, 1]^n: one unit vector per line through the origin and a nonzero
    point of {-1, 0, 1}^n, the one whose first nonzero coordinate is
    positive.  Above it the n coordinate axes, K = n, since K grows as
    3^n and the cube's gain was measured only up to n = 4.  Both sets
    are invariant under coordinate permutations and sign flips.
    """
    if n > CUBE_AXES_MAX_N:
        axes = np.eye(n)
    else:
        pts = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
        first = pts[np.arange(len(pts)), (pts != 0.0).argmax(axis=1)]
        axes = pts[first > 0.0]
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    axes.flags.writeable = False
    return axes


def _frames(gen: np.random.Generator, count: int, n: int) -> np.ndarray:
    """`count` Haar-random orthogonal matrices (count, n, n), rows
    orthonormal: Gram-Schmidt of n standard-normal rows each, with each
    projection taken twice so that rows stay orthogonal to rounding."""
    Q = gen.standard_normal((n, n, count))      # Q[i]: row i of every frame
    for i in range(n):
        for j in list(range(i)) * 2:
            Q[i] -= (Q[i] * Q[j]).sum(axis=0) * Q[j]
        Q[i] /= np.sqrt((Q[i] * Q[i]).sum(axis=0))
    return Q.transpose(2, 0, 1)


def _ray_scores(arrs, c: Chamber, samples: int, rng: Rng):
    """Scores of chamber c in each of `arrs` on the same `samples` lines.

    The lines x0 + t w run through x0, the mean over `arrs` of the mean
    of the minus balls' centres (of all centres for the all-plus chamber,
    the gap in the centre simplex); each scores the exact integral of
    |t|^(n-1) over the chamber's pieces, n times over (`_line_measure`).
    The directions w come in frames: one Haar-random rotation of K fixed
    axes (`_frame_axes`) gives K evenly spread lines.  Each RNG block
    draws its frames and takes its lines frame by frame, the last frame
    cut short, so the scores depend only on (seed, stream, samples).
    Yields per chunk of whole frames the frame sums (len(arrs), F), the
    frame sizes k (F,) and the line scores (len(arrs), N).  `samples`
    must exceed K, as an error over frames needs two (ValueError).
    """
    n = arrs[0].n
    minus = [j - 1 for j in c.minus_set()]
    x0 = np.mean([(a.centers[minus] if minus else a.centers).mean(axis=0)
                  for a in arrs], axis=0)
    geometry = []
    for a in arrs:
        D = a.centers - x0
        P = None
        if not minus:
            # x0 + t w is in the simplex iff 1 + t (P w)_i >= 0 on every row
            P, q = _simplex_rows(a)
            P = P / (P @ x0 + q)[:, None]
        e = (np.einsum("ij,ij->i", D, D) - a.radii ** 2)[:, None]
        geometry.append((D, e, P))
    axes = _frame_axes(n)
    K = len(axes)
    if samples <= K:
        raise ValueError(f"samples must exceed the {K} lines of one frame "
                         f"to estimate the error over frames")
    per_chunk = max(FIBRE_CHUNK // K, 1)        # whole frames per chunk
    for gen, cnt in _blocks(samples, rng):
        frames = _frames(gen, -(-cnt // K), n)
        for f in range(0, len(frames), per_chunk):
            W = (axes @ frames[f:f + per_chunk]).reshape(-1, n)
            W = W[:cnt - f * K].T
            x = np.empty((len(arrs), W.shape[1]))
            for s, (D, e, P) in enumerate(geometry):
                mid = D @ W
                h = np.sqrt(np.maximum(mid * mid - e, 0.0))
                window = None
                if P is not None:       # max u > 0 > min u: x0 is inside
                    u = P @ W
                    window = -1.0 / u.max(axis=0), -1.0 / u.min(axis=0)
                x[s] = _line_measure(mid - h, mid + h, c, window, n)
            starts = np.arange(0, x.shape[1], K)
            k = np.minimum(x.shape[1] - starts, float(K))   # frame sizes
            yield np.add.reduceat(x, starts, axis=1), k, x


def chamber_volume(a, c: Chamber, samples: int = 1_000_000,
                   rng: "Rng | None" = None) -> VolumeEstimate:
    """Chamber volume: the closed form for n = 2, else rays through x0.

    Otherwise ("conditional-mc") the volume is |S^(n-1)| / 2n times the
    mean score of `samples` lines (`_ray_scores`), by polar coordinates
    about x0, and `std_error` is taken over their frames.
    `fallback_reason` names a raised n = 2 closed form; a chamber of the
    wrong length or `samples` within one frame raises ValueError.
    """
    _check_chamber(a, c)
    reason = None
    if a.n == 2:
        try:
            return VolumeEstimate(chamber_area_closed_n2(a, c), 0.0, 0,
                                  "closed")
        except SphexError as e:
            reason = _closed_form_failed(e)
    rng = rng if rng is not None else Rng(0)
    mean, err = _mean_error(((S[0], k) for S, k, _ in
                             _ray_scores((a,), c, samples, rng)), samples)
    half = unit_sphere_area(a.n - 1) / (2 * a.n)   # |S^(n-1)| / 2n
    return VolumeEstimate(half * mean, half * err, samples, "conditional-mc",
                          fallback_reason=reason)


def _closed_form_failed(err: SphexError) -> str:
    return f"closed form unavailable: {type(err).__name__}: {err}"


def face_volume(a, c: Chamber, J, samples: int = 1_000_000,
                rng: "Rng | None" = None) -> VolumeEstimate:
    """Face measure v_J: `_faces` of the one face J, drawing on `rng`:
    exact for |J| >= n - 2 (and stored on `a`), conditional MC with
    `samples` fibres below.  A chamber of the wrong length raises
    ValueError."""
    _check_chamber(a, c)
    J = tuple(sorted(J))
    return _faces(a, c, {J: rng if rng is not None else Rng(0)}, samples)[J]


def _faces(a, c: Chamber, streams: dict, samples: int) -> dict:
    """v_J of chamber c for each sorted J of `streams` (J -> the `Rng`
    face J may draw on), as dict J -> `VolumeEstimate` in that order.

    At n = 2 a face (k,) is the closed arc of `chamber_arc_angles` if
    its hypothesis holds (H1 with a minus sign, else `_require_gap`),
    or names why not in `fallback_reason`.  The other faces' rows
    (`face_constraints`) are all built before `_measure` measures them
    per dimension m; values scale by R^m.  A face that draws nothing is
    stored on `a` under ("face", c.signs, J) and read from there.
    """
    out, todo = {}, {}
    for J, rng in streams.items():
        m = a.n - len(J)
        key = ("face", c.signs, J)
        out[J] = a._store.get(key)
        if out[J] is not None:
            continue
        reason = None
        if a.n == 2 and m == 1:
            try:
                if not c.minus_set():
                    _require_gap(a, "closed gap arc undefined")
                ang = chamber_arc_angles(a, c)[J[0]]
                if c.minus_set():
                    require_hypothesis(a, "h1", "closed arc undefined")
                out[J] = _stored(a, key, lambda: VolumeEstimate(
                    a.radius(J[0]) * ang, 0.0, 0, "closed"))
                continue
            except SphexError as e:
                reason = _closed_form_failed(e)
        alpha, beta, R = face_constraints(a, c, J)
        todo.setdefault(m, []).append((J, reason, R ** m, rng, (alpha, beta)))
    for m, faces in todo.items():
        Js, reasons, scales, rngs, regions = zip(*faces)
        ests = _measure(m, regions, samples, rngs)
        for J, reason, f, est in zip(Js, reasons, scales, ests):
            est = replace(est, value=est.value * f, fallback_reason=reason,
                          std_error=est.std_error * f)
            out[J] = (_stored(a, ("face", c.signs, J), lambda: est)
                      if est.exact else est)
    return out


def _sqrt_starred(table: CMTable, J) -> float:
    """sqrt((-1)^(p+1) B(0*J) / 2^p), the face factor of S_J."""
    p = len(J)
    starred = table.chain(("0", "*") + tuple(J), ("0", "*") + tuple(J))
    arg = (-1) ** (p + 1) * starred
    if arg <= 0:
        raise HypothesisError(
            f"B(0*J) has the wrong sign for J={tuple(J)}; face sphere missing")
    return math.sqrt(arg / 2 ** p)


def decomposition_cell_coefficient(a, J) -> float:
    """The constant (n-p)!/n! * sqrt((-1)^(p+1) B(0*J)/2^p) of a cone cell.

    Validated against direct MC integration of the explicit cone region
    (union of segments from the centers O_J to points of the face); the
    1/n! normalization is what makes the full decomposition close up to
    the simplex volume.
    """
    J = tuple(sorted(J))
    p = len(J)
    if not 1 <= p <= a.n:
        raise ValueError("cell index set must satisfy 1 <= |J| <= n")
    return (math.factorial(a.n - p) / math.factorial(a.n)
            * _sqrt_starred(CMTable.from_arrangement(a), J))


def decomposition_cell_volume(a, J, samples: int = 1_000_000,
                              rng: "Rng | None" = None) -> float:
    """Volume of the cone cell over the face S_J of the gap chamber.

    The cell is the union of segments from the centers O_J to the face
    S_J of the bounded all-plus chamber; its volume is the cell
    coefficient times v_J, with v_J exact where closed forms exist.
    """
    const = decomposition_cell_coefficient(a, J)
    vJ = face_volume(a, Chamber.all_plus(a.n), tuple(sorted(J)), samples, rng)
    return const * vJ.value


# ---------------------------------------------------------------------------
# the restricted model: regions on the unit 2-sphere (n = 3)
# ---------------------------------------------------------------------------


def sphere_region_area_mc(m: ConfigMatrix, samples: int,
                          rng: Rng) -> VolumeEstimate:
    """Area of the region {x on S^(n-1) : u_j . x + u_j0 <= 0 for all j}.

    Measured by `sphere_region`: exact arcs for n = 2, the exact area
    from the boundary arcs for n = 3 (neither uses `samples` or `rng`),
    conditional Monte Carlo with `samples` fibres for n >= 4.
    """
    alpha, beta, _ = config_face_constraints(m, ())
    return sphere_region(alpha, beta, samples, rng)


def _config_faces(m: ConfigMatrix, Js) -> list:
    """Measures of the region's faces on the planes in each J of Js, all
    of one size |J| >= n - 2.

    The faces have dimension at most 1, which `_measure` measures
    exactly, in one kernel call per row count, without drawing samples.
    """
    faces = [config_face_constraints(m, J) for J in Js]
    dim = m.n - 1 - len(Js[0])
    ests = _measure(dim, [face[:2] for face in faces], 0, None)
    return [R ** dim * est.value for (_, _, R), est in zip(faces, ests)]


def circle_feasible_arcs(m: ConfigMatrix, j: int):
    """Feasible parameter arcs of circle j under the other constraints.

    Returns (list of (t0, t1) intervals in [0, 2 pi], circle radius), t
    measured in the frame of `sphere_circle`; the boundary length of the
    region on circle j is radius times the total measure.  Handles
    non-binding constraints (full circle) and empty cases.
    """
    if m.n != 3:
        raise ValueError("circle arcs are implemented for n = 3")
    alpha, beta, radius = config_face_constraints(m, (j,))
    rows = _region_rows(1, alpha, beta)
    if isinstance(rows, float):
        return ([(0.0, TWO_PI)] if rows else []), radius
    start, length = (x[0] for x in _circle_arcs(rows[0][None], rows[1][None]))
    intervals = []
    for t0, w in zip(start.tolist(), length.tolist()):
        if w > 0.0:
            t1 = t0 + w
            intervals += ([(t0, t1)] if t1 <= TWO_PI
                          else [(t0, TWO_PI), (0.0, t1 - TWO_PI)])
    return intervals, radius


def sphere_arc_lengths(m: ConfigMatrix) -> dict:
    """Closed-form boundary arc length of each circle on the unit sphere."""
    if m.n != 3:
        raise ValueError("circle arcs are implemented for n = 3")
    return dict(zip((1, 2, 3), _config_faces(m, [(1,), (2,), (3,)])))


def sphere_vertex_counts(m: ConfigMatrix) -> dict:
    """Number of region vertices on each circle pair (0, 1 or 2)."""
    if m.n != 3:
        raise ValueError("vertex counts are implemented for n = 3")
    Js = ((1, 2), (1, 3), (2, 3))
    return {J: int(v) for J, v in zip(Js, _config_faces(m, Js))}
