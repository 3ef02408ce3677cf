"""Chamber and face volumes: Monte Carlo estimators plus closed forms.

Chamber volumes without a closed form integrate exactly along random
lines through an interior point, cut into the chamber's pieces by the
interval core (`_line_measure`) that `chamber_chords` uses as well.

Monte Carlo sampling is organized in fixed blocks of a counter-based
generator, so a result depends only on (seed, stream, sample count) and
never on how blocks are scheduled.  Closed forms cover the n=2 chamber
areas (assembled from lens areas and the three-arc region), the lens
volume in any dimension, cap integrals, the Euclidean simplex volume,
and the cone-cell volumes of the simplex decomposition.

Faces: on the sphere S_J every other sphere's sign constraint, and
every barycentric constraint of the center simplex, is affine in the
unit direction g, so a face is a region {g in S^m : alpha + beta.g >= 0}
with m = n - |J|.  One kernel, `sphere_region`, measures such a region:
it counts the two points for m = 0, intersects arcs exactly for m = 1,
integrates the exact feasible arc length of the circle fibres by
Gauss-Legendre quadrature over the fibre height for m = 2, and for
m >= 3 averages that length over random fibres (conditional Monte
Carlo).  The restricted unit-sphere model's region, arcs and vertices
are regions of the same kernel too (`config_face_constraints`).  The
indicator estimators `chamber_volume_mc` and `face_volume_mc` only
draw points and test their signs with `evaluate_f`; they stay as the
independent oracles that tests and benchmarks check the rest against.

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
import math
from dataclasses import dataclass, replace

import numpy as np

from .arrangement import (
    Chamber,
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
    partition of blocks over workers yields bit-identical results.
    """

    seed: int
    stream: int = 0

    def substream(self, stream: int) -> "Rng":
        return Rng(self.seed, stream)

    def generator(self, block: int) -> np.random.Generator:
        key = np.array([self.seed % 2 ** 64, self.stream % 2 ** 64],
                       dtype=np.uint64)
        bit = np.random.Philox(key=key)
        bit.advance(block * _ADVANCE)
        return np.random.Generator(bit)


#: how a `VolumeEstimate` was obtained: a closed form, an exact count of
#: points, an exact arc intersection, converged quadrature over circle
#: fibres, indicator Monte Carlo, or Monte Carlo conditioned on circle
#: fibres or on lines
METHODS = ("closed", "count", "arc", "quadrature", "mc", "conditional-mc")
#: the methods whose value is exact
EXACT_METHODS = METHODS[:4]


@dataclass(frozen=True)
class VolumeEstimate:
    """A volume value with its uncertainty bookkeeping.

    `method` is one of `METHODS`, and `exact` says whether it is one of
    `EXACT_METHODS` ("closed", "count", "arc", "quadrature"), whose
    results carry std_error 0.  For "mc" `std_error` is the
    binomial standard error propagated through the bounding-measure
    factor and `samples` counts points; for "conditional-mc" it is the
    sample standard error of the per-fibre arc lengths (of a face) or of
    the per-line scores (of a chamber, `chamber_volume`), and `samples`
    counts fibres or lines.  `fallback_reason` says why a cheaper or
    exact path was not taken (a closed form raised, or the quadrature
    did not converge); it is None when the first path applied.
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
    """Mean and standard error of `samples` scores arriving in chunks."""
    total = total_sq = 0.0
    for x in scores:
        total += float(x.sum())
        total_sq += float(x @ x)
    mean = total / samples
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


def _line_measure(lo, hi, c: Chamber, simplex=None, n: int = 1):
    """Sum of F(end) - F(begin) over chamber c's pieces on N lines.

    Ball j meets line i in [lo, hi][..., j, i] of its coordinate t (a
    point if it misses).  The pieces are the window, the minus balls'
    intervals intersected (the all-plus chamber's is the simplex's,
    `simplex` = (lo, hi)), minus the plus balls' intervals.  F(t) =
    t |t|^(n-1) increases, so the ends are mapped first; n = 1 gives the
    length.  The starts and the ends of the plus intervals are sorted
    apart by min/max networks: t is uncovered when the k-th smallest end
    is <= t, k the number of starts <= t, so the k-th piece runs from
    the k-th end to the (k+1)-th start.
    """
    minus = [j - 1 for j in c.minus_set()]
    plus = [j - 1 for j in range(1, len(c.signs) + 1) if c.sign(j) > 0]
    if minus:
        wlo = functools.reduce(np.maximum, [lo[..., j, :] for j in minus])
        whi = functools.reduce(np.minimum, [hi[..., j, :] for j in minus])
    else:
        wlo, whi = simplex

    def F(t):   # t |t|^(n-1) by repeated multiplication, t^n for odd n
        if n == 1:
            return t
        out = t * (t if n % 2 else np.abs(t))
        for _ in range(n - 2):
            out *= t
        return out

    whi = np.maximum(whi, wlo)
    wlo, whi = F(wlo), F(whi)
    los = [np.minimum(F(lo[..., j, :]), whi) for j in plus]
    his = [np.maximum(F(hi[..., j, :]), wlo) for j in plus]
    for i in range(len(plus) - 1, 0, -1):
        for k in range(i):
            for r in (los, his):
                r[k], r[k + 1] = (np.minimum(r[k], r[k + 1]),
                                  np.maximum(r[k], r[k + 1]))
    return functools.reduce(np.add, [np.maximum(s - e, 0.0) for s, e in
                                     zip(los + [whi], [wlo] + his)])


def _chord_lengths(centers, r2, simplex, c: Chamber, y):
    """Exact lengths of chamber c's chords along the last axis, (S, N).

    `centers` (S, n+1, n) and `r2` (S, n+1) stack S arrangements; the
    line through (y_i, t) is line i.  For the all-plus chamber `simplex`
    holds the barycentric rows P (S, n+1, n), q (S, n+1) of each
    arrangement.  `_line_measure` measures the chord.
    """
    h2 = np.repeat(r2[..., None], len(y), axis=2)
    for i in range(y.shape[1]):
        diff = centers[..., i, None] - y[:, i]
        h2 -= diff * diff
    h = np.sqrt(np.maximum(h2, 0.0, out=h2), out=h2)
    mid = centers[..., -1, None]
    if not c.minus_set():
        P, q = simplex
        a = P[..., :-1] @ y.T + q[..., None]
        b = P[..., -1, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -a / b
        wlo = np.where(b > 0, t, -np.inf).max(axis=1)
        whi = np.where(b < 0, t, np.inf).min(axis=1)
        # a facet parallel to the lines keeps a line whole or drops it
        whi[((b == 0) & (a < 0)).any(axis=1)] = -np.inf
        simplex = wlo, whi
    return _line_measure(mid - h, mid + h, c, simplex)


def chamber_chords(arrs, c: Chamber, samples: int, rng: Rng):
    """Chord lengths of chamber c in each of `arrs` on shared random lines.

    The lines run along the last axis through points y drawn uniformly
    in the first n - 1 coordinates of the box that `chamber_volume_mc`
    samples (the smallest box holding every arrangement's box).  The
    chamber's volume in arrangement s is `area` times the mean of the
    chords L[s]: the indicator estimate conditioned on the line, so its
    variance is lower.  Parallel lines pair up between arrangements for
    the Euclidean finite difference; `chamber_volume` draws lines through
    one point instead.  Returns (area,
    chunks): `chunks` yields (len(arrs), N) arrays of exact chord
    lengths, `FIBRE_CHUNK` lines at a time from RNG blocks of `BLOCK`
    lines, so they depend only on (seed, stream, samples).  An empty box
    gives area 0 and no chunks.
    """
    blocks = _blocks(samples, rng)
    boxes = [_sampling_box(a, c) for a in arrs]
    lo = np.min([b[0] for b in boxes], axis=0)[:-1]
    hi = np.max([b[1] for b in boxes], axis=0)[:-1]
    if np.any(hi <= lo):
        return 0.0, iter(())
    centers = np.stack([a.centers for a in arrs])
    r2 = np.stack([a.radii for a in arrs]) ** 2
    simplex = None
    if not c.minus_set():
        rows = [_simplex_rows(a) for a in arrs]
        simplex = tuple(np.stack(r) for r in zip(*rows))

    def chunks():
        for gen, cnt in blocks:
            y = lo + (hi - lo) * gen.random((cnt, len(lo)))
            for s in range(0, cnt, FIBRE_CHUNK):
                yield _chord_lengths(centers, r2, simplex, c,
                                     y[s:s + FIBRE_CHUNK])

    return float(np.prod(hi - lo)), chunks()


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
#: fibres (or lines, for `chamber_chords` and `chamber_volume`) per
#: sub-chunk of an RNG block: the arc and line intersections hold about a
#: dozen (fibres, K) arrays, so a sub-chunk keeps the working set of a
#: block no larger than the indicator estimators'
FIBRE_CHUNK = 4096
#: Gauss-Legendre nodes k per piece of the m = 2 quadrature; the result
#: with 2k nodes is kept when it agrees with the k-node one to QUAD_TOL
QUAD_NODES = 64
QUAD_TOL = 1e-12


def _arcs(A, B, phase):
    """Feasible arcs of circles under constraints A + B cos(t - phase) >= 0.

    A and B (B >= 0) are (N, K): one row per circle, one column per
    constraint; `phase` is (K,).  Constraint k alone allows the arc
    [s_k, s_k + w_k) of t with w_k = 2 arccos(-A/B), 2 pi when A >= B.
    The intersection lies in the narrowest arc r, so it is the window
    [s_r, s_r + w_r) minus the gap of every arc.  Because w_k >= w_r,
    each gap meets the window in one interval; their starts and ends,
    sorted apart, bound the pieces as in `_line_measure`.  Returns
    (start, length), both (N, K+1): the feasible pieces between the
    merged gaps, some of length 0 (with an arbitrary start).
    """
    half = np.arccos(np.clip(-A / np.maximum(B, 1e-300), -1.0, 1.0))
    width = 2.0 * half
    start = np.subtract(phase, half)
    rows = np.arange(len(A))[:, None]
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


def _circle_arcs(alpha, beta):
    """(start, length) of the arcs {t : alpha + beta.(cos t, sin t) >= 0}."""
    rows = _binding(alpha, beta)
    if rows is None:
        return np.zeros(0), np.zeros(0)
    alpha, beta = rows
    if not len(alpha):
        return np.zeros(1), np.full(1, TWO_PI)
    amp = np.hypot(beta[:, 0], beta[:, 1])
    start, length = _arcs(alpha[None, :], amp[None, :],
                          np.arctan2(beta[:, 1], beta[:, 0]))
    return start[0], length[0]


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
        out[meets] = _arcs(A[meets], B[meets], phase)[1].sum(axis=1)
    return out


def _gauss_legendre(k: int):
    """Gauss-Legendre nodes and weights on [-1, 1].

    Newton's method on the three-term recurrence of P_k from the
    asymptotic guesses cos(pi (i - 1/4) / (k + 1/2)); the weights are
    2 / ((1 - x^2) P_k'(x)^2).  Cheaper at first use, in time and
    memory, than importing numpy.polynomial.
    """
    x = np.cos(math.pi * (np.arange(1, k + 1) - 0.25) / (k + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for j in range(2, k + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = k * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.abs(step).max() < 1e-15:
            break
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


@functools.lru_cache(maxsize=None)
def _piece_rule(k: int):
    """k nodes and weights on [0, 1] for a piece of the fibre integral.

    Gauss-Legendre in u after the map s = S(S(u)), S(u) = sin^2(pi u / 2),
    built on first use.  One S turns the square-root behaviour at the
    ends of a piece into an analytic one; the second clusters the nodes
    at the ends like u^4, which resolves a branch point just outside the
    piece (a tangency height next to a vertex height).
    """
    x, w = _gauss_legendre(k)
    s, sw = 0.5 * (x + 1.0), 0.5 * w
    for _ in range(2):
        sw = sw * (0.5 * math.pi) * np.sin(math.pi * s)
        s = np.sin(0.5 * math.pi * s) ** 2
    s.flags.writeable = sw.flags.writeable = False  # shared by the cache
    return s, sw


def _critical_heights(alpha, proj):
    """Fibre heights y = g . e3 between which the feasible length is analytic.

    `proj` holds the constraint normals in the fibre frame.  The
    feasible set of a fibre changes shape only where a boundary circle
    alpha_k + beta_k . g = 0 touches a fibre plane (an arc appears,
    vanishes or closes up: the roots of (alpha + y p)^2 = (1 - y^2)
    amp^2) or where two boundary circles cross at a point of the region;
    a crossing that another constraint excludes leaves the feasible set
    of nearby fibres alone, so it is skipped.
    """
    b2 = np.einsum("ij,ij->i", proj, proj)
    amp = np.hypot(proj[:, 0], proj[:, 1])
    spread = amp * np.sqrt(np.maximum(b2 - alpha * alpha, 0.0)) / b2
    centre = -alpha * proj[:, 2] / b2
    i, j = np.triu_indices(len(alpha), 1)
    n = np.cross(proj[i], proj[j])
    nn = np.einsum("ij,ij->i", n, n)
    par = nn <= 1e-24 * b2[i] * b2[j]           # parallel circles never cross
    nn[par] = 1.0
    x0 = -(alpha[i, None] * np.cross(proj[j], n)
           + alpha[j, None] * np.cross(n, proj[i])) / nn[:, None]
    s2 = (1.0 - np.einsum("ij,ij->i", x0, x0)) / nn
    ok = ~par & (s2 >= 0.0)
    s = np.sqrt(np.where(ok, s2, 0.0))[:, None] * n
    pts = np.concatenate([(x0 + s)[ok], (x0 - s)[ok]])
    inside = (alpha + pts @ proj.T >= -1e-9 * np.sqrt(b2)).all(axis=1)
    return np.concatenate([centre - spread, centre + spread,
                           pts[inside, 2]])


def _quadrature_frame(alpha, beta):
    """Rows e1, e2, e3 with the fibre poles +-e3 far from every boundary circle.

    Near a pole a boundary circle that passes close by sweeps a fibre
    from one side to the other within a tiny height interval, which no
    quadrature resolves.  Of the centre direction and the unit normals
    (a pole at a normal makes that circle's fibres concentric), e3 is
    the candidate whose poles keep the largest angle to every circle.
    """
    norm = np.linalg.norm(beta, axis=1)
    unit = beta / norm[:, None]
    radius = np.arccos(np.clip(-alpha / norm, -1.0, 1.0))
    cand = np.vstack([unit.sum(axis=0), unit])
    cand_norm = np.linalg.norm(cand, axis=1)
    ok = cand_norm > 1e-12
    cand = cand[ok] / cand_norm[ok, None]
    ang = np.arccos(np.clip(cand @ unit.T, -1.0, 1.0))
    clear = np.minimum(np.abs(ang - radius),
                       np.abs(math.pi - ang - radius)).min(axis=1)
    q, _ = np.linalg.qr(np.column_stack([cand[clear.argmax()], np.eye(3)]))
    return q.T[[1, 2, 0]]


def _region_quadrature(alpha, beta, k: int):
    """Measure of an m = 2 region as the integral of the fibre length.

    With y = g . e3 the region's measure is exactly the integral over
    [-1, 1] of the feasible arc length L(y) of the fibre at height y.
    L is analytic between the `_critical_heights` and behaves like a
    square root at them, so each piece is integrated by `_piece_rule`
    with k and with 2k nodes.  Returns (Q_2k, |Q_2k - Q_k|).
    """
    proj = beta @ _quadrature_frame(alpha, beta).T
    amp = np.hypot(proj[:, 0], proj[:, 1])
    phase = np.arctan2(proj[:, 1], proj[:, 0])
    ends = np.unique(np.clip(np.concatenate(
        [[-1.0, 1.0], _critical_heights(alpha, proj)]), -1.0, 1.0))
    lo, width = ends[:-1, None], np.diff(ends)[:, None]
    (s1, w1), (s2, w2) = _piece_rule(k), _piece_rule(2 * k)
    y = lo + width * np.concatenate([s1, s2])   # (pieces, 3k)
    length = _fibre_lengths(y.reshape(-1, 1), alpha, proj[:, 2:], amp,
                            phase).reshape(y.shape) * width
    coarse = float((length[:, :k] @ w1).sum())
    fine = float((length[:, k:] @ w2).sum())
    return fine, abs(fine - coarse)


def sphere_region(alpha, beta, samples: int, rng: Rng) -> VolumeEstimate:
    """Measure of the region {g in S^m : alpha_k + beta_k . g >= 0 for all k}.

    `alpha` has K entries and `beta` is (K, m+1).  m = 0: counts the two
    points g = +-1, with tolerance `COUNT_TOL`.  m = 1: exact arc
    intersection.  m >= 2: circle fibres
    g = y + sqrt(1 - |y|^2) (cos t e1 + sin t e2), y in the unit
    (m-1)-ball orthogonal to e1, e2; the surface measure is exactly
    dy dt, so the region's measure is the integral over the ball of the
    exact feasible arc length of a fibre.  m = 2: that integral by
    `_region_quadrature` ("quadrature", exact, `samples` unused) when
    k = `QUAD_NODES` and 2k nodes agree to `QUAD_TOL`; otherwise, and
    for m >= 3, conditional Monte Carlo with y uniform in the ball:
    vol(B^(m-1)) times the mean fibre length, `std_error` the per-fibre
    sample standard error and `samples` the number of fibres.  A
    non-converged quadrature is named in `fallback_reason`.  Constraints
    that never bind are dropped first, and a constraint that is never
    met gives an exact 0.  A Monte Carlo result depends only on (seed,
    stream, samples).
    """
    alpha = np.asarray(alpha, float).reshape(-1)
    beta = np.asarray(beta, float).reshape(len(alpha), -1)
    m = beta.shape[1] - 1
    if m == 0:
        b = beta[:, 0]
        count = (int((alpha + b >= -COUNT_TOL).all())
                 + int((alpha - b >= -COUNT_TOL).all()))
        return VolumeEstimate(float(count), 0.0, 2, "count")
    if m == 1:
        _, length = _circle_arcs(alpha, beta)
        return VolumeEstimate(math.fsum(length), 0.0, 0, "arc")
    rows = _binding(alpha, beta)
    if rows is None or not len(rows[0]):
        value = 0.0 if rows is None else unit_sphere_area(m)
        return VolumeEstimate(value, 0.0, 0, "closed")
    alpha, beta = rows
    reason = None
    if m == 2:
        value, err = _region_quadrature(alpha, beta, QUAD_NODES)
        if err <= QUAD_TOL:
            return VolumeEstimate(value, 0.0, 0, "quadrature")
        reason = (f"quadrature did not converge: |Q{2 * QUAD_NODES} - "
                  f"Q{QUAD_NODES}| = {err:.3e} > {QUAD_TOL:g}")
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
    return VolumeEstimate(ball * mean, ball * err, samples, "conditional-mc",
                          fallback_reason=reason)


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
    R = 0.  J = () is the region itself, with R = 1.
    """
    idx = [j - 1 for j in J]
    p = len(idx)
    empty = np.full(1, -1.0), np.zeros((1, m.n - p)), 0.0
    W, s, Vt = np.linalg.svd(m.normals[idx])
    if p and s[-1] <= 1e-12 * s[0]:
        return empty
    c = Vt[:p].T @ ((W.T @ -m.offsets[idx]) / s)
    R2 = 1.0 - c @ c
    if R2 <= 0.0:
        return empty
    R = math.sqrt(R2)
    U, off = np.delete(m.normals, idx, axis=0), np.delete(m.offsets, idx)
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
# closed forms for n = 2 chambers
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

    return _stored(a, "pair_data", build)


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


def pseudo_triangle_area_closed(a, n: int = 2) -> float:
    """Area of the all-minus chamber for n = 2, assembled exactly.

    Triangle area minus the three circular sectors at the corners plus
    the half-lens corrections over the edges.
    """
    if n != 2 or a.n != 2:
        raise ValueError("closed area path is for n = 2")
    require_hypothesis(a, "h1", "the three-arc region does not exist")
    psih, phi = _pair_data(a)
    table = CMTable.from_arrangement(a)
    total = 0.25 * math.sqrt(-table.chain(("0", 1, 2, 3), ("0", 1, 2, 3)))
    for j in (1, 2, 3):
        total -= 0.5 * a.radius(j) ** 2 * phi[j]
    for j, k in ((1, 2), (1, 3), (2, 3)):
        pj, pk = 2.0 * psih[(j, k)], 2.0 * psih[(k, j)]
        total += 0.25 * a.radius(j) ** 2 * (pj - math.sin(pj))
        total += 0.25 * a.radius(k) ** 2 * (pk - math.sin(pk))
    return total


def simplex_volume(a) -> float:
    """Euclidean volume of the simplex spanned by the n+1 centers."""
    E = a.centers[:-1] - a.centers[-1]
    scale = float(np.max(np.abs(E))) ** a.n
    det = float(np.linalg.det(E))
    if abs(det) < 1e-12 * scale:
        raise DegenerateConfigError("centers are affinely dependent")
    return abs(det) / math.factorial(a.n)


def chamber_area_closed_n2(a, c: Chamber) -> float:
    """Closed-form area of any n = 2 chamber.

    All-minus: the three-arc region.  All-plus (needs H1'): simplex
    minus the decomposition cells, vertices counted by `face_volume`.
    One or two minus signs (needs H1): inclusion-exclusion of disk, lens
    and three-arc areas.  Stored on `a` per chamber.
    """
    if a.n != 2:
        raise ValueError("closed area path is for n = 2")
    return _stored(a, ("area", c.signs), lambda: _area_n2(a, c))


def _area_n2(a, c: Chamber) -> float:
    minus = c.minus_set()
    if not minus:
        require_hypothesis(a, "h1_prime", "bounded gap chamber undefined")
        table = CMTable.from_arrangement(a)
        arcs = chamber_arc_angles(a, c)
        total = simplex_volume(a)
        for j in (1, 2, 3):
            total -= 0.5 * a.radius(j) ** 2 * arcs[j]
        for j, k in ((1, 2), (1, 3), (2, 3)):
            cnt = face_volume(a, c, (j, k))
            total -= 0.25 * math.sqrt(
                -table.chain(("0", "*", j, k), ("0", "*", j, k))) * cnt.value
        return total
    if len(minus) == 3:
        return pseudo_triangle_area_closed(a)
    tri = pseudo_triangle_area_closed(a)  # also certifies H1

    def lens(j, k):
        return lens_volume_closed(2, a.radius(j), a.radius(k), a.distance(j, k))

    if len(minus) == 2:
        j, k = minus
        return lens(j, k) - tri
    (j,) = minus
    k, l = (m for m in (1, 2, 3) if m != j)
    return math.pi * a.radius(j) ** 2 - lens(j, k) - lens(j, l) + tri


def chamber_volume(a, c: Chamber, samples: int = 1_000_000,
                   rng: "Rng | None" = None) -> VolumeEstimate:
    """Chamber volume: the closed form for n = 2, else rays through x0.

    Otherwise ("conditional-mc") `samples` lines x0 + t w, w uniform on
    S^(n-1), each score the exact integral of |t|^(n-1) over the
    chamber's pieces (`_line_measure`); in polar coordinates about x0
    the volume is |S^(n-1)| / 2 times the mean score, for any x0.  x0 is
    the mean of the minus balls' centres (of all centres for the
    all-plus chamber, the gap in the centre simplex).  `std_error` is the
    per-line standard error.  `fallback_reason` names a raised n = 2
    closed form; a chamber of the wrong length raises ValueError.
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
    minus = [j - 1 for j in c.minus_set()]
    x0 = (a.centers[minus] if minus else a.centers).mean(axis=0)
    D = a.centers - x0
    e = (np.einsum("ij,ij->i", D, D) - a.radii ** 2)[:, None]
    if not minus:
        # x0 + t w is in the simplex iff 1 + t (P w)_i >= 0 on every row
        P, q = _simplex_rows(a)
        P = P / (P @ x0 + q)[:, None]

    def scores():
        for gen, cnt in _blocks(samples, rng):
            w = gen.standard_normal((cnt, a.n))
            w /= np.sqrt(np.einsum("ij,ij->i", w, w))[:, None]
            for s in range(0, cnt, FIBRE_CHUNK):
                W = w[s:s + FIBRE_CHUNK].T
                mid = D @ W
                h = np.sqrt(np.maximum(mid * mid - e, 0.0))
                window = None
                if not minus:           # max u > 0 > min u: x0 is inside
                    u = P @ W
                    window = -1.0 / u.max(axis=0), -1.0 / u.min(axis=0)
                yield _line_measure(mid - h, mid + h, c, window, a.n)

    mean, err = _mean_error(scores(), samples)
    half = unit_sphere_area(a.n - 1) / (2 * a.n)   # |S^(n-1)| / 2n
    return VolumeEstimate(half * mean, half * err, samples, "conditional-mc",
                          fallback_reason=reason)


def _closed_form_failed(err: SphexError) -> str:
    return f"closed form unavailable: {type(err).__name__}: {err}"


def face_volume(a, c: Chamber, J, samples: int = 1_000_000,
                rng: "Rng | None" = None) -> VolumeEstimate:
    """Face measure v_J: the n = 2 closed arc when it applies, else the
    `sphere_region` kernel on the face's constraints (exact for
    |J| >= n - 2, conditional MC with `samples` fibres below).  A raised
    closed form, or a quadrature that did not converge, is named in
    `fallback_reason`.  A chamber of the wrong length raises ValueError.
    A face of dimension n - |J| <= 1 ("closed", "count" or "arc") draws
    no samples; its result is stored on `a` per (chamber, J)."""
    _check_chamber(a, c)
    J = tuple(sorted(J))
    if a.n - len(J) <= 1:
        return _stored(a, ("face", c.signs, J),
                       lambda: _face_volume(a, c, J, samples, rng))
    return _face_volume(a, c, J, samples, rng)


def _face_volume(a, c: Chamber, J, samples: int, rng: "Rng | None"):
    rng = rng if rng is not None else Rng(0)
    reason = None
    if a.n == 2 and len(J) == 1:
        try:
            ang = chamber_arc_angles(a, c)[J[0]]
            return VolumeEstimate(a.radius(J[0]) * ang, 0.0, 0, "closed")
        except SphexError as e:
            reason = _closed_form_failed(e)
    alpha, beta, R = face_constraints(a, c, J)
    est = sphere_region(alpha, beta, samples, rng)
    f = R ** (a.n - len(J))
    return replace(est, value=est.value * f, std_error=est.std_error * f,
                   fallback_reason=reason or est.fallback_reason)


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

    Measured by `sphere_region`: exact arcs for n = 2, exact quadrature
    over circle fibres for n = 3 (`samples` is used only if it does not
    converge), conditional Monte Carlo with `samples` fibres for n >= 4.
    """
    alpha, beta, _ = config_face_constraints(m, ())
    return sphere_region(alpha, beta, samples, rng)


def _config_face(m: ConfigMatrix, J) -> float:
    """Measure of the region's face on the planes in J, |J| >= n - 2.

    The face has dimension at most 1, which `sphere_region` measures
    exactly without drawing samples.
    """
    alpha, beta, R = config_face_constraints(m, J)
    return R ** (beta.shape[1] - 1) * sphere_region(alpha, beta, 0, None).value


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
    start, length = _circle_arcs(alpha, beta)
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
    return {j: _config_face(m, (j,)) for j in range(1, 4)}


def sphere_vertex_counts(m: ConfigMatrix) -> dict:
    """Number of region vertices on each circle pair (0, 1 or 2)."""
    if m.n != 3:
        raise ValueError("vertex counts are implemented for n = 3")
    return {J: int(_config_face(m, J))
            for J in ((1, 2), (1, 3), (2, 3))}
