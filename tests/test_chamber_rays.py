"""Chamber volumes by exact integrals along random lines through x0.

`chamber_volume` scores each line x0 + t w by the integral of |t|^(n-1)
over the chamber's pieces on it (`_line_measure`, through `_ray_scores`,
which the Euclidean finite difference shares).  The lines come in
frames, random rotations of fixed axes (`_frame_axes`; `_quaternions`
at n = 3, `_frames` otherwise).  The indicator estimator
`chamber_volume_mc` is the independent oracle.
"""

import functools
import itertools
import math

import numpy as np
import pytest

import sphex as sx
from sphex import volume
from sphex.arrangement import Chamber, from_params, params_of
from sphex.errors import HypothesisError
from sphex.volume import (
    BLOCK,
    CUBE_AXES_MAX_N,
    Rng,
    _frame_axes,
    _frames,
    _line_measure,
    _mean_error,
    _quaternion_lines,
    _quaternions,
    _sampling_box,
    chamber_area_closed_n2,
    chamber_volume,
    chamber_volume_mc,
)
from conftest import (
    equilateral,
    gap_fixture,
    lens_trio,
    random_h1,
    random_h1_prime,
    tetrahedron,
)

SIDE = 1.5


def simplex(n, radius=1.0, side=SIDE):
    """Equal balls on the regular n-simplex with edge `side`."""
    a = side / math.sqrt(2.0)
    t = a * (1.0 - math.sqrt(n + 1.0)) / n
    return sx.from_centers_radii(np.vstack([np.eye(n) * a, np.full(n, t)]),
                                 [radius] * (n + 1))


def simplex4():
    return simplex(4)


def frame_size(n):
    return (3 ** n - 1) // 2 if n <= CUBE_AXES_MAX_N else n


def jittered(base, gen, want, center_scale, radius_scale, tries=300):
    """A jittered copy of `base` for which hypothesis `want` holds."""
    for _ in range(tries):
        c = base.centers + gen.normal(scale=center_scale,
                                      size=base.centers.shape)
        r = base.radii + gen.normal(scale=radius_scale, size=len(base.radii))
        a = sx.from_centers_radii(c, np.abs(r))
        if getattr(sx.check_hypotheses(a, h2="skip"), want) is True:
            return a
    raise RuntimeError(f"no {want} draw in {tries} tries")


def chambers(n, all_plus=False):
    out = [Chamber.from_string("".join(s))
           for s in itertools.product("-+", repeat=n + 1)]
    return [c for c in out if all_plus or c.minus_set()]


def agree(a, c, rays=20_000, points=200_000, seed=3):
    """The ray estimate against the indicator oracle at 5 sigma.

    The indicator's sigma is floored at one hit of its sampling box, so
    a chamber too small for any hit still bounds the comparison.
    """
    est = chamber_volume(a, c, rays, Rng(seed, 1))
    ind = chamber_volume_mc(a, c, points, Rng(seed, 2), bounding="simplex")
    lo, hi = _sampling_box(a, c)
    floor = float(np.prod(np.maximum(hi - lo, 0.0))) / points
    sigma = math.hypot(est.std_error, max(ind.std_error, floor))
    assert abs(est.value - ind.value) <= 5.0 * sigma, (str(c), est, ind)
    return est


def test_ray_volume_provenance(tetra):
    est = chamber_volume(tetra, Chamber.from_string("--+-"), 5000, Rng(1))
    assert est.method == "conditional-mc" and not est.exact
    assert est.samples == 5000 and est.fallback_reason is None
    assert est.value > 0.0 and est.std_error > 0.0


@pytest.mark.parametrize("shape, signs, lines", [
    pytest.param("tetrahedron", "----", 20_000, id="----"),
    pytest.param("tetrahedron", "-+++", 20_000, id="-+++"),
    pytest.param("gap", "++++", 20_000, id="++++"),
    pytest.param("tetrahedron", "----", 1_000, id="----@1000"),
    pytest.param("triangle", "-++", 20_002, id="-++"),
    pytest.param("simplex4", "-----", 20_001, id="-----"),
    pytest.param("simplex4", "-++++", 2_001, id="-++++@2001"),
    pytest.param("simplex5", "------", 20_003, id="------"),
    pytest.param("simplex5", "-+++++", 2_003, id="-+++++@2003")])
def test_reported_sigma_is_calibrated(shape, signs, lines):
    """Over 40 seeds the spread of the values matches the reported sigma,
    taken over frames.  Each count leaves a partial last frame; the
    triangle's disks share no point, so n = 2 falls back to rays."""
    a = {"triangle": lambda: equilateral(radius=0.8),
         "tetrahedron": tetrahedron,
         "gap": lambda: tetrahedron(radius=0.89),
         "simplex4": simplex4,
         "simplex5": lambda: simplex(5)}[shape]()
    c = Chamber.from_string(signs)
    runs = [chamber_volume(a, c, lines, Rng(seed)) for seed in range(40)]
    spread = float(np.std([r.value for r in runs], ddof=1))
    reported = float(np.mean([r.std_error for r in runs]))
    assert 0.75 <= spread / reported <= 1.3


def quaternion_frames(gen, count):
    """(R, W) of `count` n = 3 frames: their lines W (count, K, 3) and
    their rotations R (count, 3, 3) read off W, as the rows of
    `_frame_axes(3)` include the coordinate axes, whose lines are R's."""
    axes = _frame_axes(3)
    W = _quaternion_lines(_quaternions(gen, count)).reshape(count, -1, 3)
    rows = [np.flatnonzero((axes == e).all(axis=1))[0] for e in np.eye(3)]
    return W[:, rows], W


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10])
def test_frames_rotate_fixed_axes(n):
    """K unit axes, one per line: the (3^n - 1) / 2 cube axes up to
    n = 4, the n coordinate axes above; and orthonormal frames, at n = 3
    rotations (det +1) whose lines are the axes rotated."""
    axes = _frame_axes(n)
    assert axes.shape == (frame_size(n), n)
    assert not axes.flags.writeable
    np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 1.0, rtol=1e-15)
    cos = np.abs(axes @ axes.T)
    assert cos[~np.eye(len(axes), dtype=bool)].max() < 1.0 - 1e-9
    gen = np.random.default_rng(n)
    if n == 3:
        Q, W = quaternion_frames(gen, 500)
        np.testing.assert_allclose(np.linalg.det(Q), 1.0, rtol=1e-14)
        np.testing.assert_allclose(W, axes @ Q, atol=1e-15)
        assert not volume._quaternion_axes().flags.writeable
    else:
        Q = _frames(gen, 500, n)
    np.testing.assert_allclose(Q @ Q.transpose(0, 2, 1),
                               np.broadcast_to(np.eye(n), Q.shape), atol=1e-14)


def test_quaternion_frames_are_haar():
    """10^5 n = 3 frames are Shoemake's quaternions of the generator's
    uniforms (u0, u1, u2), in that order: swapping u0 and 1 - u0 keeps
    the law, as 1 - u0 is uniform too, but not the draws.  Under Haar
    measure on SO(3), E[tr R] = 0 and E[(tr R)^2] = 1 (R (x) R holds the
    trivial representation once), each met within 5 standard errors, and
    a fixed axis goes to a uniform point of the sphere, whose z is uniform
    on [-1, 1] (Archimedes; binned chi^2 within 5 sigma)."""
    count, bins = 100_000, 20
    u0, u1, u2 = np.random.default_rng(30).random((3, count))
    q = [np.sqrt(1.0 - u0) * np.sin(2.0 * np.pi * u1),
         np.sqrt(1.0 - u0) * np.cos(2.0 * np.pi * u1),
         np.sqrt(u0) * np.sin(2.0 * np.pi * u2),
         np.sqrt(u0) * np.cos(2.0 * np.pi * u2)]
    np.testing.assert_allclose(_quaternions(np.random.default_rng(30), count),
                               np.array(q).T, rtol=0.0, atol=1e-15)
    R, W = quaternion_frames(np.random.default_rng(30), count)
    tr = np.trace(R, axis1=1, axis2=2)
    for x, mean in ((tr, 0.0), (tr ** 2, 1.0)):
        assert abs(x.mean() - mean) <= 5.0 * x.std(ddof=1) / math.sqrt(count)
    diagonal = np.flatnonzero((_frame_axes(3) > 0.0).all(axis=1))[0]
    hits, _ = np.histogram(W[:, diagonal, 2], bins=bins, range=(-1.0, 1.0))
    chi2 = (((hits - count / bins) ** 2) / (count / bins)).sum()
    assert chi2 <= bins - 1 + 5.0 * math.sqrt(2.0 * (bins - 1))


def test_sigma_over_frames_by_hand():
    """Frame sums S with k lines each: sigma is
    sqrt(F / (F - 1) sum (S - k mean)^2) / samples, in one chunk or two."""
    S = np.array([3.0, 5.5, 4.0, 0.5])
    k = np.array([3.0, 3.0, 3.0, 1.0])
    mean = S.sum() / 10
    want = math.sqrt(4 / 3 * ((S - k * mean) ** 2).sum()) / 10
    for chunks in ([(S, k)], [(S[:3], k[:3]), (S[3:], k[3:])]):
        got = _mean_error(iter(chunks), 10)
        assert got == pytest.approx((mean, want), rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rays_need_two_frames(n):
    """One frame has no spread to report: `samples` must exceed K, and
    K + 1 lines (a full frame and one line) give a nonzero sigma."""
    a = {2: lambda: equilateral(radius=0.8), 3: tetrahedron}.get(
        n, lambda: simplex(n))()
    c = Chamber.from_string("-" + "+" * n)
    K = frame_size(n)
    with pytest.raises(ValueError, match=f"exceed the {K} lines"):
        chamber_volume(a, c, K, Rng(1))
    est = chamber_volume(a, c, K + 1, Rng(1))
    assert est.samples == K + 1 and est.std_error > 0.0


def test_rays_in_high_dimension():
    """At n = 10 a frame is 10 lines, so 20,000 lines make 2,000 frames
    and a nonzero sigma; ball 1 alone is still measured exactly, its
    sigma 0 up to the sqrt(eps) floor of the expanded sum of squares."""
    a = simplex(10)
    est = chamber_volume(a, Chamber.from_string("-" + "+" * 10), 20_000,
                         Rng(6))
    ball = math.pi ** 5 / math.factorial(5)
    assert 0.0 < est.value < ball and est.std_error > 0.0
    centers = np.vstack([np.zeros(10), 9.0 * np.eye(10)])
    apart = sx.from_centers_radii(centers, [1.3] + [1.0] * 10)
    est = chamber_volume(apart, Chamber.from_string("-" + "+" * 10), 1_001,
                         Rng(6))
    assert est.value == pytest.approx(ball * 1.3 ** 10, rel=1e-12)
    assert est.std_error <= 1e-7 * est.value


@pytest.mark.parametrize("samples", [13 * 500 + 5, BLOCK + 13 * 7 + 2])
def test_rays_use_exactly_samples_lines(tetra, monkeypatch, samples):
    """A count that leaves a partial frame in every block scores exactly
    `samples` lines and reports `samples`."""
    scored = []

    def counting(lo, hi, *args):
        scored.append(lo.shape[-1])
        return _line_measure(lo, hi, *args)

    monkeypatch.setattr(volume, "_line_measure", counting)
    est = chamber_volume(tetra, Chamber.all_minus(3), samples, Rng(2))
    assert sum(scored) == samples and est.samples == samples


@pytest.mark.parametrize("chamber, radius", [("----", 1.0), ("++++", 0.89)])
def test_paired_rays_keep_each_arrangements_bits(chamber, radius):
    """Scored as a pair, each arrangement gets the bits it gets alone on
    the same Rng, whether the two share three spheres (one radius
    differs) or none (every radius differs).  The centres, and so x0,
    are the same, so only the sharing of sphere rows could move a bit."""
    a = tetrahedron(radius)
    c = Chamber.from_string(chamber)
    for radii in ([1.01 * radius] + [radius] * 3, [1.01 * radius] * 4):
        b = sx.from_centers_radii(a.centers, radii)
        pair = list(volume._ray_scores((a, b), c, 20_000, Rng(8)))
        for s, alone in enumerate((a, b)):
            one = list(volume._ray_scores((alone,), c, 20_000, Rng(8)))
            assert len(one) == len(pair)
            for (S2, k2, x2), (S1, k1, x1) in zip(pair, one):
                assert x1.any()
                assert x2[s].tobytes() == x1[0].tobytes()
                assert S2[s].tobytes() == S1[0].tobytes()
                assert k2.tobytes() == k1.tobytes()


def reference_line_measure(lo, hi, c, window, n):
    """`_line_measure` written plainly: fresh arrays at every step."""
    minus = [j - 1 for j in c.minus_set()]
    plus = [j - 1 for j in c.plus_set()]
    if minus:
        wlo = functools.reduce(np.maximum, [lo[j] for j in minus])
        whi = functools.reduce(np.minimum, [hi[j] for j in minus])
    else:
        wlo, whi = window

    def F(t):
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


def reference_ray_scores(arrs, c, samples, rng):
    """`_ray_scores` written plainly: the distinct sphere rows in one
    product per chunk, each arrangement's rows copied out of it.  The
    n = 3 directions come from `_quaternions` as the kernel takes them;
    the other n's are `_frames` rotating the axes, written out."""
    n = arrs[0].n
    minus = [j - 1 for j in c.minus_set()]
    x0 = np.mean([(a.centers[minus] if minus else a.centers).mean(axis=0)
                  for a in arrs], axis=0)
    rows, geometry = {}, []
    for a in arrs:
        D = a.centers - x0
        De = np.column_stack([D, np.einsum("ij,ij->i", D, D) - a.radii ** 2])
        take = [rows.setdefault(r.tobytes(), len(rows)) for r in De]
        P = None
        if not minus:
            P, q = volume._simplex_rows(a)
            P = P / (P @ x0 + q)[:, None]
        geometry.append((take, P))
    De = np.frombuffer(b"".join(rows), dtype=float).reshape(-1, n + 1)
    D, e = np.ascontiguousarray(De[:, :n]), De[:, n:]
    axes = _frame_axes(n)
    K = len(axes)
    per_chunk = max(volume.FIBRE_CHUNK // K, 1)
    for gen, cnt in volume._blocks(samples, rng):
        if n == 3:
            frames = _quaternions(gen, -(-cnt // K))
        else:
            frames = _frames(gen, -(-cnt // K), n)
        for f in range(0, len(frames), per_chunk):
            if n == 3:
                W = _quaternion_lines(frames[f:f + per_chunk])
                W = W.reshape(-1, n)
            else:
                W = (axes @ frames[f:f + per_chunk]).reshape(-1, n)
            W = W[:cnt - f * K].T
            mid = D @ W
            h = np.square(mid)
            h -= e
            np.sqrt(np.maximum(h, 0.0, out=h), out=h)
            lo, hi = mid - h, mid + h
            x = np.empty((len(arrs), W.shape[1]))
            for s, (take, P) in enumerate(geometry):
                window = None
                if P is not None:
                    u = P @ W
                    window = -1.0 / u.max(axis=0), -1.0 / u.min(axis=0)
                x[s] = reference_line_measure(lo[take], hi[take], c, window,
                                              n)
            starts = np.arange(0, x.shape[1], K)
            k = np.minimum(x.shape[1] - starts, float(K))
            yield np.add.reduceat(x, starts, axis=1), k, x


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ray_scores_match_the_reference_kernel(n):
    """The chunk loop's buffers change no bit: every sign pattern of an
    H1 draw and the all-plus chamber of an H1' gap draw, each alone and
    as the `from_params` finite-difference pair of an r and a d key (one
    sphere changed, or the centres moved), score the same S, k and x as
    the plain kernel on the same Rng."""
    gen = np.random.default_rng(100 + n)
    base = {3: tetrahedron(radius=0.89), 4: simplex(4, radius=0.93)}
    gap = random_h1_prime(gen) if n == 2 else jittered(
        base[n], gen, "h1_prime", 0.03, 0.01)
    cases = [(random_h1(gen, n), Chamber.from_string("".join(s)))
             for s in itertools.product("-+", repeat=n + 1)]
    cases.append((gap, Chamber.all_plus(n)))
    for a, c in cases:
        p = params_of(a)
        groups = [(a,)]
        for key in (("r", 1), ("d", 1, 2)):
            value = p.get(key)
            groups.append(tuple(from_params(p.with_entry(key, value + d), n)
                                for d in (1e-2, -1e-2)))
        for arrs in groups:
            got = list(volume._ray_scores(arrs, c, 20_000, Rng(n, 3)))
            want = list(reference_ray_scores(arrs, c, 20_000, Rng(n, 3)))
            assert len(got) == len(want)
            for chunk, ref in zip(got, want):
                for g, w in zip(chunk, ref):
                    assert g.tobytes() == w.tobytes(), (str(c), len(arrs))


def test_ball_about_x0_is_exact():
    """Chamber -+++ is ball 1 alone, centred at x0: every line scores
    2 r^3, so every frame agrees and sigma is 0."""
    a = sx.from_centers_radii([[0.0, 0.0, 0.0], [9.0, 0.0, 0.0],
                               [0.0, 9.0, 0.0], [0.0, 0.0, 9.0]],
                              [1.3, 1.0, 1.0, 1.0])
    est = chamber_volume(a, Chamber.from_string("-+++"), 10_001, Rng(4))
    assert est.value == pytest.approx(4.0 / 3.0 * math.pi * 1.3 ** 3,
                                      rel=1e-12)
    assert est.std_error <= 1e-12 * est.value


def test_every_chamber_of_n3_and_n4_h1_draws_matches_indicator():
    gen = np.random.default_rng(17)
    for a in (random_h1(gen, n=3), jittered(simplex4(), gen, "h1", 0.1,
                                             0.06)):
        for c in chambers(a.n):
            agree(a, c)


def test_gap_chambers_of_h1_prime_draws_match_indicator():
    gen = np.random.default_rng(29)
    for _ in range(3):
        a = jittered(tetrahedron(radius=0.89), gen, "h1_prime", 0.03, 0.01)
        est = agree(a, Chamber.all_plus(3))
        assert est.value > 0.0


RAY_CASES = [
    ("tri", equilateral, "---"),
    ("lens_trio", lens_trio, "--+"),
    ("lens_trio", lens_trio, "-++"),
    ("gap", gap_fixture, "+++"),
    # a simplex edge along a coordinate axis (the y axis)
    ("upright_gap", lambda: sx.from_centers_radii(
        [[0.0, 0.0], [0.0, 1.5], [1.3, 0.75]], [0.8, 0.8, 0.8]), "+++"),
    ("tetra", tetrahedron, "----"),
    ("tetra", tetrahedron, "--++"),
    ("tetra_gap", lambda: tetrahedron(radius=0.89), "++++"),
    # small balls leave the simplex's faces exposed; the face through
    # centers 2, 3, 4 lies in the vertical plane x = y
    ("slanted_simplex", lambda: sx.from_centers_radii(
        [[1.2, -0.3, 0.0], [1.0, 1.0, 0.0], [0.5, 0.5, 1.1],
         [0.0, 0.0, 0.0]], [0.4] * 4), "++++"),
]


@pytest.mark.parametrize("name,make,signs", RAY_CASES,
                         ids=[f"{n}[{s}]" for n, _, s in RAY_CASES])
def test_ray_volume_matches_indicator(name, make, signs, monkeypatch):
    """Rays against the indicator oracle at a quarter of its samples and
    a smaller sigma; at n = 2 the closed forms are refused, so rays
    measure the chamber, and checked against the closed area."""
    a = make()
    c = Chamber.from_string(signs)
    exact = chamber_area_closed_n2(a, c) if a.n == 2 else None

    def refuse(*args):
        raise HypothesisError("refused")

    monkeypatch.setattr(volume, "chamber_area_closed_n2", refuse)
    est = chamber_volume(a, c, 100_000, Rng(21))
    ind = chamber_volume_mc(a, c, 400_000, Rng(22), bounding="simplex")
    assert est.method == "conditional-mc"
    assert est.value > 0.0 and est.std_error > 0.0
    assert abs(est.value - ind.value) <= 5.0 * math.hypot(est.std_error,
                                                          ind.std_error)
    if exact is not None:
        assert "refused" in est.fallback_reason
        assert abs(est.value - exact) <= 5.0 * est.std_error
    assert est.std_error * math.sqrt(100_000) \
        < ind.std_error * math.sqrt(400_000)


def test_n2_fallback_uses_rays():
    """Disks that do not share a point: the closed forms refuse H1, the
    rays still measure every chamber."""
    a = equilateral(radius=0.8)
    for c in chambers(2):
        est = agree(a, c)
        assert est.method == "conditional-mc"
        assert est.fallback_reason.startswith(
            "closed form unavailable: HypothesisError")


@pytest.mark.parametrize("signs", ["--++", "++++"])
def test_scale_sweep(signs):
    """value / s^n and sigma / s^n do not depend on the scale s."""
    base = tetrahedron(radius=0.89)
    c = Chamber.from_string(signs)
    ref = chamber_volume(base, c, 20_000, Rng(9))
    for s in (1e-12, 1e-6, 1e6, 1e12):
        a = sx.from_centers_radii(base.centers * s, base.radii * s)
        est = chamber_volume(a, c, 20_000, Rng(9))
        assert est.value / s ** 3 == pytest.approx(ref.value, rel=1e-12)
        assert est.std_error / s ** 3 == pytest.approx(ref.std_error,
                                                       rel=1e-12)


def test_rays_repeat_per_seed_stream_and_samples(tetra):
    c = Chamber.all_minus(3)
    one = chamber_volume(tetra, c, 70_000, Rng(5, 1))
    assert chamber_volume(tetra, c, 70_000, Rng(5, 1)) == one
    assert chamber_volume(tetra, c, 70_000, Rng(5, 2)).value != one.value
    assert chamber_volume(tetra, c, 60_000, Rng(5, 1)).value != one.value


def test_line_scores_by_hand():
    """Two lines with hand-cut pieces; a score is F(end) - F(begin)
    summed, F(t) = t |t|^(n-1), that is n times the integral of
    |t|^(n-1) (the length for n = 1)."""
    # balls 1 and 3 minus, 2 and 4 plus
    lo = np.array([[-2.0, -2.0], [0.0, 1.5], [-1.0, -2.0], [0.5, -1.0]])
    hi = np.array([[3.0, 2.0], [1.0, 5.0], [4.0, 2.0], [2.0, -1.0]])
    c = Chamber.from_string("-+-+")
    # line 0: window [-1, 3] minus [0, 2]; line 1: [-2, 2] minus [1.5, 2]
    # (ball 4 misses line 1: a point)
    assert _line_measure(lo, hi, c, None, 3) == pytest.approx(
        [1.0 + (27.0 - 8.0), 8.0 + 1.5 ** 3], rel=1e-15)
    assert _line_measure(lo, hi, c, None, 2) == pytest.approx(
        [1.0 + (9.0 - 4.0), 4.0 + 1.5 ** 2], rel=1e-15)
    # the all-plus chamber's window comes from the simplex; the plus
    # intervals overlap, nest and reach past the window
    lo = np.array([[-3.0], [1.0], [0.0], [0.2]])
    hi = np.array([[-0.5], [3.0], [0.0], [0.4]])
    window = np.array([-1.0]), np.array([2.0])
    got = _line_measure(lo, hi, Chamber.all_plus(3), window, 3)
    assert got == pytest.approx([0.5 ** 3 + 0.2 ** 3 + (1.0 - 0.4 ** 3)],
                                rel=1e-15)
    got = _line_measure(lo, hi, Chamber.all_plus(3), window, 2)
    assert got == pytest.approx([0.25 + 0.04 + (1.0 - 0.16)], rel=1e-15)


def merged_pieces(w0, w1, intervals):
    """The window [w0, w1] minus the intervals, by the textbook merge of
    the intervals sorted by start, one line at a time."""
    pieces, at = [], w0
    for s, e in sorted(intervals):
        if s > at:
            pieces.append((at, min(s, w1)))
        at = max(at, e)
    if at < w1:
        pieces.append((at, w1))
    return [(s, e) for s, e in pieces if e > s]


@pytest.mark.parametrize("signs", ["-+++", "--++", "++++"])
def test_line_measure_matches_sorted_merge(signs):
    """Random nested, overlapping, tied and missing intervals."""
    gen = np.random.default_rng(41)
    c = Chamber.from_string(signs)
    lo = gen.uniform(-2.0, 2.0, size=(4, 500))
    hi = lo + gen.exponential(1.0, size=lo.shape)
    hi[:, ::7] = lo[:, ::7]                 # a ball the line misses
    lo[1, ::5], hi[1, ::5] = lo[2, ::5], hi[2, ::5]     # a tied interval
    window = (gen.uniform(-3.0, 0.0, 500), gen.uniform(0.0, 3.0, 500))
    got2 = _line_measure(lo, hi, c, window, 2)
    got3 = _line_measure(lo, hi, c, window, 3)
    minus = [j - 1 for j in c.minus_set()]
    plus = [j - 1 for j in c.plus_set()]
    for i in range(lo.shape[1]):
        w0, w1 = (max(lo[minus, i]), min(hi[minus, i])) if minus else (
            window[0][i], window[1][i])
        pieces = merged_pieces(w0, w1, [(lo[j, i], hi[j, i]) for j in plus])
        assert got2[i] == pytest.approx(
            sum(e * abs(e) - s * abs(s) for s, e in pieces),
            rel=1e-12, abs=1e-12)
        assert got3[i] == pytest.approx(sum(e ** 3 - s ** 3 for s, e in pieces),
                                        rel=1e-12, abs=1e-12)
