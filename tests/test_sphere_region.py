"""The spherical-region kernel against grids, closed forms and indicator MC."""

import itertools
import math
import re

import numpy as np
import pytest

import sphex as sx
from sphex import volume
from sphex.arrangement import Chamber, params_of
from sphex.cayley_menger import CMTable, ConfigMatrix
from sphex.volume import (
    BLOCK,
    EXACT_METHODS,
    METHODS,
    Rng,
    VolumeEstimate,
    _arcs,
    _binding,
    _fibre_frame,
    _fibre_lengths,
    _fibre_reach,
    _half_width,
    _lowest_height,
    _region_area,
    _region_rows,
    circle_feasible_arcs,
    config_face_constraints,
    face_constraints,
    face_volume,
    face_volume_mc,
    sin_power_integral,
    sphere_region,
    sphere_region_area_mc,
    unit_sphere_area,
)
from conftest import (equilateral, random_h1, random_h1_prime,
                      regular_simplex4, tetrahedron)

Z = 5.0
GRID = 400_000


def grid_measure(A, B, phase):
    """Feasible measure of each row of `_arcs` input on a fine angular grid."""
    t = (np.arange(GRID) + 0.5) * (2.0 * math.pi / GRID)
    out = []
    for a_row, b_row in zip(A, B):
        ok = np.ones(GRID, dtype=bool)
        for a, b, ph in zip(a_row, b_row, phase):
            ok &= a + b * np.cos(t - ph) >= 0.0
        out.append(ok.mean() * 2.0 * math.pi)
    return np.array(out)


def test_arcs_match_fine_grid():
    """Random rows, with duplicated columns, whole-circle and empty arcs."""
    gen = np.random.default_rng(31)
    K = 6
    phase = gen.uniform(-math.pi, math.pi, K)
    phase[4] = phase[1]  # a duplicate constraint: same phase ...
    A = gen.normal(scale=0.7, size=(40, K))
    B = np.abs(gen.normal(size=(40, K))) + 0.1
    A[:, 4], B[:, 4] = A[:, 1], B[:, 1]  # ... and the same arc on every row
    A[::5, 2] = B[::5, 2] + 0.3       # whole circle for that constraint
    A[1::9] = B[1::9] + 1.0           # every arc whole: the full circle
    A[3::11, 0] = -B[3::11, 0] - 0.2  # an empty arc empties the row
    start, length = _arcs(_half_width(A, B), phase)
    want = grid_measure(A, B, phase)
    # each merged piece may be off by one grid cell at either end
    tol = 2 * (K + 1) * 2.0 * math.pi / GRID
    np.testing.assert_allclose(length.sum(axis=1), want, atol=tol)
    assert np.all(length.sum(axis=1)[1::9] == pytest.approx(2.0 * math.pi))
    assert np.all(length.sum(axis=1)[3::11] == 0.0)
    # every piece is feasible: check its midpoint against every constraint
    mid = start + 0.5 * length
    vals = A[:, None, :] + B[:, None, :] * np.cos(mid[:, :, None] - phase)
    assert np.all(vals[length > 1e-9].min(axis=-1) >= -1e-12)


def test_arcs_duplicate_constraints_count_once():
    """Identical constraints at several indices give the arc once."""
    A = np.array([[0.2, 0.2, 0.2, -0.1]])
    B = np.ones((1, 4))
    phase = np.array([0.3, 0.3, 0.3, 0.3])
    _, length = _arcs(_half_width(A, B), phase)
    assert length.sum() == pytest.approx(2.0 * math.acos(0.1), rel=1e-12)
    _, length = _arcs(_half_width(A[:, :3], B[:, :3]), phase[:3])
    assert length.sum() == pytest.approx(2.0 * math.acos(-0.2), rel=1e-12)


def regular_gap3(radius=0.89):
    return sx.from_centers_radii(tetrahedron().centers, [radius] * 4)


def test_gap_circle_with_coinciding_barycentric_rows():
    """On S_12 of the regular gap, lambda_1 and lambda_2 coincide."""
    a = regular_gap3()
    alpha, beta, R = face_constraints(a, Chamber.all_plus(3), (1, 2))
    rows = np.column_stack([alpha, beta])
    dup = [(i, j) for i, j in itertools.combinations(range(len(rows)), 2)
           if np.allclose(rows[i], rows[j], atol=1e-12)]
    assert dup
    t = (np.arange(GRID) + 0.5) * (2.0 * math.pi / GRID)
    g = np.column_stack([np.cos(t), np.sin(t)])
    want = R * 2.0 * math.pi * np.all(alpha + g @ beta.T >= 0.0, axis=1).mean()
    got = face_volume(a, Chamber.all_plus(3), (1, 2))
    assert got.exact and got.method == "arc"
    cell = R * 2.0 * math.pi / GRID
    assert got.value == pytest.approx(want, abs=4 * len(alpha) * cell)


def test_circle_feasible_arcs_are_feasible():
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetrahedron()))
    for j in (1, 2, 3):
        intervals, radius = circle_feasible_arcs(m, j)
        center, _, frame = sx.sphere_circle(m, j)
        assert intervals
        for t0, t1 in intervals:
            assert 0.0 <= t0 < t1 <= 2.0 * math.pi
            for t in np.linspace(t0, t1, 7)[1:-1]:
                x = center + radius * (math.cos(t) * frame[0]
                                       + math.sin(t) * frame[1])
                assert np.all(m.normals @ x + m.offsets <= 1e-12)


def reference_vertex_counts(m, tol=1e-9):
    """Vertices of each circle pair: the two points of the planes' line
    on the sphere, solved directly, tested against the third plane."""
    out = {}
    for j, k in itertools.combinations((1, 2, 3), 2):
        (l,) = {1, 2, 3} - {j, k}
        U = m.normals[[j - 1, k - 1]]
        x0, *_ = np.linalg.lstsq(U, -m.offsets[[j - 1, k - 1]], rcond=None)
        d = np.cross(U[0], U[1])
        t_sq = 1.0 - float(x0 @ x0)
        if np.linalg.norm(d) < 1e-12 or t_sq <= 0.0:
            out[(j, k)] = 0
            continue
        d /= np.linalg.norm(d)
        out[(j, k)] = sum(
            float((x0 + s * math.sqrt(t_sq) * d) @ m.normals[l - 1])
            + m.offset(l) <= tol for s in (1.0, -1.0))
    return out


def test_jittered_arcs_and_vertices_match_grid():
    """Arc lengths of a jittered tetrahedron's circles against 400k grid
    points of each circle, and vertex counts against a direct solve."""
    gen = np.random.default_rng(409)
    while True:
        try:
            m = sx.config_matrix(sx.restrict_to_unit_sphere(random_h1(gen, 3)))
            break
        except sx.SphexError:
            continue
    arcs = sx.sphere_arc_lengths(m)
    t = (np.arange(GRID) + 0.5) * (2.0 * math.pi / GRID)
    for j in (1, 2, 3):
        center, radius, frame = sx.sphere_circle(m, j)
        x = center + radius * (np.cos(t)[:, None] * frame[0]
                               + np.sin(t)[:, None] * frame[1])
        others = [k for k in range(3) if k != j - 1]
        ok = (x @ m.normals[others].T + m.offsets[others] <= 0.0).all(axis=1)
        want = radius * 2.0 * math.pi * ok.mean()
        assert 0.0 < want < radius * 2.0 * math.pi, j
        # at most three pieces, each off by one grid cell at either end
        assert arcs[j] == pytest.approx(want, abs=6 * radius * 2.0 * math.pi
                                        / GRID), j
    assert sx.sphere_vertex_counts(m) == reference_vertex_counts(m)


def cap_area(m, cos_theta):
    """Measure of {g in S^m : g_0 >= cos_theta}."""
    return unit_sphere_area(m - 1) * sin_power_integral(m - 1,
                                                        math.acos(cos_theta))


def assert_closed_area(est, want):
    """An m = 2 region: exact from its boundary arcs, to 1e-12 relative."""
    assert est.method == "closed" and est.std_error == 0.0, est
    assert est.samples == 0
    assert est.value == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_caps_and_hemispheres_against_closed_forms(m):
    e0 = np.eye(m + 1)[0]
    for cos_theta in (0.0, 0.6, -0.3):
        est = sphere_region([-cos_theta], [e0], 20_000, Rng(3, m))
        want = cap_area(m, cos_theta)
        if m == 2:
            assert_closed_area(est, want)
            continue
        assert est.method == "conditional-mc" and not est.exact
        # every fibre crosses a cap centred on e1 symmetrically; a
        # hemisphere gives each fibre exactly half its circle
        assert abs(est.value - want) <= Z * est.std_error + 1e-12 * want, \
            (m, cos_theta)
    # two opposite caps that overlap in a band, and one that misses
    band = sphere_region([0.5, 0.5], [e0, -e0], 20_000, Rng(4, m))
    want = unit_sphere_area(m) - 2.0 * cap_area(m, 0.5)
    if m == 2:
        assert_closed_area(band, want)
    else:
        assert abs(band.value - want) <= Z * band.std_error
    empty = sphere_region([-1.5], [e0], 10, Rng(0))
    assert empty.exact and empty.value == 0.0
    whole = sphere_region([2.0, 1.0], [e0, -e0], 10, Rng(0))
    assert whole.exact and whole.value == pytest.approx(unit_sphere_area(m))


def test_region_without_rows_is_the_whole_sphere():
    """No constraint row leaves all of S^m, |S^m| exactly, with the
    method of its dimension, as rows that never bind do; the unit-sphere
    model refuses a face of negative dimension by name."""
    for m, method in enumerate(("count", "arc", "closed", "closed",
                                "closed")):
        est = sphere_region(np.zeros(0), np.zeros((0, m + 1)), 0, None)
        assert (est.value, est.std_error, est.method) == \
            (unit_sphere_area(m), 0.0, method), m
        loose = sphere_region([2.0], np.eye(1, m + 1), 0, None)
        assert loose == est, m
    assert sphere_region([2.0], [[1.0, 0.0]], 0, None).method == \
        sphere_region([], np.zeros((0, 2)), 0, None).method
    assert sphere_region([], np.zeros((0, 3)), 0, None).value == \
        pytest.approx(4.0 * math.pi, rel=1e-15)
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetrahedron()))
    for J in ((1, 2, 3), (1, 2, 3, 1)):
        with pytest.raises(ValueError, match=re.escape(str(J))):
            config_face_constraints(m, J)


def test_fibre_frame_contains_centre_direction():
    """e1 is +d, not -d, for every draw (QR alone gives -d for about
    half of them)."""
    gen = np.random.default_rng(5)
    for _ in range(200):
        beta = gen.normal(size=(4, 5))
        frame = _fibre_frame(beta)
        np.testing.assert_allclose(frame @ frame.T, np.eye(5), atol=1e-12)
        d = (beta / np.linalg.norm(beta, axis=1, keepdims=True)).sum(axis=0)
        assert frame[0] @ d > 0
        assert frame[0] @ d == pytest.approx(np.linalg.norm(d), rel=1e-12)


def test_repeatable_per_seed_stream_and_samples():
    # an m = 3 face: m = 2 faces are exact and draw no samples
    a = sx.from_centers_radii(regular_simplex4(), [1.0] * 5)
    alpha, beta, _ = face_constraints(a, Chamber.all_minus(4), (1,))
    assert beta.shape[1] == 4
    n = BLOCK + 123  # a partial second block
    first = sphere_region(alpha, beta, n, Rng(8, 2))
    again = sphere_region(alpha, beta, n, Rng(8, 2))
    assert (first.value, first.std_error) == (again.value, again.std_error)
    other = sphere_region(alpha, beta, n, Rng(8, 3))
    assert other.value != first.value
    assert first.samples == n


def regular_simplex5(side=1.5):
    """Centers of the regular 5-simplex with edge `side`."""
    s = side / math.sqrt(2.0)
    return np.vstack([np.eye(5) * s, np.full(5, s * (1.0 - math.sqrt(6.0))
                                             / 5.0)])


def reach_regions(gen):
    """(m, alpha, beta) of binding rows: every face (j,) of every chamber
    of a jittered regular 4- and 5-simplex (m = 3, 4), random caps and
    sets of rows on S^3 and S^4, and a region that holds -e1."""
    for centers in (regular_simplex4(), regular_simplex5()):
        n = centers.shape[1]
        a = sx.from_centers_radii(
            centers + gen.normal(scale=0.05, size=centers.shape),
            1.0 + gen.normal(scale=0.03, size=n + 1))
        for signs in itertools.product("-+", repeat=n + 1):
            for j in range(1, n + 2):
                alpha, beta, _ = face_constraints(
                    a, Chamber.from_string("".join(signs)), (j,))
                yield n - 1, alpha, beta
    for m in (3, 4):
        for K in (1, 1, 2, 3, 5):
            for _ in range(6):
                yield (m, gen.uniform(-0.9, 0.4, K),
                       gen.normal(size=(K, m + 1)))
    yield 3, np.array([0.9, 0.9]), np.eye(2, 4)


def test_fibres_beyond_the_reach_miss_the_region():
    """No point of the region (drawn by the indicator) lies on a fibre
    with |y| > r0, so the fibres `_fibres` leaves unscored score 0; the
    region that holds -e1 keeps the whole ball.  Where `_lowest_height`
    gives no bound the fibres come from the whole ball and `sphere_region`
    agrees with the indicator: a band between two parallel rows (a
    dependent set of rows) and a cone of 30 rows (more than
    `REACH_SUBSETS` sets of at most 3 rows)."""
    gen = np.random.default_rng(71)
    thinned = checked = 0
    for m, alpha, beta in reach_regions(gen):
        rows = _region_rows(m, alpha, beta)
        if isinstance(rows, float):
            continue
        frame = _fibre_frame(rows[1])
        r0 = _fibre_reach(*rows, frame[0])
        thinned += r0 < 1.0
        g = gen.normal(size=(20_000, m + 1))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g = g[(rows[0] + g @ rows[1].T >= 0.0).all(axis=1)]
        checked += len(g) > 0
        h = g @ frame[:2].T
        y2 = 1.0 - (h * h).sum(axis=1)
        assert np.all(y2 <= r0 * r0), (m, r0, y2.max())
    assert thinned >= 100 and checked >= 400, (thinned, checked)
    alpha, beta = np.array([0.9, 0.9]), np.eye(2, 4)
    assert _lowest_height(alpha, beta, _fibre_frame(beta)[0]) == -1.0
    assert _fibre_reach(alpha, beta, _fibre_frame(beta)[0]) == 1.0
    t = np.arange(30) * 2.0 * math.pi / 30
    cone = np.column_stack([np.full(30, 0.5), 0.75 ** 0.5 * np.cos(t),
                            0.75 ** 0.5 * np.sin(t), np.zeros(30)])
    for alpha, beta in (
            (np.array([-0.3, 0.9, -0.2]),
             np.eye(4)[[0, 0, 1]] * np.array([[1.0], [-1.0], [1.0]])),
            (np.full(30, -0.1), cone)):
        rows = _region_rows(3, alpha, beta)
        assert len(rows[0]) == len(alpha)
        e1 = _fibre_frame(rows[1])[0]
        assert _lowest_height(*rows, e1) is None
        assert _fibre_reach(*rows, e1) == 1.0
        est = sphere_region(alpha, beta, 20_000, Rng(74))
        want, sigma = indicator_area(alpha, beta, 400_000, 75)
        assert abs(est.value - want) <= 4.0 * math.hypot(est.std_error,
                                                         sigma)


def whole_ball_fibres(alpha, beta, samples, rng):
    """The fibre estimator drawing every fibre from the whole unit ball,
    written out: (value, std_error) of `samples` fibres on `rng`."""
    m = beta.shape[1] - 1
    k = m - 1
    proj = beta @ _fibre_frame(beta).T
    amp = np.hypot(proj[:, 0], proj[:, 1])
    phase = np.arctan2(proj[:, 1], proj[:, 0])
    scores = []
    for b in range(-(-samples // BLOCK)):
        gen = rng.generator(b)
        cnt = min(BLOCK, samples - b * BLOCK)
        y = gen.normal(size=(cnt, k))
        y *= (gen.random(cnt) ** (1.0 / k)
              / np.linalg.norm(y, axis=1))[:, None]
        scores.append(_fibre_lengths(y, alpha, proj[:, 2:], amp, phase))
    x = np.concatenate(scores)
    ball = unit_sphere_area(m) / (2.0 * math.pi)
    return ball * x.mean(), ball * x.std() / math.sqrt(samples)


def test_thinned_fibres_give_the_whole_ball_estimate():
    """On each of 200 streams the estimate and its std_error are the
    whole-ball estimator's, fibre for fibre (to rounding), on a face
    whose fibres are cut to 2% and one cut to 34%: the fibres left
    unscored are the zeros the whole ball scores."""
    a = sx.from_centers_radii(regular_simplex4(), [1.0] * 5)
    for signs, j in (("-----", 1), ("-+-+-", 2)):
        alpha, beta, _ = face_constraints(a, Chamber.from_string(signs),
                                          (j,))
        rows = _region_rows(3, alpha, beta)
        assert _fibre_reach(*rows, _fibre_frame(rows[1])[0]) < 0.6
        for s in range(200):
            est = sphere_region(alpha, beta, 3000, Rng(72, s))
            value, err = whole_ball_fibres(*rows, 3000, Rng(72, s))
            assert est.value == pytest.approx(value, rel=1e-12), (signs, s)
            assert est.std_error == pytest.approx(err, rel=1e-12), (signs, s)


def test_lowest_height_of_a_level_sphere():
    """Where e . g is constant on S_I its candidate counts without a test
    against the rows: a cap about e has least height exactly its own,
    and with a 5 degree cap about a direction 50 degrees from e inside
    it, whose least height is cos 55 degrees, the level circle of the
    first cap misses the region but still gives 0.5, a lower bound."""
    e = np.eye(4)[0]
    assert _lowest_height(np.array([-0.5]), e[None], e) == pytest.approx(
        0.5, abs=1e-15)
    w = np.array([math.cos(math.radians(50.0)),
                  math.sin(math.radians(50.0)), 0.0, 0.0])
    alpha = np.array([-0.5, -math.cos(math.radians(5.0))])
    assert _lowest_height(alpha, np.vstack([e, w]), e) == pytest.approx(
        0.5, abs=1e-15)
    g = np.random.default_rng(76).normal(size=(200_000, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    inside = g[(alpha + g @ np.vstack([e, w]).T >= 0.0).all(axis=1)]
    assert len(inside) and inside[:, 0].min() >= math.cos(
        math.radians(55.0)) - 1e-12


def test_fibres_outside_the_reach_are_not_scored(monkeypatch):
    """On an all-minus face of the regular 4-simplex (r0^2 = 0.0234)
    fewer than 5% of 30,000 fibres reach `_fibre_lengths`, and the
    estimate still counts all 30,000."""
    scored = []

    def counted(y, *args):
        scored.append(len(y))
        return _fibre_lengths(y, *args)

    monkeypatch.setattr(volume, "_fibre_lengths", counted)
    a = sx.from_centers_radii(regular_simplex4(), [1.0] * 5)
    alpha, beta, _ = face_constraints(a, Chamber.all_minus(4), (1,))
    est = sphere_region(alpha, beta, 30_000, Rng(73))
    assert 0 < sum(scored) < 0.05 * 30_000, sum(scored)
    assert est.samples == 30_000 and est.value > 0.0


def indicator_area(alpha, beta, samples, seed):
    """Independent indicator MC of the region, on the unit sphere."""
    gen = np.random.default_rng(seed)
    g = gen.normal(size=(samples, beta.shape[1]))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    f = np.all(alpha + g @ beta.T >= 0.0, axis=1).mean()
    area = unit_sphere_area(beta.shape[1] - 1)
    return area * f, area * max(math.sqrt(f * (1 - f) / samples),
                                1.0 / samples)


def assert_faces_match_oracle(a, c, kernel_samples, oracle_samples, seed):
    bounding = None if c.minus_set() else "simplex"
    for p in range(1, a.n + 1):
        for J in itertools.combinations(range(1, a.n + 2), p):
            got = face_volume(a, c, J, kernel_samples, Rng(seed, p))
            want = face_volume_mc(a, c, J, oracle_samples,
                                  Rng(seed, 100 + p), bounding=bounding)
            m = a.n - p
            methods = {0: ("count",), 1: ("arc",), 2: ("closed",)}.get(
                m, ("conditional-mc", "closed"))
            assert got.method in methods, (J, got.method)
            if m == 0:
                assert got.value == want.value, (c, J)
                continue
            R = sx.intersection_sphere(a, J).radius
            area = unit_sphere_area(m) * R ** m
            sigma = math.hypot(got.std_error,
                               max(want.std_error, area / oracle_samples))
            assert abs(got.value - want.value) <= Z * sigma, \
                (str(c), J, got, want)


def test_faces_of_random_n3_draws_match_indicator():
    gen = np.random.default_rng(303)
    for i in range(3):
        a = random_h1(gen, 3)
        for signs in ("----", "-+-+", "+--+"):
            assert_faces_match_oracle(a, Chamber.from_string(signs), 20_000,
                                      100_000, 40 + i)


def test_faces_of_random_n4_draws_match_indicator():
    gen = np.random.default_rng(404)
    base = regular_simplex4()
    done = 0
    while done < 2:
        c = base + gen.normal(scale=0.08, size=base.shape)
        r = np.abs(1.0 + gen.normal(scale=0.05, size=5))
        a = sx.from_centers_radii(c, r)
        if sx.check_hypotheses(a, h2="skip").h1 is not True:
            continue
        assert_faces_match_oracle(a, Chamber.all_minus(4), 10_000, 60_000,
                                  41 + done)
        done += 1


def test_gap_faces_n3_match_indicator():
    assert_faces_match_oracle(regular_gap3(), Chamber.all_plus(3), 20_000,
                              200_000, 42)
    gen = np.random.default_rng(405)
    done = 0
    while done < 2:
        c = tetrahedron().centers + gen.normal(scale=0.04, size=(4, 3))
        r = np.abs(0.89 + gen.normal(scale=0.02, size=4))
        a = sx.from_centers_radii(c, r)
        if sx.check_hypotheses(a, h2="skip").h1_prime is not True:
            continue
        assert_faces_match_oracle(a, Chamber.all_plus(3), 20_000, 200_000,
                                  43 + done)
        done += 1


def test_restricted_model_regions_match_indicator():
    mats = [
        ConfigMatrix.from_entries(3, [0.0, 0.0, 0.0],
                                  {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0}),
        ConfigMatrix.from_entries(3, [0.0, 0.0, -3.0],
                                  {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0}),
        sx.config_matrix(sx.restrict_to_unit_sphere(tetrahedron())),
    ]
    gen = np.random.default_rng(406)
    for _ in range(3):
        a = random_h1(gen, 3)
        try:
            mats.append(sx.config_matrix(sx.restrict_to_unit_sphere(a)))
        except sx.SphexError:
            continue
    for i, m in enumerate(mats):
        got = sphere_region_area_mc(m, 50_000, Rng(44, i))
        want, sigma = indicator_area(-m.offsets, -m.normals, 400_000, 44 + i)
        assert abs(got.value - want) <= Z * math.hypot(got.std_error, sigma), i


def benchmark_gap_draws(gen, count):
    """H1' draws as `planar_closed` in bench/workloads.py makes its gaps:
    the side-1.5 triangle with radius 0.8, centers jittered by 0.25 and
    radii by 0.15, some of them without a real gap."""
    out = []
    while len(out) < count:
        c = equilateral().centers + gen.normal(scale=0.25, size=(3, 2))
        r = np.abs(0.8 + gen.normal(scale=0.15, size=3))
        a = sx.from_centers_radii(c, r)
        if sx.check_hypotheses(a, h2="skip").h1_prime:
            out.append(a)
    return out


def test_vertex_counts_match_indicator_oracle():
    """The two-point count keeps the indicator estimator's tolerance."""
    gen = np.random.default_rng(407)
    cases = [(random_h1(gen, 2), None) for _ in range(5)]
    cases += [(random_h1_prime(gen), "+++") for _ in range(5)]
    # every gap draw of one benchmark-like round: the gap area counts its
    # vertices with `face_volume`, the indicator estimator's count before
    cases += [(a, "+++") for a in benchmark_gap_draws(
        np.random.default_rng(1101), 144)]
    cases += [(random_h1(gen, 3), None) for _ in range(3)]
    cases.append((regular_gap3(), "++++"))
    for a, only in cases:
        chambers = ([Chamber.from_string(only)] if only else
                    [Chamber(s) for s in itertools.product((-1, 1),
                                                           repeat=a.n + 1)
                     if -1 in s])
        for c in chambers:
            bounding = None if c.minus_set() else "simplex"
            for J in itertools.combinations(range(1, a.n + 2), a.n):
                got = face_volume(a, c, J)
                want = face_volume_mc(a, c, J, 1, Rng(0), bounding=bounding)
                assert (got.value, got.exact, got.method) == \
                    (want.value, True, "count"), (str(c), J)


def test_volume_estimate_method():
    assert VolumeEstimate(1.0, 0.1, 10, "conditional-mc").method == \
        "conditional-mc"
    with pytest.raises(ValueError):
        VolumeEstimate(1.0, 0.0, 0, "guess")
    tri = equilateral()
    assert face_volume(tri, Chamber.all_minus(2), (1,)).method == "closed"
    assert sx.chamber_volume(tri, Chamber.all_minus(2)).method == "closed"
    est = sx.chamber_volume(tetrahedron(), Chamber.all_minus(3), 1000, Rng(1))
    assert est.method == "conditional-mc"


@pytest.mark.parametrize("method", METHODS)
def test_volume_estimate_exact_follows_method(method):
    est = VolumeEstimate(1.0, 0.0, 0, method)
    assert est.exact == (method in EXACT_METHODS)
    assert est.exact == (method not in ("mc", "conditional-mc"))


def test_volume_estimate_rejects_inconsistent_fields():
    for method in EXACT_METHODS:
        with pytest.raises(ValueError):
            VolumeEstimate(1.0, 0.1, 10, method)
    for method in ("mc", "conditional-mc"):
        assert VolumeEstimate(1.0, 0.1, 10, method).std_error == 0.1
    for method in ("guess", None, "exact"):
        with pytest.raises(ValueError):
            VolumeEstimate(1.0, 0.0, 0, method)


def test_closed_form_fallbacks_name_their_reason():
    allm = Chamber.all_minus(2)
    tri = equilateral()
    assert sx.chamber_volume(tri, allm).fallback_reason is None
    assert face_volume(tri, allm, (1,)).fallback_reason is None
    apart = equilateral(0.5)                # the three disks do not meet
    est = sx.chamber_volume(apart, allm, 1000, Rng(1))
    assert est.method == "conditional-mc"
    assert est.fallback_reason.startswith(
        "closed form unavailable: HypothesisError")
    face = face_volume(apart, allm, (1,))
    assert (face.method, face.value) == ("arc", 0.0)
    assert face.fallback_reason.startswith(
        "closed form unavailable: EmptyIntersectionError")


def test_n2_closed_arcs_need_h1():
    """On draws where H1 fails, the closed arc of a chamber with a minus
    sign would be wrong (even negative), so every face (k,) is the
    kernel's exact arc on its rows, never below 0, and names why the
    closed arc was not taken."""
    gen = np.random.default_rng(5)
    chambers = [Chamber(s) for s in itertools.product((-1, 1), repeat=3)
                if -1 in s]
    draws = 0
    while draws < 150:
        a = sx.from_centers_radii(gen.normal(size=(3, 2)),
                                  gen.uniform(0.3, 2.0, 3))
        if sx.check_hypotheses(a, h2="skip").h1 is True:
            continue
        draws += 1
        for c in chambers:
            for k in (1, 2, 3):
                face = face_volume(a, c, (k,))
                alpha, beta, R = face_constraints(a, c, (k,))
                arc = R * sphere_region(alpha, beta, 1, Rng(0)).value
                assert face.value >= 0.0, (draws, str(c), k)
                assert abs(face.value - arc) <= 1e-9, (draws, str(c), k)
                assert face.fallback_reason.startswith(
                    "closed form unavailable: "), (draws, str(c), k)


class NoDraws(Rng):
    """A stream that refuses to be drawn from."""

    def generator(self, block):
        raise AssertionError("an exact measure drew samples")


def test_exact_measures_draw_nothing():
    """`_measure` reads no stream for a region of dimension m <= 2: not
    through `face_volume` (every such face of an n = 3 H1 draw and of
    the regular 4-simplex), `sphere_region`, the Gauss-Bonnet check or
    the unit-sphere finite difference."""
    rng = NoDraws(0)
    a = random_h1(np.random.default_rng(77), 3)
    cases = [(a, c) for c in map(Chamber, itertools.product((-1, 1), repeat=4))
             if c.minus_set()]
    cases.append((sx.from_centers_radii(regular_simplex4(), [1.0] * 5),
                  Chamber.all_minus(4)))
    for a, c in cases:
        for p in range(a.n - 2, a.n + 1):
            for J in itertools.combinations(range(1, a.n + 2), p):
                assert face_volume(a, c, J, 1000, rng).exact, (str(c), J)
    e0 = np.eye(3)
    for m in (0, 1, 2):
        est = sphere_region([0.3, 0.2], -e0[:2, :m + 1], 1000, rng)
        assert est.exact and est.value > 0.0, m
    unit = sx.config_matrix(sx.restrict_to_unit_sphere(tetrahedron()))
    assert sx.check_gauss_bonnet_n3(unit, 1000, rng).passed
    rep = sx.verify_variation_fd("unit-sphere", unit, None, ("a0", 1), 3e-2,
                                 1000, rng)
    assert rep.method == "closed" and rep.passed


def test_params_of_shares_one_table(monkeypatch):
    built = []
    original = CMTable.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(CMTable, "__post_init__", counting)
    a = equilateral()
    forms = [sx.theta(a, (1, 2, 3)) for _ in range(3)]
    assert len(built) == 1
    assert forms[0] == forms[1] == forms[2]
    assert params_of(a) is params_of(a)
    # the arrangement's own table is its parameter vector's table
    sx.check_hypotheses(a)
    sx.dB_volume_form(a, Chamber.all_minus(2))
    assert CMTable.from_arrangement(a) is CMTable.from_params(params_of(a))
    assert len(built) == 1




# ---------------------------------------------------------------------------
# m = 2: the area from the boundary arcs (Stokes' theorem)
# ---------------------------------------------------------------------------


def assert_batched_areas_agree(regions, seed=0):
    """Each m = 2 region, stacked with the others of the same row count
    and two random regions, gets its own (S = 1) area to 4e-15.

    The rows are prepared region by region (`_region_rows`), as
    `sphere_region` prepares them; regions measured without the kernel
    are skipped."""
    gen = np.random.default_rng(seed)
    groups = {}
    for alpha, beta in regions:
        rows = _region_rows(2, np.asarray(alpha, float),
                            np.asarray(beta, float))
        if not isinstance(rows, float):
            groups.setdefault(len(rows[0]), []).append(rows)
    assert groups
    for K, group in groups.items():
        fill = [random_region(gen, K) for _ in range(2)]
        stack = fill[:1] + group + fill[1:]
        alpha = np.stack([r[0] for r in stack])
        beta = np.stack([r[1] for r in stack])
        batched = _region_area(alpha, beta)
        assert batched.shape == (len(stack),)
        for (al, be), got in zip(stack, batched):
            alone = _region_area(al[None], be[None])
            assert alone.shape == (1,)
            assert abs(got - alone[0]) <= 4e-15, (K, got, alone[0])


def plane_matrix(offset3):
    """Two orthogonal walls through the pole and a plane at `offset3`."""
    return ConfigMatrix.from_entries(3, [0.0, 0.0, offset3],
                                     {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0})


def test_region_area_matches_gauss_bonnet_closed_form():
    """The region's area against the rhs of the Gauss-Bonnet check."""
    mats = [sx.config_matrix(sx.restrict_to_unit_sphere(tetrahedron())),
            plane_matrix(0.0)]                      # the octant
    # the notched quarter sphere, then the wall fade-out offsets
    mats += [plane_matrix(off) for off in (-3.0, -6.0, -12.0, -24.0)]
    gen = np.random.default_rng(409)
    drawn = 0
    while drawn < 10:
        try:
            mats.append(sx.config_matrix(
                sx.restrict_to_unit_sphere(random_h1(gen, 3))))
        except sx.SphexError:
            continue
        drawn += 1
    for i, m in enumerate(mats):
        rep = sx.check_gauss_bonnet_n3(m, 10, Rng(0))
        assert rep.passed and rep.tolerance == 1e-12, i
        assert_closed_area(sphere_region_area_mc(m, 10, Rng(0)), rep.rhs)


def benchmark_faces():
    """Every m = 2 face of the n >= 3 geometry the benchmark measures.

    The tetrahedron in four chambers, four jittered tetrahedra drawn as
    the benchmark draws them, the regular gap, the regular 4-simplex and
    the restricted tetrahedron.  Yields (label, alpha, beta).
    """
    tet = tetrahedron()
    cases = [(tet, Chamber.from_string(s))
             for s in ("----", "---+", "--++", "-+++")]
    gen = np.random.default_rng(2024)
    cases += [(random_h1(gen, 3), Chamber.all_minus(3)) for _ in range(4)]
    cases.append((regular_gap3(), Chamber.all_plus(3)))
    cases.append((sx.from_centers_radii(regular_simplex4(), [1.0] * 5),
                  Chamber.all_minus(4)))
    for a, c in cases:
        for J in itertools.combinations(range(1, a.n + 2), a.n - 2):
            alpha, beta, _ = face_constraints(a, c, J)
            yield f"{c} {J}", alpha, beta
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tet))
    yield "restricted", -m.offsets, -m.normals


def test_benchmark_faces_are_exact_and_draw_nothing():
    """Every m = 2 face of the benchmark's geometry is exact, drawing
    nothing, whatever samples and rng are passed."""
    count = 0
    for label, alpha, beta in benchmark_faces():
        assert beta.shape[1] == 3
        rows = _binding(alpha, beta)
        if rows is None or not len(rows[0]):
            continue
        est = sphere_region(alpha, beta, 10, Rng(0))
        assert (est.method, est.std_error, est.samples) == ("closed", 0.0, 0)
        assert est == sphere_region(alpha, beta, 5000, Rng(9, 3)), label
        count += 1
    assert count == 4 * 4 + 4 * 4 + 4 + 10 + 1


def random_region(gen, rows):
    """`rows` random caps; h uniform in (-0.9, 0.9)."""
    beta = gen.normal(size=(rows, 3))
    alpha = gen.uniform(-0.9, 0.9, rows) * np.linalg.norm(beta, axis=1)
    return alpha, beta


def test_region_area_invariant_under_rotation():
    """A rotation of the rows rotates the region, so its area must not
    move; the area depends on the pole only through rounding, and this
    guards the pole choice."""
    gen = np.random.default_rng(410)
    regions = [(alpha, beta) for _, alpha, beta in benchmark_faces()]
    regions += [random_region(gen, gen.integers(1, 7)) for _ in range(400)]
    # the eight octants: their vertices and circles hold every axis, and
    # a pole whose antipode is a vertex or on an arc breaks the sum
    regions += [(np.zeros(3), np.diag(signs))
                for signs in itertools.product((1.0, -1.0), repeat=3)]
    worst = 0.0
    rotated = []
    for alpha, beta in regions:
        base = sphere_region(alpha, beta, 10, Rng(0)).value
        for _ in range(3):
            Q, _ = np.linalg.qr(gen.normal(size=(3, 3)))
            rotated.append((alpha, beta @ Q.T))
            moved = sphere_region(*rotated[-1], 10, Rng(0)).value
            worst = max(worst, abs(moved - base))
    assert worst <= 1e-13, worst
    assert_batched_areas_agree(regions + rotated, 410)


def test_regions_match_indicator():
    gen = np.random.default_rng(411)
    for i in range(60):
        alpha, beta = random_region(gen, gen.integers(1, 6))
        got = sphere_region(alpha, beta, 10, Rng(0))
        assert got.method == "closed"
        want, sigma = indicator_area(alpha, beta, 200_000, 411 + i)
        assert abs(got.value - want) <= Z * sigma, (i, got.value, want)


def test_region_area_duplicate_and_whole_circle_rows():
    a = tetrahedron()
    alpha, beta, _ = face_constraints(a, Chamber.all_minus(3), (1,))
    base = sphere_region(alpha, beta, 10, Rng(0))
    assert base.method == "closed"
    # the same row twice, once rescaled, and a row that never binds
    e0 = np.eye(3)[0]
    alpha2 = np.concatenate([alpha, [alpha[0], 3.0 * alpha[1], 2.0]])
    beta2 = np.vstack([beta, beta[0], 3.0 * beta[1], e0])
    assert_closed_area(sphere_region(alpha2, beta2, 10, Rng(0)), base.value)
    # the band 0.3 <= g0 <= 0.5 and a row g0 >= -0.5 that binds on the
    # sphere but contains the whole band
    band = sphere_region([-0.3, 0.5, 0.5], [e0, e0, -e0], 10, Rng(0))
    assert_closed_area(band, cap_area(2, 0.3) - cap_area(2, 0.5))
    assert_batched_areas_agree([(alpha, beta), (alpha2, beta2),
                                ([-0.3, 0.5, 0.5], [e0, e0, -e0])])


def test_same_circle_with_opposite_sides_is_empty():
    """The region is the circle itself: its two arcs cancel, and the
    rounding left over never reads below 0."""
    b = np.array([0.36, -0.48, 0.8])
    cases = [([0.3, -0.3 * scale], [b, -scale * b]) for scale in (1.0, 2.5)]
    # with a third row, and with the plain copy of the circle too
    cases.append(([0.3, -0.3, 0.3, 0.1], [b, -b, b, np.eye(3)[0]]))
    for alpha, beta in cases:
        est = sphere_region(alpha, beta, 10, Rng(0))
        assert est.method == "closed" and 0.0 <= est.value <= 1e-14, est
    assert_batched_areas_agree(cases)


def test_region_area_gap_face_with_coinciding_rows():
    """S_12 of the regular n = 4 gap, where lambda_1 and lambda_2 coincide."""
    a = sx.from_centers_radii(regular_simplex4(), [0.93] * 5)
    c = Chamber.all_plus(4)
    assert sx.check_hypotheses(a, h2="skip").h1_prime is True
    alpha, beta, R = face_constraints(a, c, (1, 2))
    rows = np.column_stack([alpha, beta])
    dup = [j for i, j in itertools.combinations(range(len(rows)), 2)
           if np.allclose(rows[i], rows[j], atol=1e-12)]
    assert dup
    est = sphere_region(alpha, beta, 10, Rng(0))
    once = sphere_region(np.delete(alpha, dup), np.delete(beta, dup, axis=0),
                         10, Rng(0))
    assert_closed_area(est, once.value)
    want, sigma = indicator_area(alpha, beta, 1_000_000, 45)
    assert abs(est.value - want) <= Z * sigma
    assert face_volume(a, c, (1, 2)).value == pytest.approx(
        est.value * R ** 2, rel=1e-15)
    assert_batched_areas_agree(
        [(alpha, beta), (np.delete(alpha, dup), np.delete(beta, dup, axis=0))]
        + [face_constraints(a, c, J)[:2]
           for J in itertools.combinations(range(1, 6), 2)])


def test_region_area_octant_and_near_hemispheres():
    """The octant, whose circles pass through every axis, and
    near-hemispheres, whose rims pass close to every direction
    orthogonal to their centres."""
    assert_closed_area(sphere_region(np.zeros(3), np.eye(3), 10, Rng(0)),
                       math.pi / 2)
    regions = [(np.zeros(3), np.eye(3))]
    for k in range(2, 11):
        c = 10.0 ** -k
        regions.append(([c], [np.eye(3)[1]]))
        est = sphere_region(*regions[-1], 10, Rng(0))
        assert_closed_area(est, 2.0 * math.pi * (1.0 + c))
    assert_batched_areas_agree(regions)


def test_region_containing_the_antipode_of_its_pole():
    """Regions that hold most of the sphere: the pole whose antipode is
    farthest from every circle is then a point whose antipode lies in
    the region, so the area takes the 4 pi term."""
    b = np.array([[0.36, -0.48, 0.8], [0.0, 0.6, -0.8], [-0.8, 0.0, -0.6]])
    assert_closed_area(sphere_region([0.9], b[:1], 10, Rng(0)),
                       cap_area(2, -0.9))
    # the sphere minus three small caps that do not meet
    est = sphere_region([0.95] * 3, -b, 10, Rng(0))
    assert_closed_area(est, 4.0 * math.pi - 3.0 * cap_area(2, 0.95))
    assert_batched_areas_agree([([0.9], b[:1]), ([0.95] * 3, -b)])


def rotate_towards(x, y, angle):
    return math.cos(angle) * x + math.sin(angle) * y


def test_nearly_coinciding_circles():
    """Two caps of the same size whose centres are gamma apart: their
    lens is the cap less 2 rho gamma, to O(gamma^3).  Cosines taken
    directly from the rows lost these crossings (errors of 2e-8 at
    gamma = 1e-8, and above 1e-5 at 1e-11)."""
    gen = np.random.default_rng(412)
    regions = []
    for gamma in (1e-6, 1e-8, 1e-10, 1e-11, 1e-12, 1e-14):
        for _ in range(10):
            Q, _ = np.linalg.qr(gen.normal(size=(3, 3)))
            h = gen.uniform(-0.8, 0.8)
            beta = np.vstack([Q[0], rotate_towards(Q[0], Q[1], gamma)])
            est = sphere_region([-h, -h], beta, 10, Rng(0))
            want = cap_area(2, h) - 2.0 * math.sqrt(1.0 - h * h) * gamma
            assert abs(est.value - want) <= 1e-13, (gamma, est.value - want)
            # the same with the sides of one cap swapped: a thin band
            band = sphere_region([-h, h], [beta[0], -beta[1]], 10, Rng(0))
            assert band.value <= 2.0 * math.pi * gamma + 1e-13, gamma
            regions += [([-h, -h], beta), ([-h, h], [beta[0], -beta[1]])]
    assert_batched_areas_agree(regions, 412)


def test_touching_circles():
    """A small cap inside a larger one touching it, and a cap outside
    another touching it.  Arcs that end where two circles touch are
    ill-conditioned (sqrt(rounding) ~ 1e-8); both circles take them from
    one value, so they end at the same points (errors of 4e-8 without)."""
    gen = np.random.default_rng(413)
    regions = []
    for _ in range(20):
        Q, _ = np.linalg.qr(gen.normal(size=(3, 3)))
        r1 = gen.uniform(0.4, 2.5)
        r2 = gen.uniform(0.2, 0.9) * min(r1, math.pi - r1)
        inner = rotate_towards(Q[0], Q[1], r1 - r2)
        regions.append(([-math.cos(r1), -math.cos(r2)], [Q[0], inner]))
        est = sphere_region(*regions[-1], 10, Rng(0))
        assert abs(est.value - cap_area(2, math.cos(r2))) <= 1e-13
        outer = rotate_towards(Q[0], Q[1], r1 + r2)
        regions.append(([-math.cos(r1), math.cos(r2)], [Q[0], -outer]))
        est = sphere_region(*regions[-1], 10, Rng(0))
        assert abs(est.value - cap_area(2, math.cos(r1))) <= 1e-13
    assert_batched_areas_agree(regions, 413)
