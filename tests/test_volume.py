import itertools
import math

import numpy as np
import pytest

import sphex as sx
from sphex.arrangement import Chamber
from sphex.cayley_menger import CMTable, ConfigMatrix
from sphex.errors import (
    DegenerateConfigError,
    EmptyIntersectionError,
    HypothesisError,
)
from sphex.volume import (
    Rng,
    _simplex_rows,
    cap_integral,
    chamber_arc_angles,
    chamber_area_closed_n2,
    chamber_volume,
    chamber_volume_mc,
    decomposition_cell_coefficient,
    decomposition_cell_volume,
    face_constraints,
    face_volume,
    face_volume_mc,
    lens_volume_closed,
    pseudo_triangle_area_closed,
    simplex_volume,
    sin_power_integral,
    sphere_arc_lengths,
    sphere_region,
    sphere_region_area_mc,
    sphere_vertex_counts,
    unit_sphere_area,
)
from conftest import (
    embedded_lens,
    equilateral,
    random_h1,
    random_h1_prime,
)

LENS_11_1 = 2 * math.pi / 3 - math.sqrt(3) / 2  # two unit disks, distance 1


def test_unit_sphere_area_values():
    assert unit_sphere_area(0) == pytest.approx(2.0)
    assert unit_sphere_area(1) == pytest.approx(2 * math.pi)
    assert unit_sphere_area(2) == pytest.approx(4 * math.pi)
    assert unit_sphere_area(3) == pytest.approx(2 * math.pi ** 2)


def test_sin_power_integral_small_orders():
    th = 1.234
    assert sin_power_integral(0, th) == pytest.approx(th)
    assert sin_power_integral(1, th) == pytest.approx(1 - math.cos(th))
    assert sin_power_integral(2, th) == pytest.approx(
        0.5 * (th - math.sin(th) * math.cos(th)), rel=1e-12)
    quad = pytest.importorskip("scipy.integrate").quad
    for m in (3, 4, 7):
        want, _ = quad(lambda t: math.sin(t) ** m, 0.0, th)
        assert sin_power_integral(m, th) == pytest.approx(want, rel=1e-10)


def test_cap_integral_known_values():
    assert cap_integral(2, 0.0) == pytest.approx(math.pi / 4, rel=1e-12)
    assert cap_integral(3, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert cap_integral(3, 0.5) == pytest.approx(5.0 / 24.0, rel=1e-12)
    assert cap_integral(2, 1.0) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        cap_integral(2, 1.5)


def test_cap_integral_methods_agree():
    """The sine-power expansion against adaptive quadrature (scipy)."""
    quad = pytest.importorskip("scipy.integrate").quad
    for n in (2, 3, 4, 5):
        for t0 in (-0.8, -0.2, 0.0, 0.3, 0.9):
            want, _ = quad(lambda t: (1.0 - t * t) ** ((n - 1) / 2.0), t0,
                           1.0, epsabs=1e-13, epsrel=1e-13)
            assert cap_integral(n, t0) == pytest.approx(want, abs=1e-12)


def test_lens_unit_circles():
    assert lens_volume_closed(2, 1.0, 1.0, 1.0) == pytest.approx(
        LENS_11_1, rel=1e-12)


def printed_lens(n, r1, r2, rho):
    """The printed low-dimensional lens formulas: two circular segments
    (n = 2) or two caps by the cubic cap polynomial (n = 3)."""
    out = 0.0
    for r, s in ((r1, r2), (r2, r1)):
        h = math.acos((rho * rho + r * r - s * s) / (2.0 * rho * r))
        if n == 2:
            out += 0.5 * r * r * (2 * h - math.sin(2 * h))
        else:
            ch = math.cos(h)
            out += math.pi * r ** 3 * (2.0 / 3.0 - ch + ch ** 3 / 3.0)
    return out


def test_lens_methods_agree():
    gen = np.random.default_rng(41)
    for _ in range(10):
        r1, r2 = gen.uniform(0.5, 2.0, size=2)
        rho = gen.uniform(abs(r1 - r2) + 0.05, r1 + r2 - 0.05)
        a2 = lens_volume_closed(2, r1, r2, rho)
        assert a2 == pytest.approx(printed_lens(2, r1, r2, rho), rel=1e-12)
        a3 = lens_volume_closed(3, r1, r2, rho)
        assert a3 == pytest.approx(printed_lens(3, r1, r2, rho), rel=1e-12)


def test_lens_failure_modes():
    with pytest.raises(EmptyIntersectionError):
        lens_volume_closed(2, 1.0, 1.0, 2.5)
    with pytest.raises(EmptyIntersectionError):
        lens_volume_closed(2, 1.0, 3.0, 0.5)  # nested


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("r1, r2, rho, error", [
    (1.0, 1.0, 2.0, sx.TangencyError),          # touching outside
    (1.0, 2.0, 1.0, sx.TangencyError),          # touching inside
    (1.0, 1.0, 2.0 - 1e-9, sx.TangencyError),   # within the sign band
    (1.0, 2.0, 1.0 + 1e-9, sx.TangencyError),
    (1.0, 1.0, 2.5, EmptyIntersectionError),    # disjoint
    (1.0, 3.0, 0.5, EmptyIntersectionError),    # nested
])
def test_lens_volume_and_form_refuse_alike(scale, r1, r2, rho, error):
    """The lens volume and its one-form read one two-ball table, so both
    refuse the same balls with the same error at every scale."""
    args = (r1 * scale, r2 * scale, rho * scale)
    with pytest.raises(error):
        lens_volume_closed(3, *args)
    with pytest.raises(error):
        sx.lens_variation_form(3, *args)


def test_rng_determinism():
    r = Rng(7)
    a = chamber_volume_mc(equilateral(), Chamber.all_minus(2), 40000, r)
    b = chamber_volume_mc(equilateral(), Chamber.all_minus(2), 40000, Rng(7))
    assert a.value == b.value
    c = chamber_volume_mc(equilateral(), Chamber.all_minus(2), 40000,
                          Rng(7).substream(3))
    assert c.value != a.value


def test_rng_substreams_are_paths():
    """A child stream is the path (parent stream, k), so distinct parents
    give distinct draws; an integer stream keeps its Philox key (seed, k)."""
    def draws(rng, block=0):
        return rng.generator(block).random(4)

    assert Rng(5, 101).substream(2) == Rng(5, (101, 2))
    assert Rng(5, 101).substream(2).substream(3) == Rng(5, (101, 2, 3))
    assert np.array_equal(draws(Rng(5, (101, 2))),
                          draws(Rng(5, 101).substream(2)))
    distinct = [Rng(5, 101).substream(2), Rng(5, 7).substream(2), Rng(5, 2),
                Rng(5).substream(2), Rng(6, 101).substream(2),
                Rng(5, 101).substream(2).substream(0),
                Rng(5, 2).substream(101)]
    for x, y in itertools.combinations(distinct, 2):
        assert not np.array_equal(draws(x), draws(y)), (x, y)
    for seed, stream, block in ((5, 101, 0), (0, 0, 3), (-1, 7, 1)):
        bit = np.random.Philox(key=np.array([seed % 2 ** 64, stream],
                                            dtype=np.uint64))
        bit.advance(block << 24)
        assert np.array_equal(draws(Rng(seed, stream), block),
                              np.random.Generator(bit).random(4))


def draw_wide_h1_prime(gen):
    """A jittered equilateral arrangement wide enough that H1' holds on
    some draws whose gap arcs are not all positive."""
    while True:
        c = equilateral().centers + gen.normal(scale=0.25, size=(3, 2))
        r = np.abs(0.8 + gen.normal(scale=0.15, size=3))
        try:
            a = sx.from_centers_radii(c, r)
        except ValueError:
            continue
        if sx.check_hypotheses(a, h2="skip").h1_prime is True:
            return a


def test_n2_gap_is_refused_or_matches_indicator():
    """H1' alone does not certify an n = 2 gap: a closed all-plus area is
    either refused or within 5 sigma of indicator MC (sigma floored at
    one hit), and every refusal has a gap arc <= 0."""
    gen = np.random.default_rng(12345)
    c = Chamber.all_plus(2)
    samples = 20_000
    refused = 0
    for i in range(100):
        a = draw_wide_h1_prime(gen)
        arcs = chamber_arc_angles(a, c)
        try:
            closed = chamber_area_closed_n2(a, c)
        except HypothesisError as e:
            assert "gap arc" in str(e) and min(arcs.values()) <= 0.0, i
            refused += 1
            continue
        assert min(arcs.values()) > 0.0
        est = chamber_volume_mc(a, c, samples, Rng(1, i), bounding="simplex")
        box = float(np.prod(a.centers.max(axis=0) - a.centers.min(axis=0)))
        sigma = max(est.std_error, box / samples)
        assert abs(est.value - closed) <= 5.0 * sigma, (i, closed, est)
    assert refused > 0


def test_uncertified_n2_gap_is_refused_everywhere():
    gen = np.random.default_rng(12345)
    a = draw_wide_h1_prime(gen)
    while min(chamber_arc_angles(a, Chamber.all_plus(2)).values()) > 0.0:
        a = draw_wide_h1_prime(gen)
    for check in (sx.check_theorem_II_i, sx.check_decomposition):
        with pytest.raises(HypothesisError, match="gap arc"):
            check(a)
    est = chamber_volume(a, Chamber.all_plus(2), 2000, Rng(1))
    assert est.method == "conditional-mc"
    assert est.fallback_reason.startswith(
        "closed form unavailable: HypothesisError: gap arc")


def test_n2_gap_faces_are_never_negative():
    """The closed gap arc r_j (phi_j - psi_jk/2 - psi_jl/2) needs a
    certified gap; otherwise the face is the kernel's exact arc, 0 where
    the formula goes negative, and the refusal is named."""
    gen = np.random.default_rng(12345)
    c = Chamber.all_plus(2)
    uncertified = 0
    for i in range(100):
        a = draw_wide_h1_prime(gen)
        certified = min(chamber_arc_angles(a, c).values()) > 0.0
        uncertified += not certified
        for j in (1, 2, 3):
            got = face_volume(a, c, (j,))
            alpha, beta, R = face_constraints(a, c, (j,))
            arc = R * sphere_region(alpha, beta, 1, Rng(0)).value
            assert got.value >= 0.0, (i, j, got)
            assert got.value == pytest.approx(arc, rel=1e-9, abs=1e-12)
            if certified:
                assert (got.method, got.fallback_reason) == ("closed", None)
            else:
                assert got.method == "arc"
                assert got.fallback_reason.startswith(
                    "closed form unavailable: HypothesisError: gap arc")
    assert uncertified > 0


def test_single_disk_chamber():
    """Circle 1 nested inside two big circles: the all-minus chamber is
    the whole unit disk."""
    a = sx.from_centers_radii([[0, 0], [0.3, 0], [0, 0.2]], [1.0, 4.0, 4.0])
    est = chamber_volume(a, Chamber.all_minus(2), samples=200_000, rng=Rng(1))
    assert not est.exact  # H1 fails here, so the closed path must decline
    assert abs(est.value - math.pi) <= 3 * est.std_error
    arc = face_volume(a, Chamber.all_minus(2), (1,), samples=50_000,
                      rng=Rng(2))
    assert arc.value == pytest.approx(2 * math.pi, rel=1e-9)


def test_embedded_lens_chamber_and_faces():
    a = embedded_lens()
    c = Chamber.all_minus(2)
    est = chamber_volume(a, c, samples=400_000, rng=Rng(3))
    assert abs(est.value - LENS_11_1) <= 3 * max(est.std_error, 1e-12)
    v1 = face_volume(a, c, (1,), samples=400_000, rng=Rng(4))
    assert abs(v1.value - 2 * math.pi / 3) <= 3 * max(v1.std_error, 1e-12)
    v12 = face_volume(a, c, (1, 2), rng=Rng(5))
    assert v12.value == 2.0
    assert v12.std_error == 0.0


def test_pseudo_triangle_area(tri):
    area = pseudo_triangle_area_closed(tri)
    assert area == pytest.approx(0.08344988342901152, rel=1e-12)
    est = chamber_volume_mc(tri, Chamber.all_minus(2), 400_000, Rng(6))
    assert abs(est.value - area) <= 3 * est.std_error
    with pytest.raises(HypothesisError):
        pseudo_triangle_area_closed(equilateral(radius=1.0, side=3.0))


def test_vertex_count_equilateral(tri):
    for j, k in ((1, 2), (1, 3), (2, 3)):
        cnt = face_volume(tri, Chamber.all_minus(2), (j, k))
        assert cnt.value == 1.0


def test_closed_chamber_areas_vs_mc(tri):
    for signs in ("--+", "-+-", "-++", "+--"):
        c = Chamber.from_string(signs)
        closed = chamber_area_closed_n2(tri, c)
        est = chamber_volume_mc(tri, c, 400_000, Rng(8))
        assert abs(est.value - closed) <= 3 * est.std_error, signs


def vertical_chord(a, j, x):
    """Length of {y : (x, y) inside circle j and outside the others}."""
    def interval(i):
        h2 = a.radii[i] ** 2 - (x - a.centers[i, 0]) ** 2
        if h2 > 0.0:
            return a.centers[i, 1] - math.sqrt(h2), a.centers[i, 1] + math.sqrt(h2)
        return None

    window = interval(j)
    if window is None:
        return 0.0
    lo, hi = window
    length, at = 0.0, lo
    for s, e in sorted(filter(None, (interval(i) for i in range(3) if i != j))):
        length += max(min(s, hi) - at, 0.0)
        at = max(at, e)
    return length + max(hi - at, 0.0)


def breakpoints(a):
    """The circles' x-extents and the abscissae where two circles cross."""
    (x, y), r = a.centers.T, a.radii
    out = list(x - r) + list(x + r)
    for i, k in itertools.combinations(range(3), 2):
        d = a.distance(i + 1, k + 1)
        t = (d * d + r[i] ** 2 - r[k] ** 2) / (2.0 * d)   # along i -> k
        h = math.sqrt(max(r[i] ** 2 - t * t, 0.0))
        ux, uy = (x[k] - x[i]) / d, (y[k] - y[i]) / d
        out += [x[i] + t * ux - h * uy, x[i] + t * ux + h * uy]
    return out


def test_chamber_areas_tile_the_disk(tri):
    """Each one-minus chamber's area is the integral of its vertical
    chord (scipy's quad, split where a chord's ends change circle), and
    the two chambers inside circles j and k tile their lens, measured by
    `lens_volume_closed` from a table of the two balls alone rather than
    from the arrangement's pair angles the chamber areas use.  The
    regular triangle and random H1 draws.
    """
    quad = pytest.importorskip("scipy.integrate").quad
    gen = np.random.default_rng(23)
    minus = [s for s in itertools.product((-1, 1), repeat=3) if -1 in s]
    for a in [tri] + [random_h1(gen) for _ in range(20)]:
        area = {s: chamber_area_closed_n2(a, Chamber(s)) for s in minus}
        for j in range(3):
            lo, hi = a.centers[j, 0] - a.radii[j], a.centers[j, 0] + a.radii[j]
            pts = [p for p in breakpoints(a) if lo < p < hi]
            got, _ = quad(lambda x: vertical_chord(a, j, x), lo, hi,
                          points=pts, epsabs=0.0, epsrel=1e-13, limit=500)
            one_minus = tuple(-1 if i == j else 1 for i in range(3))
            assert got == pytest.approx(area[one_minus], rel=1e-9), j
            for k in range(j + 1, 3):
                total = math.fsum(area[s] for s in minus
                                  if s[j] < 0 and s[k] < 0)
                lens = lens_volume_closed(2, a.radii[j], a.radii[k],
                                          a.distance(j + 1, k + 1))
                assert total == pytest.approx(lens, rel=1e-12), (j, k)


def test_chamber_volume_exact_flag(tri):
    est = chamber_volume(tri, Chamber.all_minus(2))
    assert est.exact
    assert est.std_error == 0.0
    assert est.value == pytest.approx(pseudo_triangle_area_closed(tri))


def test_all_plus_needs_bounding(tri):
    with pytest.raises(ValueError):
        chamber_volume_mc(tri, Chamber.all_plus(2), 1000, Rng(0))


def test_gap_chamber_closed_vs_mc(gap):
    closed = chamber_area_closed_n2(gap, Chamber.all_plus(2))
    assert closed == pytest.approx(0.025004146535611282, rel=1e-10)
    est = chamber_volume_mc(gap, Chamber.all_plus(2), 600_000, Rng(9),
                            bounding="simplex")
    assert abs(est.value - closed) <= 3 * est.std_error


def test_gap_closed_area_requires_h1_prime(tri):
    # the regular H1 triangle has no bounded all-plus component
    with pytest.raises(HypothesisError):
        chamber_area_closed_n2(tri, Chamber.all_plus(2))


def test_simplex_volume_values(tri):
    assert simplex_volume(tri) == pytest.approx(
        math.sqrt(3) / 4 * 1.5 ** 2, rel=1e-12)
    b = sx.from_centers_radii([[0, 0], [3, 0], [0, 4]], [2.5, 2.5, 2.5])
    assert simplex_volume(b) == pytest.approx(6.0, rel=1e-12)
    flat = sx.from_centers_radii([[0, 0], [1, 0], [2, 0]], [1, 1, 1])
    with pytest.raises(DegenerateConfigError):
        simplex_volume(flat)


def test_arc_angles_match_face_measures(tri):
    for signs in ("---", "--+", "-+-", "-++"):
        c = Chamber.from_string(signs)
        arcs = chamber_arc_angles(tri, c)
        for j in (1, 2, 3):
            est = face_volume_mc(tri, c, (j,), 300_000, Rng(10))
            want = tri.radius(j) * arcs[j]
            assert abs(est.value - want) <= 3 * max(est.std_error, 1e-12), \
                (signs, j)


def test_cone_cell_p1_against_sector(gap):
    """For p = 1 the cone cell is a circular sector: (r/2) * arc."""
    c = Chamber.all_plus(2)
    for j in (1, 2, 3):
        arc = face_volume(gap, c, (j,)).value
        got = decomposition_cell_volume(gap, (j,))
        assert got == pytest.approx(0.5 * gap.radius(j) * arc, rel=1e-10)


def test_cone_cell_p1_direct_mc(gap):
    """Direct rejection sampling of the cone region itself.

    The face arc is the piece of circle j bounding the gap component, so
    the radial projection must land outside the other disks and inside
    the center triangle (the sign test alone also matches the far side
    of the circle).
    """
    j = 1
    o = gap.center(j)
    r = gap.radius(j)
    others = [k for k in (1, 2, 3) if k != j]
    T = np.vstack([gap.centers.T, np.ones(3)])  # barycentric solve

    gen = np.random.default_rng(11)
    total = 400_000
    pts = o + (2 * gen.random((total, 2)) - 1) * r
    d = np.linalg.norm(pts - o, axis=1)
    ok = (d <= r) & (d > 0)
    proj = o + r * (pts[ok] - o) / d[ok, None]
    lam = np.linalg.solve(T, np.vstack([proj.T, np.ones(len(proj))]))
    inside = (lam >= -1e-12).all(axis=0)
    for k in others:
        dk = proj - gap.center(k)
        inside &= np.einsum("ij,ij->i", dk, dk) - gap.radius(k) ** 2 >= 0
    frac = inside.sum() / total
    box = (2 * r) ** 2
    est = box * frac
    sigma = box * math.sqrt(frac * (1 - frac) / total)
    want = decomposition_cell_volume(gap, (j,))
    assert abs(est - want) <= 3 * sigma


def test_decomposition_closes_to_simplex(gap):
    """The cone cells and the gap tile the centre simplex, on the fixture
    and on random certified gaps; there the gap's three-arc area also
    equals the cone-cell expression, simplex minus the sectors over the
    gap arcs minus a kite 1/4 sqrt(-B(0*jk)) per vertex, to 1e-12."""
    allp = Chamber.all_plus(2)
    gen = np.random.default_rng(24)
    certified = 0
    for a in [gap] + [random_h1_prime(gen) for _ in range(30)]:
        try:
            gap_area = chamber_area_closed_n2(a, allp)
        except HypothesisError:
            continue
        certified += 1
        cells = []
        for p in (1, 2):
            for J in itertools.combinations((1, 2, 3), p):
                cells.append(decomposition_cell_volume(a, J))
        assert math.fsum(cells) + gap_area == pytest.approx(
            simplex_volume(a), rel=1e-10)
        table = CMTable.from_arrangement(a)
        arcs = chamber_arc_angles(a, allp)
        oracle = simplex_volume(a) - math.fsum(
            0.5 * a.radius(j) ** 2 * arcs[j] for j in (1, 2, 3))
        for j, k in ((1, 2), (1, 3), (2, 3)):
            b = table.chain(("0", "*", j, k), ("0", "*", j, k))
            oracle -= 0.25 * math.sqrt(-b) * face_volume(a, allp, (j, k)).value
        assert abs(gap_area - oracle) <= 1e-12
    assert certified >= 20


def test_cell_coefficient_validation(gap):
    with pytest.raises(ValueError):
        decomposition_cell_coefficient(gap, (1, 2, 3))
    apart = sx.from_centers_radii([[0, 0], [9, 0], [0, 9]], [1, 1, 1])
    with pytest.raises(HypothesisError):
        decomposition_cell_coefficient(apart, (1, 2))


def test_monotonicity_in_radius(tri):
    base = pseudo_triangle_area_closed(tri)
    bigger = equilateral(radius=1.02)
    smaller = equilateral(radius=0.98)
    assert pseudo_triangle_area_closed(bigger) > base
    assert pseudo_triangle_area_closed(smaller) < base


# spherical regions (n = 3)


def octant_matrix():
    return ConfigMatrix.from_entries(3, [0.0, 0.0, 0.0],
                                     {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0})


def test_octant_region_area():
    m = octant_matrix()
    est = sphere_region_area_mc(m, 400_000, Rng(12))
    assert est.method == "closed" and est.std_error == 0.0
    assert est.value == pytest.approx(math.pi / 2, rel=1e-12, abs=0.0)


def test_octant_arcs_and_vertices():
    m = octant_matrix()
    arcs = sphere_arc_lengths(m)
    for j in (1, 2, 3):
        assert arcs[j] == pytest.approx(math.pi / 2, rel=1e-10)
    counts = sphere_vertex_counts(m)
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert counts[pair] == 1


def test_notched_quarter_sphere_region():
    """Two orthogonal walls through the pole plus a high parallel plane:
    quarter sphere minus a quarter cap, all exactly computable by hand."""
    m = ConfigMatrix.from_entries(3, [0.0, 0.0, -3.0],
                                  {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0})
    cap = 2 * math.pi * (1.0 - 3.0 / math.sqrt(10.0))
    want = math.pi - 0.25 * cap
    est = sphere_region_area_mc(m, 400_000, Rng(13))
    assert est.method == "closed" and est.std_error == 0.0
    assert est.value == pytest.approx(want, rel=1e-12, abs=0.0)
    arcs = sphere_arc_lengths(m)
    alpha = math.acos(3.0 / math.sqrt(10.0))
    # circle 3 has radius 1/sqrt(10); a quarter of it bounds the region
    assert arcs[3] == pytest.approx(0.5 * math.pi / math.sqrt(10.0),
                                    rel=1e-10)
    assert arcs[1] == pytest.approx(math.pi - alpha, rel=1e-10)
    assert arcs[2] == pytest.approx(math.pi - alpha, rel=1e-10)
    counts = sphere_vertex_counts(m)
    assert counts[(1, 2)] == 1
    assert counts[(1, 3)] == 1
    assert counts[(2, 3)] == 1


def test_far_cap_misses_two_circles_and_never_binds():
    """Two orthogonal walls through the pole and a cap of angular radius
    30 degrees around d = (0.6, 0.6, sqrt(0.28)), 36.9 degrees from each
    wall (u_3 = 2 d): plane 3 meets neither wall on the sphere, never
    binds on circles 1 and 2, and circle 3 lies outside the region, which
    is the quarter sphere between the walls with vertices +-e3."""
    m = ConfigMatrix.from_entries(3, [0.0, 0.0, -math.sqrt(3.0)],
                                  {(1, 2): 0.0, (1, 3): 1.2, (2, 3): 1.2})
    est = sphere_region_area_mc(m, 400_000, Rng(14))
    assert est.method == "closed" and est.std_error == 0.0
    assert est.value == pytest.approx(math.pi, rel=1e-12, abs=0.0)
    arcs = sphere_arc_lengths(m)
    assert arcs[1] == pytest.approx(math.pi, rel=1e-12)
    assert arcs[2] == pytest.approx(math.pi, rel=1e-12)
    assert arcs[3] == 0.0
    assert sphere_vertex_counts(m) == {(1, 2): 2, (1, 3): 0, (2, 3): 0}


@pytest.mark.filterwarnings("error")
def test_parallel_planes_have_no_vertices():
    """Circle 2 is parallel to great circle 1 (plane x = -1/sqrt(5)); with
    y <= 0 the region is half the cap x <= -1/sqrt(5), bounded by half
    of circle 2 and two vertices on circle 3.  Plane 1 is never met on
    its own circle (arc 0) and never binds elsewhere."""
    normals = np.array([[1.0, 0.0, 0.0], [math.sqrt(1.25), 0.0, 0.0],
                        [0.0, 1.0, 0.0]])
    offsets = np.array([0.0, 0.5, 0.0])
    A = np.eye(4)
    A[0, 0] = -1.0
    A[0, 1:] = A[1:, 0] = offsets
    for j, k in itertools.combinations(range(3), 2):
        A[j + 1, k + 1] = A[k + 1, j + 1] = (normals[j] @ normals[k]
                                             - offsets[j] * offsets[k])
    m = ConfigMatrix(3, A, normals, offsets)
    assert sphere_vertex_counts(m) == {(1, 2): 0, (1, 3): 0, (2, 3): 2}
    arcs = sphere_arc_lengths(m)
    assert arcs[1] == 0.0
    assert arcs[2] == pytest.approx(math.pi * math.sqrt(0.8), rel=1e-12)
    assert arcs[3] == pytest.approx(math.pi - 2.0 * math.asin(math.sqrt(0.2)),
                                    rel=1e-12)
    est = sphere_region_area_mc(m, 1000, Rng(15))
    assert est.value == pytest.approx(math.pi * (1.0 - math.sqrt(0.2)),
                                      rel=1e-12)


def test_wrong_chamber_length_is_refused(tri):
    """A chamber needs n + 1 signs: a short one used to be read as the
    chamber with its missing signs taken from another pattern."""
    for signs in ("--", "----"):
        c = Chamber.from_string(signs)
        for call in (lambda: chamber_volume(tri, c),
                     lambda: face_volume(tri, c, (1,)),
                     lambda: face_volume_mc(tri, c, (1,), 100, Rng(0)),
                     lambda: chamber_volume_mc(tri, c, 100, Rng(0))):
            with pytest.raises(ValueError, match=r"chamber length must be n\+1"):
                call()


def test_sphere_region_n3_vs_chamber(tetra):
    """The spherical region areas feed the n = 3 boundary terms; check
    the generic fixture region against direct resampling."""
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetra))
    est1 = sphere_region_area_mc(m, 200_000, Rng(14))
    est2 = sphere_region_area_mc(m, 800_000, Rng(15))
    assert abs(est1.value - est2.value) <= 3 * math.hypot(est1.std_error,
                                                          est2.std_error)


def test_simplex_rows_are_barycentric_coordinates(tetra):
    """At the centers the rows P x + q are the unit vectors, at any
    offset and scale."""
    for a in (equilateral(), tetra, sx.from_centers_radii(
            tetra.centers * 1e6 + 3e6, tetra.radii * 1e6)):
        P, q = _simplex_rows(a)
        lam = a.centers @ P.T + q
        np.testing.assert_allclose(lam, np.eye(a.n + 1), atol=1e-9)
