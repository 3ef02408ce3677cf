import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

import sphex as sx
from sphex.arrangement import Chamber
from sphex.cayley_menger import ConfigMatrix
from sphex.errors import (
    DegenerateConfigError,
    EmptyIntersectionError,
    HypothesisError,
)
from sphex.volume import (
    Rng,
    _chord_lengths,
    _simplex_rows,
    cap_integral,
    chamber_arc_angles,
    chamber_area_closed_n2,
    chamber_chords,
    chamber_volume,
    chamber_volume_mc,
    decomposition_cell_coefficient,
    decomposition_cell_volume,
    face_volume,
    face_volume_mc,
    lens_volume_closed,
    pseudo_triangle_area_closed,
    simplex_volume,
    sin_power_integral,
    sphere_arc_lengths,
    sphere_region_area_mc,
    sphere_vertex_counts,
    unit_sphere_area,
)
from conftest import (
    embedded_lens,
    equilateral,
    gap_fixture,
    lens_trio,
    random_h1,
    tetrahedron,
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


def test_rng_determinism():
    r = Rng(7)
    a = chamber_volume_mc(equilateral(), Chamber.all_minus(2), 40000, r)
    b = chamber_volume_mc(equilateral(), Chamber.all_minus(2), 40000, Rng(7))
    assert a.value == b.value
    c = chamber_volume_mc(equilateral(), Chamber.all_minus(2), 40000,
                          Rng(7).substream(3))
    assert c.value != a.value


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


def test_chamber_areas_tile_the_disk(tri):
    """Fixing sphere 1 inside, the four sign patterns partition disk 1."""
    total = math.fsum(
        chamber_area_closed_n2(tri, Chamber((-1, s2, s3)))
        for s2 in (-1, 1) for s3 in (-1, 1))
    assert total == pytest.approx(math.pi, rel=1e-12)


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
    cells = []
    for p in (1, 2):
        for J in itertools.combinations((1, 2, 3), p):
            cells.append(decomposition_cell_volume(gap, J))
    gap_area = chamber_area_closed_n2(gap, Chamber.all_plus(2))
    assert math.fsum(cells) + gap_area == pytest.approx(
        simplex_volume(gap), rel=1e-10)


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
    assert est.exact and est.method == "quadrature"
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
    assert est.exact and est.method == "quadrature"
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
    assert est.exact and est.method == "quadrature"
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


def chord_volume(a, c, samples, rng):
    """Chamber volume from `chamber_chords` alone: (value, std_error)."""
    area, chunks = chamber_chords((a,), c, samples, rng)
    L = np.concatenate([x[0] for x in chunks])
    return area * L.mean(), area * L.std() / math.sqrt(samples)


CHORD_CASES = [
    ("tri", equilateral, "---"),
    ("lens_trio", lens_trio, "--+"),
    ("lens_trio", lens_trio, "-++"),
    ("gap", gap_fixture, "+++"),
    # a simplex edge parallel to the lines (the y axis)
    ("upright_gap", lambda: sx.from_centers_radii(
        [[0.0, 0.0], [0.0, 1.5], [1.3, 0.75]], [0.8, 0.8, 0.8]), "+++"),
    ("tetra", tetrahedron, "----"),
    ("tetra", tetrahedron, "--++"),
    ("tetra_gap", lambda: tetrahedron(radius=0.89), "++++"),
    # small balls leave the simplex's faces exposed; the face through
    # centers 2, 3, 4 lies in the vertical plane x = y, so lines on the
    # far side of it must be dropped although they are parallel to it
    ("slanted_simplex", lambda: sx.from_centers_radii(
        [[1.2, -0.3, 0.0], [1.0, 1.0, 0.0], [0.5, 0.5, 1.1],
         [0.0, 0.0, 0.0]], [0.4] * 4), "++++"),
]


@pytest.mark.parametrize("name,make,signs", CHORD_CASES,
                         ids=[f"{n}[{s}]" for n, _, s in CHORD_CASES])
def test_chord_volume_matches_indicator(name, make, signs):
    a = make()
    c = Chamber.from_string(signs)
    value, sigma = chord_volume(a, c, 100_000, Rng(21))
    bounding = None if c.minus_set() else "simplex"
    ind = chamber_volume_mc(a, c, 400_000, Rng(22), bounding=bounding)
    assert value > 0.0 and sigma > 0.0
    assert abs(value - ind.value) <= 5.0 * math.hypot(sigma, ind.std_error)
    if a.n == 2:
        exact = chamber_area_closed_n2(a, c)
        assert abs(value - exact) <= 5.0 * sigma
    # conditioning on the line removes most of the indicator's variance
    assert sigma * math.sqrt(100_000) < ind.std_error * math.sqrt(400_000)


def test_chord_lengths_of_one_line():
    """A vertical line through a disk's centre meets it in its diameter;
    the plus disks cut their own diameters out of the minus one."""
    a = sx.from_centers_radii([[0.0, 0.0], [0.0, 1.5], [0.0, -1.8]],
                              [1.0, 1.0, 1.0])
    y = np.array([[0.0], [0.5], [3.0]])
    data = (a.centers[None], a.radii[None] ** 2, None)
    L = _chord_lengths(*data, Chamber.from_string("-++"), y)[0]
    h = math.sqrt(0.75)  # at y = 0.5 the third disk misses the first
    assert L == pytest.approx([2.0 - 0.5 - 0.2, 1.5, 0.0], abs=1e-15)
    both = _chord_lengths(*data, Chamber.from_string("--+"), y)[0]
    assert both == pytest.approx([0.5, 2.0 * h - 1.5, 0.0], abs=1e-15)


def test_simplex_rows_are_barycentric_coordinates(tetra):
    """At the centers the rows P x + q are the unit vectors, at any
    offset and scale."""
    for a in (equilateral(), tetra, sx.from_centers_radii(
            tetra.centers * 1e6 + 3e6, tetra.radii * 1e6)):
        P, q = _simplex_rows(a)
        lam = a.centers @ P.T + q
        np.testing.assert_allclose(lam, np.eye(a.n + 1), atol=1e-9)


def test_chamber_chords_repeat_per_seed_and_samples(tetra):
    c = Chamber.all_minus(3)

    def draw(rng, samples):
        area, chunks = chamber_chords((tetra,), c, samples, rng)
        return area, np.concatenate(list(chunks), axis=1)

    area, L = draw(Rng(5, 1), 70_000)
    area2, L2 = draw(Rng(5, 1), 70_000)
    assert area == area2 and np.array_equal(L, L2)
    assert L.shape == (1, 70_000)
    # blocks are drawn whole, so a shorter run is a prefix of a longer one
    assert np.array_equal(draw(Rng(5, 1), 1000)[1], L[:, :1000])
    assert not np.array_equal(draw(Rng(5, 2), 70_000)[1], L)
