import itertools
import math

import numpy as np
import pytest

import sphex as sx
from sphex.errors import (
    EmptyIntersectionError,
    IndeterminateSignError,
    TangencyError,
)
from sphex.volume import config_face_constraints
from sphex.intersect import (
    _plane_cuts,
    _sub_spheres,
    angles_pair,
    intersection_sphere,
    sphere_angle,
    sphere_circle,
    triangle_angles,
    vertices,
)
from conftest import equilateral, jitter_arrangement, random_h1, tetrahedron
from test_chamber_rays import simplex


def two_unit_circles():
    """Unit circles at distance 1 plus a third circle out of the way."""
    return sx.from_centers_radii([[0, 0], [1, 0], [0.5, 8.0]],
                                 [1.0, 1.0, 1.0])


def test_pair_sphere_center_and_radius():
    a = two_unit_circles()
    s = intersection_sphere(a, (1, 2))
    assert np.allclose(s.center, [0.5, 0.0], atol=1e-12)
    assert s.radius == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert s.basis.shape == (1, 2)


def test_single_sphere_is_itself(tri):
    s = intersection_sphere(tri, (3,))
    assert np.allclose(s.center, tri.center(3), atol=1e-12)
    assert s.radius == pytest.approx(1.0, abs=1e-12)
    assert s.basis.shape == (2, 2)


def test_points_lie_on_all_members():
    gen = np.random.default_rng(31)
    for n in (2, 3):
        a = random_h1(gen, n)
        for p in range(1, n + 1):
            J = tuple(range(1, p + 1))
            s = intersection_sphere(a, J)
            for _ in range(4):
                x = s.point(gen.normal(size=s.basis.shape[0]))
                for j in J:
                    assert np.linalg.norm(x - a.center(j)) == pytest.approx(
                        a.radius(j), rel=1e-9)


def test_radius_determinant_quotient():
    gen = np.random.default_rng(32)
    a = random_h1(gen, 3)
    from sphex.cayley_menger import CMTable

    t = CMTable.from_arrangement(a)
    for J in ((1, 2), (2, 3, 4), (1, 3)):
        s = intersection_sphere(a, J)
        plain = t.chain(("0",) + J, ("0",) + J)
        starred = t.chain(("0", "*") + J, ("0", "*") + J)
        assert s.radius ** 2 == pytest.approx(-0.5 * starred / plain,
                                              rel=1e-10)


def test_empty_intersection_raises():
    a = sx.from_centers_radii([[0, 0], [5, 0], [0, 5]], [1.0, 1.0, 1.0])
    with pytest.raises(EmptyIntersectionError):
        intersection_sphere(a, (1, 2))


def test_intersection_sphere_stored_per_arrangement(tetra):
    s = intersection_sphere(tetra, (2, 1))
    assert intersection_sphere(tetra, (1, 2)) is s
    assert not s.center.flags.writeable and not s.basis.flags.writeable
    twin = sx.from_centers_radii(tetra.centers, tetra.radii)
    assert intersection_sphere(twin, (1, 2)) is not s
    far = sx.from_centers_radii([[0, 0], [5, 0], [0, 5]], [1.0, 1.0, 1.0])
    for _ in range(2):  # failures are not stored
        with pytest.raises(EmptyIntersectionError):
            intersection_sphere(far, (1, 2))


def test_vertices_labeling(tri):
    v = vertices(tri, 3)
    assert sx.evaluate_f(tri, 3, v.P) < 0
    assert sx.evaluate_f(tri, 3, v.P_prime) > 0
    for k in (1, 2):
        for x in (v.P, v.P_prime):
            assert np.linalg.norm(x - tri.center(k)) == pytest.approx(
                1.0, rel=1e-12)


def test_vertices_match_pair_sphere(tri):
    """The vertices are the 0-sphere S_{N minus j}: its center -+ radius
    * basis[0], exactly, in some order."""
    gen = np.random.default_rng(43)
    for a in (tri, tetrahedron(), random_h1(gen, 3), random_h1(gen, 4)):
        for j in range(1, a.n + 2):
            v = vertices(a, j)
            s = intersection_sphere(a, [k for k in a.indices if k != j])
            pts = {tuple(s.center - s.radius * s.basis[0]),
                   tuple(s.center + s.radius * s.basis[0])}
            assert {tuple(v.P), tuple(v.P_prime)} == pts, (a.n, j)


def test_vertices_n3(tetra):
    v = vertices(tetra, 4)
    for k in (1, 2, 3):
        assert np.linalg.norm(v.P - tetra.center(k)) == pytest.approx(
            1.0, rel=1e-10)
    assert sx.evaluate_f(tetra, 4, v.P) < 0


def test_vertices_tangent_raises():
    a = sx.from_centers_radii([[1.0, 1.5], [0.0, 0.0], [2.0, 0.0]],
                              [1.0, 1.0, 1.0])
    with pytest.raises(TangencyError):
        vertices(a, 1)


def test_vertices_refuse_a_shared_point_and_take_either_sign():
    """Unit circles on the triangle of side sqrt 3 all pass through its
    circumcenter: B(0*123) has no sign and the labels are refused
    (TangencyError, the chain named), whatever the scale.  Both sides of
    that point, H1 (side 1.5) and H1' (side 1.8), label their vertices."""
    for s in (1e-6, 1.0, 1e6):
        meet = equilateral(side=math.sqrt(3.0) * s, radius=s)
        for j in (1, 2, 3):
            with pytest.raises(TangencyError,
                               match=r"B\(0 \* 1 2 3\) = .* has no sign"):
                vertices(meet, j)
    for side in (1.5, 1.8):
        a = equilateral(side=side)
        for j in (1, 2, 3):
            v = vertices(a, j)
            assert sx.evaluate_f(a, j, v.P) < sx.evaluate_f(a, j, v.P_prime)


def test_tangent_pair_sphere_raises():
    """Spheres 2 and 3 touch at one point: S_23 is refused as tangent,
    not returned with radius 0."""
    a = sx.from_centers_radii([[1.0, 1.5], [0.0, 0.0], [2.0, 0.0]],
                              [1.0, 1.0, 1.0])
    for _ in range(2):  # failures are not stored
        with pytest.raises(TangencyError):
            intersection_sphere(a, (2, 3))


def test_angles_of_unit_circles_at_distance_one():
    a = two_unit_circles()
    jk, kj = angles_pair(a, 1, 2)
    assert jk == pytest.approx(2 * math.pi / 3, rel=1e-12)
    assert kj == pytest.approx(2 * math.pi / 3, rel=1e-12)


def test_angles_distance_identity():
    gen = np.random.default_rng(33)
    for _ in range(10):
        a = random_h1(gen, 2)
        for j, k in ((1, 2), (1, 3), (2, 3)):
            jk, kj = angles_pair(a, j, k)
            want = a.radius(j) * math.cos(jk / 2) + \
                a.radius(k) * math.cos(kj / 2)
            assert a.distance(j, k) == pytest.approx(want, rel=1e-9)


def test_angles_pair_failure_modes():
    """Tangent spheres are refused as tangent and disjoint ones as empty,
    at every scale."""
    for s in (1e-6, 1.0, 1e6):
        tangent = sx.from_centers_radii(
            [[0, 0], [2 * s, 0], [s, 9 * s]], [s, s, s])
        with pytest.raises(TangencyError):
            angles_pair(tangent, 1, 2)
        apart = sx.from_centers_radii(
            [[0, 0], [9 * s, 0], [0, 9 * s]], [s, s, s])
        with pytest.raises(EmptyIntersectionError):
            angles_pair(apart, 1, 2)


def test_triangle_angles_refuse_where_the_sign_table_has_no_sign():
    """Centers (0,0), (1,0), (2, 8e-5): B(0 1 2 3) is indeterminate in
    the sign table at every scale, and the angles are refused there;
    on H1 draws both pass."""
    gen = np.random.default_rng(35)
    flat = sx.from_centers_radii([[0, 0], [1, 0], [2, 8e-5]], [1.0] * 3)
    for a, status in [(flat, "indeterminate")] + [
            (random_h1(gen, 2), "pass") for _ in range(3)]:
        for s in (1e-6, 1.0, 1e6):
            b = sx.from_centers_radii(a.centers * s, a.radii * s)
            row = sx.check_hypotheses(b, h2="skip").table[-1]
            assert row.subset == (1, 2, 3) and row.plain_status == status
            if status == "pass":
                triangle_angles(b)
            else:
                with pytest.raises(IndeterminateSignError,
                                   match=r"center triangle: B\(0 1 2 3\)"):
                    triangle_angles(b)


def test_triangle_angles_equilateral(tri):
    phis = triangle_angles(tri)
    for phi in phis:
        assert phi == pytest.approx(math.pi / 3, rel=1e-12)
    assert math.fsum(phis) == pytest.approx(math.pi, abs=1e-12)


def test_triangle_angles_right_isoceles():
    a = sx.from_centers_radii([[0, 0], [1, 0], [0, 1]], [0.9, 0.9, 0.9])
    phis = triangle_angles(a)
    assert phis[0] == pytest.approx(math.pi / 2, rel=1e-12)
    assert phis[1] == pytest.approx(math.pi / 4, rel=1e-12)
    assert phis[2] == pytest.approx(math.pi / 4, rel=1e-12)


def test_triangle_angles_sum():
    gen = np.random.default_rng(34)
    for _ in range(20):
        a = random_h1(gen, 2)
        assert math.fsum(triangle_angles(a)) == pytest.approx(math.pi,
                                                              abs=1e-10)


def circle_meeting_point(m, j, k, gen):
    """A common point of circles j and k on the unit sphere (n = 3)."""
    uj = np.array(m.normals[j - 1])
    uk = np.array(m.normals[k - 1])
    A = np.vstack([uj, uk])
    b = -np.array([m.offset(j), m.offset(k)])
    x0, *_ = np.linalg.lstsq(A, b, rcond=None)
    d = np.cross(uj, uk)
    d = d / np.linalg.norm(d)
    # |x0 + t d|^2 = 1, x0 orthogonal to d by least squares
    t = math.sqrt(1.0 - x0 @ x0)
    return x0 + (t if gen.random() < 0.5 else -t) * d


def test_sphere_angle_tangent_vector_oracle():
    gen = np.random.default_rng(35)
    a = random_h1(gen, 3)
    m = sx.config_matrix(sx.restrict_to_unit_sphere(a))
    for j, k in ((1, 2), (1, 3), (2, 3)):
        x = circle_meeting_point(m, j, k, gen)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-10
        tj = np.cross(m.normals[j - 1], x)
        tk = np.cross(m.normals[k - 1], x)
        tj /= np.linalg.norm(tj)
        tk /= np.linalg.norm(tk)
        tangent = math.acos(np.clip(tj @ tk, -1.0, 1.0))
        assert sphere_angle(m, j, k) == pytest.approx(math.pi - tangent,
                                                      rel=1e-9)


def test_sphere_angle_out_of_range():
    class Fake:
        def inner(self, j, k):
            return 1.5

    with pytest.raises(EmptyIntersectionError):
        sphere_angle(Fake(), 1, 2)


def test_sphere_circle_lies_on_sphere_and_plane():
    gen = np.random.default_rng(37)
    a = random_h1(gen, 3)
    m = sx.config_matrix(sx.restrict_to_unit_sphere(a))
    for j in (1, 2, 3):
        center, radius, basis = sphere_circle(m, j)
        assert basis.shape == (2, 3)
        for theta in (0.0, 1.0, 2.5):
            x = center + radius * (math.cos(theta) * basis[0]
                                   + math.sin(theta) * basis[1])
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)
            u = m.normals[j - 1]
            assert u @ x + m.offset(j) == pytest.approx(0.0, abs=1e-10)


def test_sphere_circle_is_the_face_frame():
    """`sphere_circle` returns the centre, radius and frame in which
    `config_face_constraints` measures the face (j,)."""
    gen = np.random.default_rng(38)
    for a in (tetrahedron(), random_h1(gen, 3)):
        m = sx.config_matrix(sx.restrict_to_unit_sphere(a))
        for j in (1, 2, 3):
            center, radius, basis = sphere_circle(m, j)
            alpha, beta, R = config_face_constraints(m, (j,))
            assert radius == R
            assert radius == pytest.approx(
                1.0 / math.sqrt(1.0 + m.offset(j) ** 2), rel=1e-12)
            rest = [k for k in range(3) if k != j - 1]
            U, off = m.normals[rest], m.offsets[rest]
            assert np.array_equal(alpha, -(U @ center + off))
            assert np.array_equal(beta, -R * (U @ basis.T))


def test_hull_rank_is_scale_free():
    """Scaled copies of the tetrahedron (edge 1.5, r = 1), 1e-15 to 1e15,
    get the same H1/H1'/H2 verdicts and the same radius / s of every S_J:
    the rank test of the radical hyperplanes is relative to their largest
    singular value."""
    base = tetrahedron()
    Js = [J for p in range(1, 4) for J in itertools.combinations(range(1, 5), p)]
    rep = sx.check_hypotheses(base)
    want = (rep.h1, rep.h1_prime, rep.h2)
    assert None not in want
    radii = [intersection_sphere(base, J).radius for J in Js]
    for k in range(-15, 16):
        s = 10.0 ** k
        a = sx.from_centers_radii(base.centers * s, base.radii * s)
        rep = sx.check_hypotheses(a)
        assert (rep.h1, rep.h1_prime, rep.h2) == want, s
        for J, r in zip(Js, radii):
            assert intersection_sphere(a, J).radius / s == pytest.approx(
                r, rel=1e-9), (s, J)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_hull_point_is_the_minimum_norm_solution(scale):
    """`_plane_cuts` on the radical rows of every S_J of one size, one
    SVD each: each point solves every radical equation and is the
    least-squares minimum-norm point."""
    gen = np.random.default_rng(41)
    for n in (2, 3, 4):
        for _ in range(5):
            a0 = jitter_arrangement(gen, n)
            a = sx.from_centers_radii(a0.centers * scale, a0.radii * scale)
            q = (a.centers * a.centers).sum(axis=1) - a.radii ** 2
            for p in range(2, n + 1):
                idx = np.array(list(itertools.combinations(range(n + 1), p)))
                A = 2.0 * (a.centers[idx[:, 1:]] - a.centers[idx[:, :1]])
                b = q[idx[:, 1:]] - q[idx[:, :1]]
                x0, _, frame = _plane_cuts(A, b)
                assert frame.shape == (len(idx), n - p + 1, n)
                for i, J in enumerate(idx + 1):
                    size = np.abs(A[i]) @ np.abs(x0[i]) + np.abs(b[i])
                    assert np.all(np.abs(A[i] @ x0[i] - b[i])
                                  <= 1e-12 * size), J
                    ref = np.linalg.lstsq(A[i], b[i], rcond=None)[0]
                    assert (np.linalg.norm(x0[i] - ref)
                            <= 1e-13 * np.linalg.norm(ref)), (n, J)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_sub_spheres_solve_every_sphere_of_their_index_set(scale):
    """Each S_J of a batch, n = 2 to 5: center +- R (frame rows) lie on
    every sphere of J, the frame is orthonormal and orthogonal to every
    O_k - O_J[0], and r^2 (1 - |y0|^2), y0 = (center - O_J[0]) / r the
    point of `_sub_spheres`' unit coordinates, is the determinant
    radius^2.  Planes of p = 0 rows give x0 = 0, R^2 = 1 and the identity."""
    gen = np.random.default_rng(47)
    for n in (2, 3, 4, 5):
        c = simplex(n).centers + gen.normal(scale=0.05, size=(n + 1, n))
        r = 1.0 + gen.normal(scale=0.03, size=n + 1)
        a = sx.from_centers_radii(c * scale, r * scale)
        for p in range(1, n + 1):
            Js = list(itertools.combinations(range(1, n + 2), p))
            for J, s in zip(Js, _sub_spheres(a, Js)):
                O, r = a.center(J[0]), a.radius(J[0])
                pts = s.center + s.radius * np.vstack([s.basis, -s.basis])
                for k in J:
                    d = pts - a.center(k)
                    miss = (d * d).sum(axis=1) - a.radius(k) ** 2
                    assert np.all(abs(miss) <= 1e-12 * scale ** 2), (n, J, k)
                assert np.allclose(s.basis @ s.basis.T, np.eye(n - p + 1),
                                   rtol=0.0, atol=1e-12)
                edges = a.centers[[k - 1 for k in J[1:]]] - O
                assert np.all(np.abs(edges @ s.basis.T) <= 1e-12 * scale)
                y0 = (s.center - O) / r
                assert r * r * (1.0 - y0 @ y0) == pytest.approx(
                    s.radius ** 2, rel=1e-12), (n, J)
        x0, R2, frame = _plane_cuts(np.zeros((3, 0, n)), np.zeros((3, 0)))
        assert np.array_equal(x0, np.zeros((3, n)))
        assert np.array_equal(R2, np.ones(3))
        assert np.array_equal(frame, np.broadcast_to(np.eye(n), (3, n, n)))


def test_a_batch_of_sub_spheres_is_each_batch_of_one():
    """Every S_J of one size solved in one `_sub_spheres` call is, bit for
    bit, the S_J that `intersection_sphere` solves alone on a twin
    arrangement; a stack with one dependent system has no `_plane_cuts`."""
    gen = np.random.default_rng(43)
    for n in (2, 3, 4):
        a = random_h1(gen, n)
        for p in range(1, n + 1):
            Js = list(itertools.combinations(range(1, n + 2), p))
            for J, s in zip(Js, _sub_spheres(a, Js)):
                one = intersection_sphere(
                    sx.from_centers_radii(a.centers, a.radii), J)
                assert intersection_sphere(a, J) is s
                assert s.J == one.J and s.radius == one.radius, (n, J)
                assert np.array_equal(s.center, one.center), (n, J)
                assert np.array_equal(s.basis, one.basis), (n, J)
        A, b = gen.normal(size=(6, n - 1, n)), gen.normal(size=(6, n - 1))
        assert _plane_cuts(A, b) is not None
        A[2, 0] = 0.0
        assert _plane_cuts(A, b) is None
