import itertools
import math

import numpy as np
import pytest

import sphex as sx
from sphex.errors import EmptyIntersectionError, TangencyError
from sphex.intersect import (
    angles_pair,
    intersection_sphere,
    sphere_angle,
    sphere_circle,
    triangle_angles,
    vertices,
)
from conftest import random_h1, tetrahedron


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
    v = vertices(tri, 3)
    s = intersection_sphere(tri, (1, 2))
    pts = {tuple(np.round(s.center + sgn * s.radius * s.basis[0], 9))
           for sgn in (-1.0, 1.0)}
    assert tuple(np.round(v.P, 9)) in pts
    assert tuple(np.round(v.P_prime, 9)) in pts


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
    tangent = sx.from_centers_radii([[0, 0], [2, 0], [1, 9]], [1.0, 1.0, 1.0])
    with pytest.raises(TangencyError):
        angles_pair(tangent, 1, 2)
    apart = sx.from_centers_radii([[0, 0], [9, 0], [0, 9]], [1.0, 1.0, 1.0])
    with pytest.raises(EmptyIntersectionError):
        angles_pair(apart, 1, 2)


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
