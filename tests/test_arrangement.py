import json
import math

import numpy as np
import pytest

import sphex as sx
from sphex.arrangement import (
    Chamber,
    ParamVector,
    arrangement_from_json,
    arrangement_to_json,
    chamber_contains,
    check_hypotheses,
    evaluate_f,
    from_centers_radii,
    from_params,
    load_arrangement,
    normalize,
    params_from_json,
    params_of,
    params_to_json,
    restrict_to_unit_sphere,
)
from sphex.cayley_menger import CMTable
from sphex.errors import (
    DegenerateConfigError,
    HypothesisError,
    NonRealizableError,
)
from sphex.variation import param_basis
from conftest import SIDE, equilateral, gap_fixture, random_h1, tetrahedron


def test_from_centers_radii_basic(tri):
    assert tri.n == 2
    for j in (1, 2, 3):
        assert tri.radius(j) == 1.0
    for j, k in ((1, 2), (1, 3), (2, 3)):
        assert tri.distance(j, k) == pytest.approx(SIDE, abs=1e-12)
    assert tri.indices == (1, 2, 3)


def test_from_centers_radii_validation():
    with pytest.raises(ValueError):
        from_centers_radii([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])  # 2 spheres, n=2
    with pytest.raises(ValueError):
        from_centers_radii([[0, 0], [1, 0], [0, 1]], [1.0, -1.0, 1.0])


def test_right_triangle_distances():
    a = from_centers_radii([[0, 0], [3, 0], [0, 4]], [2.5, 2.5, 2.5])
    assert a.distance(1, 2) == 3.0
    assert a.distance(1, 3) == 4.0
    assert a.distance(2, 3) == 5.0


def test_params_round_trip(tri):
    p = params_of(tri)
    b = from_params(p, 2)
    for j, k in ((1, 2), (1, 3), (2, 3)):
        assert b.distance(j, k) == pytest.approx(tri.distance(j, k), rel=1e-12)
    assert np.allclose(b.radii, tri.radii)
    # the reconstruction is a rigid image, so every determinant agrees
    ta, tb = CMTable.from_arrangement(tri), CMTable.from_arrangement(b)
    rows = ("0", "*", 1, 2, 3)
    assert tb.chain(rows, rows) == pytest.approx(ta.chain(rows, rows),
                                                 rel=1e-10)


def test_params_round_trip_n3(tetra):
    p = params_of(tetra)
    b = from_params(p, 3)
    for j, k in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        assert b.distance(j, k) == pytest.approx(tetra.distance(j, k),
                                                 rel=1e-10)


def test_from_params_rejects_triangle_violation():
    """rho_23^2 just over (rho_12 + rho_13)^2 with the other sides at 1."""
    m = 3
    d2 = np.zeros((m, m))
    d2[0, 1] = d2[1, 0] = 4.000001
    d2[0, 2] = d2[2, 0] = 1.0
    d2[1, 2] = d2[2, 1] = 1.0
    p = ParamVector(2, np.ones(m), d2)
    with pytest.raises(NonRealizableError):
        from_params(p, 2)


def test_from_params_rejects_collinear_centers():
    m = 3
    d2 = np.zeros((m, m))
    d2[0, 1] = d2[1, 0] = 4.0
    d2[0, 2] = d2[2, 0] = 1.0
    d2[1, 2] = d2[2, 1] = 1.0
    p = ParamVector(2, np.ones(m), d2)
    with pytest.raises(DegenerateConfigError):
        from_params(p, 2)


def test_param_vector_validation():
    m = 3
    good = np.zeros((m, m))
    good[0, 1] = good[1, 0] = 1.0
    good[0, 2] = good[2, 0] = 1.0
    good[1, 2] = good[2, 1] = 1.0
    with pytest.raises(ValueError):
        ParamVector(2, np.array([1.0, 0.0, 1.0]), good)
    bad = np.array(good)
    bad[0, 1] = 2.0
    with pytest.raises(ValueError):
        ParamVector(2, np.ones(m), bad)


def test_param_vector_basis_and_entry(tri):
    p = params_of(tri)
    keys = list(param_basis(tri.n))
    assert keys[:3] == [("r", 1), ("r", 2), ("r", 3)]
    assert keys[3:] == [("d", 1, 2), ("d", 1, 3), ("d", 2, 3)]
    assert p.get(("r", 1)) == 1.0
    assert p.get(("d", 2, 3)) == pytest.approx(SIDE ** 2)
    q = p.with_entry(("d", 1, 2), 2.0)
    assert q.get(("d", 1, 2)) == 2.0
    assert q.get(("d", 2, 1)) == 2.0
    assert p.get(("d", 1, 2)) == pytest.approx(SIDE ** 2)  # original untouched


def test_evaluate_f_inside_boundary_outside():
    a = from_centers_radii([[0, 0], [5, 0], [0, 5]], [1.0, 1.0, 1.0])
    assert evaluate_f(a, 1, [0.0, 0.0]) == pytest.approx(-1.0)
    assert evaluate_f(a, 1, [1.0, 0.0]) == pytest.approx(0.0)
    assert evaluate_f(a, 1, [2.0, 0.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        evaluate_f(a, 1, [0.0, 0.0, 0.0])


def test_evaluate_f_batch_matches_points():
    """Points (N, n) give the (N,) array of the per-point floats, bit for
    bit; other shapes raise."""
    gen = np.random.default_rng(5)
    for a in (equilateral(), tetrahedron(), random_h1(gen, 3)):
        pts = gen.normal(scale=2.0, size=(300, a.n))
        for j in range(1, a.n + 2):
            batch = evaluate_f(a, j, pts)
            assert batch.shape == (300,)
            assert batch.tolist() == [evaluate_f(a, j, x) for x in pts]
        for bad in (np.zeros((2, 2, a.n)), np.zeros((4, a.n + 1)), 1.0):
            with pytest.raises(ValueError):
                evaluate_f(a, 1, bad)


def test_chamber_string_round_trip():
    c = Chamber.from_string("--+")
    assert c.signs == (-1, -1, 1)
    assert str(c) == "--+"
    assert c.sign(3) == 1
    assert c.minus_set() == (1, 2)
    assert c.plus_set() == (3,)
    assert Chamber.all_minus(2).signs == (-1, -1, -1)
    assert Chamber.all_plus(3).signs == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        Chamber.from_string("-0+")


def test_chamber_contains_circumcenter(tri):
    center = tri.centers.mean(axis=0)
    assert chamber_contains(tri, Chamber.all_minus(2), center)
    assert not chamber_contains(tri, Chamber.all_plus(2), center)
    far = np.array([50.0, 50.0])
    assert chamber_contains(tri, Chamber.all_plus(2), far)


def test_chamber_contains_boundary(tri):
    x = tri.center(1) + np.array([tri.radius(1), 0.0])  # on sphere 1
    # (1, 0) sits inside sphere 2, outside sphere 3; the boundary point
    # belongs to the closed chambers on either side of sphere 1
    assert chamber_contains(tri, Chamber.from_string("--+"), x)
    assert chamber_contains(tri, Chamber.from_string("+-+"), x)
    y = x + np.array([1e-12, 0.0])
    assert chamber_contains(tri, Chamber.from_string("--+"), y, tol=1e-9)
    assert not chamber_contains(tri, Chamber.from_string("--+"), y)


def test_check_hypotheses_holds(tri):
    rep = check_hypotheses(tri)
    assert rep.h1 is True
    assert rep.h1_prime is False
    assert rep.h2 is True
    assert rep.indeterminate_subsets() == []
    assert len(rep.table) == 7  # every nonempty subset of {1,2,3}
    for row in rep.table:
        assert row.plain_status == "pass"
        assert row.starred_status == "pass"


def test_check_hypotheses_fails_for_wide_triangle():
    a = equilateral(radius=1.0, side=3.0)
    rep = check_hypotheses(a)
    assert rep.h1 is False


def test_check_hypotheses_gap(gap):
    rep = check_hypotheses(gap)
    assert rep.h1 is False
    assert rep.h1_prime is True


def test_check_hypotheses_skip_h2(tri):
    rep = check_hypotheses(tri, h2="skip")
    assert rep.h1 is True
    assert rep.h2 is None


def test_normalize_triangular_shape(tri):
    b, t = normalize(tri)
    assert np.allclose(b.center(3), 0.0, atol=1e-12)
    assert b.center(2)[0] == pytest.approx(-SIDE, rel=1e-12)
    assert abs(b.center(2)[1]) < 1e-12
    assert b.center(1)[1] < 0
    for j, k in ((1, 2), (1, 3), (2, 3)):
        assert b.distance(j, k) == pytest.approx(tri.distance(j, k), rel=1e-12)
    for j in (1, 2, 3):
        assert np.allclose(t.apply(tri.center(j)), b.center(j), atol=1e-10)


def test_normalize_rejects_failed_hypothesis():
    with pytest.raises(HypothesisError):
        normalize(equilateral(radius=1.0, side=3.0))


def test_normalize_pivot_product_identity():
    """The product of trailing pivots equals a determinant square root:
    prod_{j=p}^{n} alpha_{j,n+1-j} = sqrt((-1)^(n-p) B(0 J_p) / 2^(n-p+1))
    with J_p = {p, ..., n+1}.
    """
    gen = np.random.default_rng(21)
    for n in (2, 3):
        a = random_h1(gen, n)
        b, _ = normalize(a)
        t = CMTable.from_arrangement(b)
        for p in range(1, n + 1):
            prod = 1.0
            for j in range(p, n + 1):
                prod *= -b.center(j)[n - j]    # alpha_{j,n+1-j}
            J = tuple(range(p, n + 2))
            det = t.chain(("0",) + J, ("0",) + J)
            want = math.sqrt((-1) ** (n - p) * det / 2 ** (n - p + 1))
            assert prod == pytest.approx(want, rel=1e-9)


def test_restrict_to_unit_sphere(tetra):
    b = restrict_to_unit_sphere(tetra)
    assert np.allclose(b.center(4), 0.0, atol=1e-14)
    assert b.radius(4) == pytest.approx(1.0, abs=1e-14)
    lam = 1.0 / tetra.radius(4)
    assert b.distance(1, 2) == pytest.approx(tetra.distance(1, 2) * lam,
                                             rel=1e-12)


def test_json_round_trips(tri, tmp_path):
    obj = arrangement_to_json(tri)
    b = arrangement_from_json(obj)
    assert np.allclose(b.centers, tri.centers)
    assert np.allclose(b.radii, tri.radii)

    pv = params_of(tri)
    pv2 = params_from_json(params_to_json(pv))
    assert np.allclose(pv2.dist_sq, pv.dist_sq)
    assert np.allclose(pv2.radii_sq, pv.radii_sq)

    c = arrangement_from_json(params_to_json(pv))
    assert c.distance(1, 2) == pytest.approx(tri.distance(1, 2), rel=1e-12)

    path = tmp_path / "a.json"
    path.write_text(json.dumps(obj))
    d = load_arrangement(str(path))
    assert np.allclose(d.centers, tri.centers)

    with pytest.raises(ValueError):
        arrangement_from_json({"n": 2})


def test_public_names_exported():
    for name in ("from_centers_radii", "from_params", "params_of",
                 "normalize", "restrict_to_unit_sphere", "evaluate_f",
                 "chamber_contains", "check_hypotheses", "load_arrangement",
                 "Chamber", "ParamVector", "Arrangement"):
        assert hasattr(sx, name), name


@pytest.mark.parametrize("base", [equilateral(radius=0.7, side=1.0),
                                  gap_fixture()])
def test_verdicts_invariant_under_scaling(base):
    """Sign and tangency tests measure each quantity against a bound of
    its own degree in length, so a rescaled copy gets the same verdicts,
    closed-form coverage and vertex counts, and areas scaled by s^2."""
    chambers = [Chamber.from_string(s)
                for s in ("---", "--+", "-+-", "+--", "-++", "+-+", "++-",
                          "+++")]

    def verdicts(a):
        rep = check_hypotheses(a)
        statuses = [(r.subset, r.plain_status, r.starred_status)
                    for r in rep.table]
        vols = [sx.chamber_volume(a, c, samples=1000) for c in chambers]
        vertex_counts = [sx.face_volume(a, c, J).value for c in chambers
                         for J in ((1, 2), (1, 3), (2, 3))]
        return ((rep.h1, rep.h1_prime, rep.h2, statuses,
                 [v.exact for v in vols], vertex_counts),
                [v.value for v in vols if v.exact])

    want, areas = verdicts(base)
    assert want[0] is not None and want[1] is not None
    for k in range(-12, 13):
        s = 10.0 ** k
        scaled = from_centers_radii(base.centers * s, base.radii * s)
        got, got_areas = verdicts(scaled)
        assert got == want, f"scale 1e{k}"
        assert np.allclose(np.array(got_areas) / s ** 2, areas,
                           rtol=1e-9, atol=0), f"scale 1e{k}"
