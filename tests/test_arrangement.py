import itertools
import json
import math

import numpy as np
import pytest

import sphex as sx
from sphex import arrangement
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
    require_hypothesis,
    restrict_to_unit_sphere,
)
from sphex.cayley_menger import CMTable
from sphex.errors import (
    DegenerateConfigError,
    HypothesisError,
    IndeterminateSignError,
    NonRealizableError,
)
from sphex.variation import param_basis
from conftest import (SIDE, equilateral, gap_fixture, random_h1,
                      random_h1_prime, regular_simplex4, tetrahedron)


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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="radii must be finite"):
            from_centers_radii([[0, 0], [1, 0], [0, 1]], [1.0, bad, 1.0])
        with pytest.raises(ValueError, match="centers must be finite"):
            from_centers_radii([[0, 0], [1, bad], [0, 1]], [1.0, 1.0, 1.0])


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


def _normal_draws(seed, count):
    """`count` arrangements per n = 2..5: normal centers, radii U(0.5, 2)."""
    gen = np.random.default_rng(seed)
    return [from_centers_radii(gen.standard_normal((n + 1, n)),
                               gen.uniform(0.5, 2.0, n + 1))
            for n in (2, 3, 4, 5) for _ in range(count)]


def _eigh_reference(p):
    """Centers from an eigendecomposition of the Gram matrix of O_1..O_n
    relative to O_{n+1}, rotated by QR into the gauge of `from_params`:
    O_{n+1-i} on the first i axes, coordinate i positive."""
    n = p.n
    g = p.dist_sq[:n, n]
    G = 0.5 * (g[:, None] + g[None, :] - p.dist_sq[:n, :n])
    w, V = np.linalg.eigh(G)
    X = V * np.sqrt(w)
    Q, R = np.linalg.qr(X[::-1].T)
    return np.vstack([X @ (Q * np.where(np.diag(R) < 0, -1.0, 1.0)),
                      np.zeros(n)])


def test_from_params_matches_an_eigh_reference():
    for a in _normal_draws(3, 50):
        p = params_of(a)
        ref = _eigh_reference(p)
        got = from_params(p, a.n).centers
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
        for j in range(a.n):                # the gauge, exactly
            assert np.all(got[j, a.n - j:] == 0.0) and got[j, a.n - j - 1] > 0


@pytest.mark.parametrize("n", [3, 4])
def test_from_params_refuses_flat_and_impossible_simplices(n):
    """A flat simplex (the last center in the span of the others) is
    degenerate; a distance past the triangle inequality is not realizable."""
    base = params_of(from_centers_radii(
        {3: tetrahedron().centers, 4: regular_simplex4()}[n], np.ones(n + 1)))
    centers = from_params(base, n).centers.copy()
    centers[0, -1] = 0.0                    # O_1 into the others' hyperplane
    diff = centers[:, None, :] - centers[None, :, :]
    flat = (diff * diff).sum(axis=2)
    with pytest.raises(DegenerateConfigError):
        from_params(ParamVector(n, np.ones(n + 1), flat), n)
    far = base.with_entry(("d", 1, 2), 4.5 * base.get(("d", 1, 3)))
    with pytest.raises(NonRealizableError):
        from_params(far, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_from_params_step_keeps_the_centers_it_cannot_move(n):
    """O_{n+1-i} reads only the distances among O_n, ..., O_{n+1-i} and
    O_{n+1}: an r_j step keeps every center, a d_jk step (j < k) keeps
    O_{j+1}, ..., O_{n+1}, bit for bit."""
    gen = np.random.default_rng(40 + n)
    for _ in range(5):
        p = params_of(random_h1(gen, n))
        a = from_params(p, n)
        for key in param_basis(n):
            kept = range(n + 1) if key[0] == "r" else range(key[1], n + 1)
            for step in (1e-2, -1e-2, 1e-7):
                b = from_params(p.with_entry(key, p.get(key) + step), n)
                for i in kept:
                    assert a.centers[i].tobytes() == b.centers[i].tobytes(), \
                        (key, step, i + 1)


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
    for v in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="radii_sq must be finite"):
            ParamVector(2, np.array([1.0, v, 1.0]), good)
        bad = np.array(good)
        bad[0, 1] = bad[1, 0] = v
        with pytest.raises(ValueError, match="dist_sq must be finite"):
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
    assert q.dist_sq[1, 0] == 2.0
    assert p.get(("d", 1, 2)) == pytest.approx(SIDE ** 2)  # original untouched


def test_param_keys_outside_the_basis_are_refused(tri):
    """Only ("r", j) and ("d", j, k) with 1 <= j < k <= n + 1 name an
    entry: ("r", 0) used to read and overwrite r_{n+1}^2 through index
    -1, and ("d", 0, 3) read the diagonal 0."""
    p = params_of(tri)
    for key in (("r", 0), ("r", 4), ("d", 0, 3), ("d", 2, 1), ("d", 1, 1),
                ("d", 1, 4), ("r", 1, 2), ("d", 1), ("a0", 1)):
        with pytest.raises(KeyError):
            p.get(key)
        with pytest.raises(KeyError):
            p.with_entry(key, 1.7)
    for key in param_basis(2):
        assert p.with_entry(key, 1.7).get(key) == 1.7


def test_with_entry_checks_the_new_value(tri):
    """`with_entry` refuses what the constructor refuses, with the same
    message, and a valid copy reads like a fresh vector of its arrays."""
    p = params_of(tri)
    for key, name, what in ((("r", 2), "radii_sq", "radii"),
                            (("d", 1, 3), "dist_sq", "distances")):
        for v in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                p.with_entry(key, v)
        for v in (0.0, -1.0):
            with pytest.raises(ValueError,
                               match=f"all squared {what} must be positive"):
                p.with_entry(key, v)
        q = p.with_entry(key, 1.7)
        fresh = ParamVector(q.n, q.radii_sq, q.dist_sq)
        assert q.n == fresh.n and q.get(key) == 1.7
        assert vars(fresh).keys() <= vars(q).keys()
        assert np.array_equal(q.dist_sq, q.dist_sq.T)
        for x in (q.radii_sq, q.dist_sq):
            assert not x.flags.writeable
        assert q._store == {} and q._parent[0] is p
        assert sx.chamber_volume(q, Chamber.all_minus(2)) == \
            sx.chamber_volume(fresh, Chamber.all_minus(2))
    with pytest.raises(KeyError):
        p.with_entry(("d", 2, 2), 1.7)


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


def test_check_hypotheses_of_a_vector(tri, gap):
    """A ParamVector's report takes H2 on its `from_params` reconstruction
    and equals its arrangement's in h1, h1', h2 and the sign table."""
    gen = np.random.default_rng(24)
    for a in (tri, gap, tetrahedron(), random_h1(gen), random_h1(gen, 3)):
        got = check_hypotheses(params_of(a))
        want = check_hypotheses(a)
        assert (got.h1, got.h1_prime, got.h2) == (want.h1, want.h1_prime,
                                                  want.h2)
        assert got.table == want.table
        assert [(j, st) for j, _, st in got.h2_details] == \
            [(j, st) for j, _, st in want.h2_details]
    assert check_hypotheses(params_of(tri)).h2 is True


def test_check_hypotheses_skip_h2(tri):
    rep = check_hypotheses(tri, h2="skip")
    assert rep.h1 is True
    assert rep.h2 is None


def test_require_hypothesis_messages(tri, gap):
    """One message per verdict, on an arrangement or its vector."""
    through = equilateral(radius=0.8660254037844386)  # B(0*N) = 0
    for x in (tri, params_of(tri)):
        require_hypothesis(x, "h1", "what")
        with pytest.raises(HypothesisError, match=r"^H1' fails; what$"):
            require_hypothesis(x, "h1_prime", "what")
    with pytest.raises(HypothesisError, match=r"^H1 fails; gap$"):
        require_hypothesis(params_of(gap), "h1", "gap")
    require_hypothesis(gap, "h1_prime", "gap")
    for name, label in (("h1", "H1"), ("h1_prime", "H1'")):
        with pytest.raises(IndeterminateSignError,
                           match=rf"^{label} indeterminate; x$"):
            require_hypothesis(through, name, "x")


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


def _certificate_draws():
    """H1 draws at n = 2, 3, 4, H1' draws at n = 2, 3, 4 (the regular
    4-simplex of radius 0.93 jittered has a gap), and the triangle whose
    circles meet in one point, where B(0*N) = 0 leaves H1 unresolved."""
    from test_variation import jittered_gap3

    gen = np.random.default_rng(2323)
    draws = [random_h1(gen, n) for n in (2, 3, 4)]
    draws += [random_h1_prime(gen), jittered_gap3(gen)]
    base = regular_simplex4()
    while True:
        a = sx.from_centers_radii(base + gen.normal(scale=0.005, size=(5, 4)),
                                  0.93 + gen.normal(scale=0.002, size=5))
        if check_hypotheses(a, h2="skip").h1_prime is True:
            break
    return draws + [a, equilateral(radius=0.8660254037844386)]


def test_certificate_agrees_with_the_sign_table():
    """Whenever `_certify` answers for a `with_entry` vector, its H1/H1'
    verdicts equal those of the vector's own sign table: every key,
    relative steps +-1e-5 and +-1e-2, a step of the largest entry that
    changes `scale` and one across a power of two, at scales 1e-6 to
    1e6.  Every +-1e-5 step of a resolved draw is certified, some 1e-2
    steps are, and a step across a power of two (another `_unit`) never
    is."""
    large = 0
    for a in _certificate_draws():
        for s in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            p = params_of(sx.from_centers_radii(a.centers * s, a.radii * s))
            h = check_hypotheses(p, h2="skip")
            unit = CMTable.from_params(p)._unit
            top = max(param_basis(p.n), key=p.get)
            steps = [(key, p.get(key) * (1.0 + t)) for key in param_basis(p.n)
                     for t in (1e-5, -1e-5, 1e-2, -1e-2)]
            steps += [(top, p.get(top) * (1.0 + 1e-9)), (top, 1.5 * unit)]
            for key, value in steps:
                q = p.with_entry(key, value)
                got = arrangement._certify(q)
                want = arrangement._sign_table(q)[1:3]
                if CMTable.from_params(q)._unit != unit:
                    assert got is None, (key, value)
                elif abs(value / p.get(key) - 1.0) < 2e-5 and None not in (
                        h.h1, h.h1_prime):
                    assert got is not None, (a.n, s, key, value)
                if got is not None:
                    assert got == want, (a.n, s, key, value)
                    large += abs(value / p.get(key) - 1.0) > 5e-3
    assert large > 0


def test_certificate_declines_a_step_that_breaks_h1():
    """Circles through nearly one point: r_1^2 - 1e-3 turns H1 into a
    failure, so the certificate must not answer, and `require_hypothesis`
    builds the vector's table and raises."""
    p = params_of(equilateral(radius=0.8661))
    assert check_hypotheses(p, h2="skip").h1 is True
    q = p.with_entry(("r", 1), p.get(("r", 1)) - 1e-3)
    assert arrangement._certify(q) is None
    with pytest.raises(HypothesisError, match="H1 fails"):
        require_hypothesis(q, "h1", "x")
    assert "signs" in q._store


def test_move_bound_bounds_every_moved_chain():
    """Every sign-table chain B(0 J), B(0*J) that a `with_entry` step has
    `moved` lies within `move_bound` of the parent's value, for every key
    and steps +-1e-5, +-1e-2 and +0.3 (relative) of H1 and H1' draws at
    n = 2, 3, 4; a chain the step has not moved is the parent's."""
    moved = 0
    for a in _certificate_draws():
        p = params_of(a)
        parent = CMTable.from_params(p)
        for key in param_basis(p.n):
            for t in (1e-5, -1e-5, 1e-2, -1e-2, 0.3):
                table = CMTable.from_params(
                    p.with_entry(key, p.get(key) * (1.0 + t)))
                if table._base is None:     # another `_unit`
                    continue
                for size in range(1, p.n + 2):
                    for J in itertools.combinations(range(1, p.n + 2), size):
                        for c in (("0",) + J, ("0", "*") + J):
                            child, old = table.chain(c, c), parent.chain(c, c)
                            if not table.moved(c, c):
                                assert child.hex() == old.hex(), (key, t, c)
                                continue
                            moved += 1
                            bound = table.move_bound(len(c))
                            assert abs(child - old) <= bound, (key, t, c)
    assert moved > 1000
