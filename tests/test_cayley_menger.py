import itertools
import math

import numpy as np
import pytest

import sphex as sx
from sphex.cayley_menger import CMTable, _det_lu, hadamard_scale
from conftest import (
    equilateral,
    random_h1,
    regular_simplex4,
    sphere_lens,
    tetrahedron,
)


def table_of(a):
    return CMTable.from_arrangement(a)


def brute_matrix(a, rows, cols):
    """Build the bordered matrix entry by entry, straight from the
    token definition, with no shortcuts shared with the library."""

    def entry(x, y):
        if x == "0" and y == "0":
            return 0.0
        if x == "0" or y == "0":
            return 1.0
        if x == "*" and y == "*":
            return 0.0
        if x == "*":
            return a.radius(y) ** 2
        if y == "*":
            return a.radius(x) ** 2
        if x == y:
            return 0.0
        return a.distance(x, y) ** 2

    return np.array([[entry(x, y) for y in cols] for x in rows])


def test_plain_single_is_minus_one(tri):
    t = table_of(tri)
    for j in (1, 2, 3):
        assert t.chain(("0", j), ("0", j)) == pytest.approx(-1.0, abs=1e-14)


def test_starred_single_is_twice_radius_sq():
    a = equilateral(radius=0.7)
    t = table_of(a)
    for j in (1, 2, 3):
        assert t.chain(("0", "*", j), ("0", "*", j)) == pytest.approx(
            2 * 0.49, abs=1e-12)


def test_two_unit_circles_distance_one():
    c = np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 2.3]])
    a = sx.from_centers_radii(c, [1.0, 1.0, 1.0])
    t = table_of(a)
    assert t.chain(("0", "*", 1, 2), ("0", "*", 1, 2)) == pytest.approx(
        -3.0, abs=1e-12)


def test_equilateral_full_plain(tri):
    t = table_of(tri)
    assert t.chain(("0", 1, 2, 3), ("0", 1, 2, 3)) == pytest.approx(
        -3 * 2.25 ** 2, abs=1e-10)


def test_chain_matches_brute_determinant():
    gen = np.random.default_rng(5)
    a = random_h1(gen, n=3)
    t = table_of(a)
    for rows in [("0", 1, 2), ("0", "*", 1, 3), ("0", "*", 1, 2, 4),
                 ("0", 2, 3, 4)]:
        got = t.chain(rows, rows)
        want = np.linalg.det(brute_matrix(a, rows, rows))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_chain_mixed_rows_cols():
    gen = np.random.default_rng(6)
    a = random_h1(gen, n=2)
    t = table_of(a)
    rows = ("0", "*", 1, 2)
    cols = ("0", 3, 1, 2)
    got = t.chain(rows, cols)
    want = np.linalg.det(brute_matrix(a, rows, cols))
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_chain_permutation_sign():
    gen = np.random.default_rng(7)
    a = random_h1(gen, n=3)
    t = table_of(a)
    base = t.chain(("0", 1, 2, 3), ("0", 1, 2, 3))
    swapped_rows = t.chain(("0", 2, 1, 3), ("0", 1, 2, 3))
    assert swapped_rows == pytest.approx(-base, rel=1e-12)
    both = t.chain(("0", 2, 1, 3), ("0", 2, 1, 3))
    assert both == pytest.approx(base, rel=1e-12)


def test_transposition_symmetry():
    gen = np.random.default_rng(8)
    a = random_h1(gen, n=2)
    t = table_of(a)
    assert t.chain(("0", "*", 1, 2), ("0", 3, 1, 2)) == pytest.approx(
        t.chain(("0", 3, 1, 2), ("0", "*", 1, 2)), rel=1e-12)


def test_cm_printed_shapes(tri):
    t = table_of(tri)
    assert t.chain(("0", 1, 2, 3), ("0", 1, 2, 3)) == pytest.approx(
        -15.1875, abs=1e-10)
    want = np.linalg.det(brute_matrix(tri, ("0", "*", 1, 2),
                                      ("0", "*", 1, 2)))
    assert t.chain(("0", "*", 1, 2), ("0", "*", 1, 2)) == pytest.approx(
        want, rel=1e-10, abs=1e-10)
    want = np.linalg.det(brute_matrix(tri, ("*", 1, 2), ("0", 1, 2)))
    assert t.chain(("*", 1, 2), ("0", 1, 2)) == pytest.approx(
        want, rel=1e-10, abs=1e-10)


def test_hadamard_scale_positive(tri):
    t = table_of(tri)
    for size in (2, 3, 4, 5):
        assert hadamard_scale(t, size) > 0


def test_scaling_covariance():
    """Scaling all lengths by lam multiplies B(0 J) by lam^(2(p-1))... the
    determinants are homogeneous polynomials in the squared lengths, so a
    global scaling acts predictably on each."""
    gen = np.random.default_rng(9)
    a = random_h1(gen, n=2)
    lam = 1.7
    b = sx.from_centers_radii(a.centers * lam, a.radii * lam)
    ta, tb = table_of(a), table_of(b)
    rows = ("0", 1, 2, 3)
    # B(0 J): one border row of ones, p rows of squared lengths
    assert tb.chain(rows, rows) == pytest.approx(
        ta.chain(rows, rows) * lam ** 4, rel=1e-10)
    # the starred determinant stays homogeneous of degree 2p as well: every
    # permutation term picks up exactly p squared lengths
    rows = ("0", "*", 1, 2, 3)
    assert tb.chain(rows, rows) == pytest.approx(
        ta.chain(rows, rows) * lam ** 6, rel=1e-10)


# configuration matrix


def unit_restricted(a):
    return sx.config_matrix(sx.restrict_to_unit_sphere(a))


def test_config_matrix_normalization(tetra):
    m = unit_restricted(tetra)
    assert m.matrix[0, 0] == pytest.approx(-1.0, abs=1e-12)
    for j in range(1, 4):
        assert m.matrix[j, j] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(m.matrix, m.matrix.T, atol=1e-12)


def test_config_u_normalization(tetra):
    m = unit_restricted(tetra)
    for j in range(1, m.n + 1):
        u = m.normals[j - 1]
        assert np.dot(u, u) - m.offset(j) ** 2 == pytest.approx(1.0,
                                                               abs=1e-10)


def test_config_offset_direct_formula():
    # sphere 1 at (d, 0, 0), unit sphere as number 4
    d, r = 0.9, 0.8
    c = np.array([
        [d, 0.0, 0.0],
        [0.3, 1.0, 0.0],
        [0.2, 0.1, 1.1],
        [0.0, 0.0, 0.0],
    ])
    a = sx.from_centers_radii(c, [r, 0.9, 1.0, 1.0])
    m = sx.config_matrix(a)
    t = CMTable.from_arrangement(a)
    b = t.chain(("0", "*", 1, 4), ("0", "*", 1, 4))
    assert b < 0
    assert m.offset(1) == pytest.approx((1 + d * d - r * r) / math.sqrt(-b),
                                        rel=1e-10)


def test_config_minor_small_cases(tetra):
    m = unit_restricted(tetra)
    for j in (1, 2, 3):
        assert sx.config_minor(m, (j,)) == pytest.approx(1.0, abs=1e-12)
        got = sx.config_minor(m, (j,), with_zero=True)
        assert got == pytest.approx(-1.0 - m.offset(j) ** 2, rel=1e-12)
    for j, k in itertools.combinations((1, 2, 3), 2):
        got = sx.config_minor(m, (j, k))
        assert got == pytest.approx(1.0 - m.inner(j, k) ** 2, rel=1e-12)


def test_config_minor_ordering_sign(tetra):
    m = unit_restricted(tetra)
    plain = sx.config_minor_pair(m, (0, 1, 2), (0, 1, 2))
    swapped = sx.config_minor_pair(m, (0, 1, 2), (0, 2, 1))
    assert swapped == pytest.approx(-plain, rel=1e-12)


def test_config_minor_hypothesis_inequalities(tetra):
    """Restricting an H1 arrangement: -A'(0J) > A'(J) > 0 for all J."""
    m = unit_restricted(tetra)
    for p in (1, 2, 3):
        for J in itertools.combinations((1, 2, 3), p):
            plain = sx.config_minor(m, J)
            zero = sx.config_minor(m, J, with_zero=True)
            assert plain > 0
            assert -zero > plain


def test_config_requires_unit_last_sphere(tri):
    with pytest.raises(ValueError):
        sx.config_matrix(tri)


def test_starred_pair_expansion_on_unit_restriction(tetra):
    """B(0* j n+1) against its expansion in the f-coefficients when the
    last sphere is the unit sphere at the origin."""
    au = sx.restrict_to_unit_sphere(tetra)
    t = CMTable.from_arrangement(au)
    last = au.n + 1
    for j in range(1, au.n + 1):
        alpha0 = float(np.dot(au.center(j), au.center(j))) - au.radius(j) ** 2
        alpha = -au.center(j)
        got = t.chain(("0", "*", j, last), ("0", "*", j, last))
        want = (alpha0 + 1.0) ** 2 - 4.0 * float(np.dot(alpha, alpha))
        assert got == pytest.approx(want, rel=1e-10)


def test_table_cache_stable(tri):
    t = table_of(tri)
    first = t.chain(("0", "*", 1, 2), ("0", "*", 1, 2))
    second = t.chain(("0", "*", 1, 2), ("0", "*", 1, 2))
    assert first == second


# determinant path: in-house LU, one table per object, raw-chain memo


@pytest.mark.parametrize("size", range(8))
def test_det_lu_matches_numpy(size):
    gen = np.random.default_rng(100 + size)
    for _ in range(20):
        M = gen.normal(size=(size, size))
        for A in (M, M[gen.permutation(size)]):
            got, _ = _det_lu(A.tolist())
            want = np.linalg.det(A)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_pivot_flag_on_near_singular_bordered_matrix():
    # centers 1e-7 apart: B(0 1 2) = 2 rho_12^2 ~ 2e-14, a degraded pivot
    c = np.array([[0.0, 0.0], [1e-7, 0.0], [0.5, 1.0]])
    t = table_of(sx.from_centers_radii(c, [1.0, 1.0, 1.0]))
    t.chain(("0", 1, 3), ("0", 1, 3))
    assert not t.pivot_warnings
    got = t.chain(("0", 1, 2), ("0", 1, 2))
    assert got == pytest.approx(2e-14, rel=1e-6)
    assert len(t.pivot_warnings) == 1


def test_pivot_warnings_do_not_depend_on_scale():
    """The regular simplices (edge 1.5, radius 1) for n = 2, 3, 4 flag the
    same determinants, here none, at every length scale."""
    simplices = [equilateral(), tetrahedron(),
                 sx.from_centers_radii(regular_simplex4(), [1.0] * 5)]
    for a in simplices:
        want = sx.check_hypotheses(a, h2="skip").pivot_warnings
        assert want == []
        for s in (1e-12, 1e-7, 1e6, 1e12):
            b = sx.from_centers_radii(a.centers * s, a.radii * s)
            assert sx.check_hypotheses(b, h2="skip").pivot_warnings == want, \
                (a.n, s)


def test_one_table_per_object(tri):
    assert CMTable.from_arrangement(tri) is CMTable.from_arrangement(tri)
    twin = sx.from_centers_radii(tri.centers, tri.radii)
    assert CMTable.from_arrangement(twin) is not CMTable.from_arrangement(tri)
    p = sx.params_of(tri)
    assert CMTable.from_params(p) is CMTable.from_params(p)
    q = sx.ParamVector(p.n, p.radii_sq, p.dist_sq)
    assert CMTable.from_params(q) is not CMTable.from_params(p)


def _parity(perm):
    """Sign of a permutation of range(len(perm)), by counting inversions."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _sorted_pairs(gen, n):
    """(rows, cols) pairs in sorted order, one random J per size |J|:
    B(0J), B(0*J) and the mixed B(*J; 0J) and B(0*J; 0kJ)."""
    m = n + 1
    for p in range(1, m + 1):
        J = tuple(sorted(gen.choice(np.arange(1, m + 1), p, replace=False)
                         .tolist()))
        yield ("0",) + J, ("0",) + J
        yield ("0", "*") + J, ("0", "*") + J
        yield ("*",) + J, ("0",) + J
        rest = [k for k in range(1, m + 1) if k not in J]
        if rest:
            yield ("0", "*") + J, ("0", rest[0]) + J


#: permuted B(0 1 2 3) chains and their sign against the sorted pair
_ORDERINGS = [
    (("0", 2, 1, 3), ("0", 1, 2, 3), -1),
    (("0", 1, 2, 3), ("0", 3, 2, 1), -1),
    (("0", 3, 1, 2), ("0", 2, 3, 1), 1),
    ((1, "0", 2, 3), ("0", 1, 2, 3), -1),
]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permuted_chain_follows_sign_rule(n):
    """The memo keys chains as called and the LU runs in that order, so a
    permuted or transposed chain is sign x the sorted one to rounding,
    and a repeated call returns the stored float."""
    gen = np.random.default_rng(40 + n)
    for _ in range(4):
        a = random_h1(gen, n=n)
        t = table_of(a)
        cases = []
        for rows, cols in _sorted_pairs(gen, n):
            for _ in range(3):
                pr = gen.permutation(len(rows))
                pc = gen.permutation(len(cols))
                cases.append((rows, cols, tuple(rows[i] for i in pr),
                              tuple(cols[i] for i in pc),
                              _parity(pr) * _parity(pc)))
        cases += [(("0", 1, 2, 3), ("0", 1, 2, 3)) + o for o in _ORDERINGS]
        for rows, cols, r, c, sign in cases:
            want = sign * t.chain(rows, cols)
            got, got_t = t.chain(r, c), t.chain(c, r)
            assert got == pytest.approx(want, rel=1e-12)
            assert got_t == pytest.approx(want, rel=1e-12)
            assert t.chain(r, c) == got and t.chain(c, r) == got_t
        assert t.flagged() == []

        # centers 1 and 2 1e-7 apart: every B(0 1 2) ordering is degraded
        centers = a.centers.copy()
        centers[1] = centers[0] + 1e-7
        t = table_of(sx.from_centers_radii(centers, a.radii))
        t.chain(("0", 2, 1), ("0", 1, 2))
        t.chain((1, 2, "0"), (2, "0", 1))
        assert t.flagged() == ["B(0 2 1; 0 1 2)", "B(1 2 0; 2 0 1)"]


@pytest.mark.parametrize("rows, cols", [
    (("0", 1, 1), ("0", 1, 2)),      # repeated index
    (("0", 1, 4), ("0", 1, 2)),      # index out of range
    (("0", 1), ("0", 1, 2)),         # unequal lengths
    (("0", 0), ("0", 1)),            # index below range
    (("x", 1), ("0", 1)),            # unknown token
])
def test_bad_chain_raises_on_every_call(tri, rows, cols):
    t = table_of(tri)
    for _ in range(2):
        with pytest.raises(ValueError):
            t.chain(rows, cols)


def test_border_token_may_follow_an_index(tri):
    t = table_of(tri)
    assert t.chain((1, "0"), (1, "0")) == t.chain(("0", 1), ("0", 1))


def gap_draw(gen, n: int):
    """A jittered regular simplex (edge 1.5) whose equal radii sit between
    the circumradius of a facet and of the simplex, so that H1' holds."""
    base = {2: equilateral().centers, 3: tetrahedron().centers,
            4: regular_simplex4()}[n]
    r = {2: 0.8, 3: 0.89, 4: 0.935}[n]
    return sx.from_centers_radii(
        base + gen.normal(scale=0.01, size=base.shape),
        r * (1.0 + gen.normal(scale=0.002, size=n + 1)))


class WrongSign(Exception):
    pass


def test_signed_agrees_with_the_sign_table_at_every_scale():
    """On H1 and H1' draws at n = 2, 3, 4 and on a near-collinear
    triangle, scaled by 1e-6, 1 and 1e6: `signed` returns (-1)^(s-1) B
    exactly where the sign table's row reads "pass", refuses inside the
    band ("indeterminate") with IndeterminateSignError for B(0 J) and
    TangencyError for B(0*J), and with the caller's one class beyond it
    on the wrong side ("fail"); every verdict is the same at the three
    scales."""
    gen = np.random.default_rng(25)
    arrs = [random_h1(gen, n) for n in (2, 3, 4)]
    arrs += [gap_draw(gen, n) for n in (2, 3, 4)]
    arrs.append(sx.from_centers_radii([[0, 0], [1, 0], [2, 8e-5]], [1.0] * 3))
    seen = set()
    for a in arrs[:-1]:
        rep = sx.check_hypotheses(a, h2="skip")
        assert rep.h1 or rep.h1_prime
    for a in arrs:
        verdicts = []
        for s in (1e-6, 1.0, 1e6):
            b = sx.from_centers_radii(a.centers * s, a.radii * s)
            table = table_of(b)
            got = []
            for row in sx.check_hypotheses(b, h2="skip").table:
                for head, value, status, no_sign in (
                        (("0",), row.plain, row.plain_status,
                         sx.IndeterminateSignError),
                        (("0", "*"), row.starred, row.starred_status,
                         sx.TangencyError)):
                    chain = head + row.subset
                    try:
                        v = table.signed(chain, WrongSign, "x")
                        assert v == (-1) ** (len(chain) - 1) * value
                        verdict = "pass"
                    except sx.IndeterminateSignError as e:
                        assert type(e) is no_sign, chain
                        verdict = "indeterminate"
                    except WrongSign:
                        verdict = "fail"
                    assert verdict == status, (a.n, s, chain)
                    got.append(verdict)
            verdicts.append(got)
        assert verdicts[0] == verdicts[1] == verdicts[2]
        seen.update(verdicts[0])
    assert seen == {"pass", "indeterminate", "fail"}


def test_signed_message_names_the_chain():
    """The gap triangle's B(0*123) has the H1' sign, the wrong one; the
    near-collinear triangle's B(0 1 2 3) has none."""
    gap = equilateral(radius=0.8)
    with pytest.raises(WrongSign, match=r"^why: B\(0 \* 1 2 3\) = .* has "
                                        r"the wrong sign$"):
        table_of(gap).signed(("0", "*", 1, 2, 3), WrongSign, "why")
    flat = sx.from_centers_radii([[0, 0], [1, 0], [2, 8e-5]], [1.0] * 3)
    with pytest.raises(sx.IndeterminateSignError,
                       match=r"^why: B\(0 1 2 3\) = .* has no sign$"):
        table_of(flat).signed(("0", 1, 2, 3), WrongSign, "why")


def test_nonzero_takes_either_sign_and_refuses_the_band():
    """B(0*123) of the H1 triangle and of the H1' gap triangle have
    opposite signs, and `nonzero` returns each as it is; where the three
    unit circles share a point (side sqrt 3) it has none: TangencyError."""
    h1, gap = equilateral(), equilateral(radius=0.8)
    chain = ("0", "*", 1, 2, 3)
    for a in (h1, gap):
        assert table_of(a).nonzero(chain, "x") == table_of(a).chain(chain,
                                                                   chain)
    assert table_of(h1).nonzero(chain, "x") * table_of(gap).nonzero(
        chain, "x") < 0
    meet = equilateral(side=math.sqrt(3.0))
    with pytest.raises(sx.TangencyError, match=r"B\(0 \* 1 2 3\) = .* has "
                                               r"no sign"):
        table_of(meet).nonzero(chain, "x")


def test_config_signed_rule():
    """A'(0 J) < 0 and A'(J) > 0 on the tetrahedron's configuration; a
    lens inside a larger cap has A'(13) < 0 (the caller's class); circles
    that touch have A'(12) inside the band (TangencyError), and a
    dependent A'(0 J) (IndeterminateSignError)."""
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetrahedron()))
    for J in ((1,), (1, 2), (1, 2, 3)):
        assert m.signed(J, True, WrongSign, "x") == -sx.config_minor(
            m, J, with_zero=True) > 0
    assert m.signed((1, 2), False, WrongSign, "x") == sx.config_minor(
        m, (1, 2)) > 0
    lens = sx.config_matrix(sx.restrict_to_unit_sphere(sphere_lens()))
    with pytest.raises(WrongSign, match=r"^why: A'\(1, 3\) = -1.44 has the "
                                        r"wrong sign$"):
        lens.signed((1, 3), False, WrongSign, "why")
    off = [0.0, 0.0, 0.0]
    touch = sx.ConfigMatrix.from_entries(3, off, {(1, 2): 1.0 - 1e-13,
                                                  (1, 3): 0.0, (2, 3): 0.0})
    with pytest.raises(sx.TangencyError, match=r"A'\(1, 2\) = "):
        touch.signed((1, 2), False, WrongSign, "x")
    with pytest.raises(sx.IndeterminateSignError, match=r"A'\(0, 1, 2\) = "):
        touch.signed((1, 2), True, WrongSign, "x")
