import itertools
import math

import numpy as np
import pytest

import sphex as sx
from sphex.arrangement import Chamber
from sphex.cayley_menger import ConfigMatrix
from sphex.errors import (
    DegenerateConfigError,
    HypothesisError,
    IndeterminateSignError,
)
from sphex import volume
from sphex.identities import (
    _report,
    check_decomposition,
    check_gauss_bonnet_n3,
    check_lemma5_pointwise,
    check_prop4_residue,
    check_prop6_values,
    check_theorem_I_i,
    check_theorem_II_i,
)
from sphex.volume import Rng, pseudo_triangle_area_closed
from conftest import (
    equilateral,
    indicator_decomposition,
    indicator_volume_identity,
    jitter_arrangement,
    random_h1,
    random_h1_prime,
    regular_simplex4,
    tetrahedron,
)


def term(report, label):
    for l, v in report.terms:
        if l == label:
            return v
    raise KeyError(label)


def test_theorem_I_i_equilateral(tri):
    rep = check_theorem_I_i(tri)
    assert rep.passed
    assert rep.residual <= 1e-12
    assert rep.lhs == pytest.approx(2 * pseudo_triangle_area_closed(tri))
    assert term(rep, "simplex") == pytest.approx(1.948557, abs=1e-6)
    assert term(rep, "simplex") == pytest.approx(
        math.sqrt(15.1875) / 2, rel=1e-12)


def test_report_terms_fsum_to_rhs(tri):
    rep = check_theorem_I_i(tri)
    assert rep.rhs == math.fsum(v for _, v in rep.terms)


def test_theorem_I_i_relabeling_invariance():
    gen = np.random.default_rng(51)
    a = random_h1(gen, 2)
    base = check_theorem_I_i(a)
    for perm in ((1, 2, 0), (2, 0, 1), (1, 0, 2)):
        b = sx.from_centers_radii(a.centers[list(perm)],
                                  a.radii[list(perm)])
        rep = check_theorem_I_i(b)
        assert rep.passed
        assert term(rep, "simplex") == pytest.approx(
            term(base, "simplex"), rel=1e-12)
        assert rep.lhs == pytest.approx(base.lhs, rel=1e-9)


def test_theorem_I_i_mixed_chambers(tri):
    for signs in ("--+", "-+-", "+--", "-++", "+-+", "++-"):
        rep = check_theorem_I_i(tri, chamber=Chamber.from_string(signs))
        assert rep.passed, signs
        assert rep.residual <= 1e-9


def test_theorem_I_i_rejects_all_plus(tri):
    with pytest.raises(ValueError):
        check_theorem_I_i(tri, chamber=Chamber.all_plus(2))


def test_identity_checks_refuse_inputs_outside_their_hypothesis(tri):
    gen = np.random.default_rng(5)
    no_h1 = [jitter_arrangement(gen, 3) for _ in range(3)][-1]
    assert sx.check_hypotheses(no_h1, h2="skip").h1 is False
    with pytest.raises(HypothesisError, match="H1 fails"):
        check_theorem_I_i(no_h1, 200_000, Rng(0))
    for check in (check_theorem_II_i, check_decomposition):
        with pytest.raises(HypothesisError, match="H1' fails"):
            check(tri)                      # H1 holds, so H1' does not
    # all three circles pass through the centroid: B(0*N) = 0
    through = equilateral(radius=0.8660254037844386)
    for check in (check_theorem_I_i, check_theorem_II_i, check_decomposition):
        with pytest.raises(IndeterminateSignError):
            check(through)


#: draws 4, 10 and 13 of 300 jittered tetrahedra (radius 0.89, centres
#: by N(0, 0.15), radii by N(0, 0.10)) under default_rng(99): H1' holds,
#: yet every gap face (k,) has area 0, and theorem II read lhs 0 against
#: rhs 0.55-0.75 before these were refused
NO_GAP_FACES = [
    ([[0.18642859860662728, -0.0398876262201829, 0.011017221629221589],
      [1.2717699376903835, 0.16909667740510761, -0.013112285136437389],
      [0.7379436890942651, 1.051440250338096, -0.1878048339241634],
      [1.0113120108976714, 0.6561087327668158, 1.1150800745250506]],
     [0.9394988942210277, 1.0530851536013406, 0.8575455410831953,
      0.7163005033412653]),
    ([[0.07409942600885101, 0.18936020271716741, -0.09570492786849774],
      [1.452763476188206, 0.00898449128932474, 0.1848542291244375],
      [0.7089727634947981, 1.2404959222138243, 0.17469673838521083],
      [0.6922327939999622, 0.5339496712532658, 1.0426227098343535]],
     [0.8680404505407493, 0.8833856733934453, 0.6837846449681183,
      1.122478023332671]),
    ([[0.3092617406625542, 0.23376488015049826, 0.071223673229139],
      [1.0980289104259366, 0.01976925824636805, -0.09900315057192259],
      [0.47899607535944677, 1.3067540329026692, 0.08146498745872081],
      [0.8111385693440072, 0.3660903292529517, 1.2228091820155478]],
     [0.9084597001605252, 0.9796598453908296, 0.8423704384515467,
      0.7810717432884109]),
]


@pytest.mark.parametrize("centers, radii", NO_GAP_FACES)
def test_n3_gap_without_faces_is_refused(centers, radii):
    a = sx.from_centers_radii(centers, radii)
    assert sx.check_hypotheses(a, h2="skip").h1_prime is True
    c = Chamber.all_plus(3)
    assert all(sx.face_volume(a, c, (k,)).value == 0.0 for k in range(1, 5))
    for check in (check_theorem_II_i, check_decomposition):
        with pytest.raises(HypothesisError, match="gap face on sphere 1 has "
                                                  "measure 0"):
            check(a, 1000, Rng(0))


def test_identity_checks_accept_a_param_vector(tri, gap):
    """The same reports from an Arrangement and from its ParamVector; the
    decomposition's lhs reads the reconstructed centres, so it agrees to
    rounding."""
    for check, a in ((check_theorem_I_i, tri), (check_theorem_II_i, gap),
                     (check_decomposition, gap)):
        ref, got = check(a), check(sx.params_of(a))
        assert (got.name, got.rhs, got.terms, got.passed) == \
            (ref.name, ref.rhs, ref.terms, ref.passed)
        assert got.lhs == pytest.approx(ref.lhs, rel=1e-15)
        assert got.tolerance == ref.tolerance


def test_exact_tolerance_is_scale_free():
    """The regular triangle (edge 1.5, r = 1) and its gap (r = 0.8),
    scaled by 1e-12 to 1e12: each exact volume identity passes, and with
    its largest term perturbed by 1e-9 relative it fails, at every
    scale.  An absolute tolerance fails the first at 1e5 and cannot fail
    the second below 1."""
    for k in range(-12, 13):
        s = 10.0 ** k
        for check, r in ((check_theorem_I_i, 1.0), (check_theorem_II_i, 0.8),
                         (check_decomposition, 0.8)):
            base = equilateral(radius=r)
            rep = check(sx.from_centers_radii(base.centers * s,
                                              base.radii * s))
            assert rep.passed, (rep.name, s, rep.residual, rep.tolerance)
            terms = list(rep.terms)
            i = max(range(len(terms)), key=lambda i: abs(terms[i][1]))
            terms[i] = (terms[i][0], terms[i][1] * (1.0 + 1e-9))
            assert not _report(rep.name, rep.lhs, terms,
                               rep.tolerance).passed, (rep.name, s)


def test_theorem_I_i_random_closed():
    gen = np.random.default_rng(52)
    for _ in range(15):
        a = random_h1(gen, 2)
        rep = check_theorem_I_i(a)
        assert rep.passed
        assert rep.residual <= 1e-9


def test_theorem_I_i_mc_n3(tetra):
    rep = check_theorem_I_i(tetra, samples=150_000, rng=Rng(1))
    assert not rep.tolerance == 1e-9  # MC path: tolerance is 3 sigma
    assert rep.passed


def test_theorem_II_i_gap(gap):
    rep = check_theorem_II_i(gap)
    assert rep.passed
    assert rep.residual <= 1e-12
    mc = indicator_volume_identity(gap, Chamber.all_plus(2), 300_000, Rng(2))
    assert mc.passed


def test_theorem_II_i_random():
    gen = np.random.default_rng(53)
    for _ in range(10):
        a = random_h1_prime(gen)
        rep = check_theorem_II_i(a)
        assert rep.passed
        assert rep.residual <= 1e-9


def test_decomposition_closure(gap):
    rep = check_decomposition(gap)
    assert rep.passed
    assert rep.residual <= 1e-12
    assert term(rep, "cell_S_1") == pytest.approx(0.107634, abs=1e-6)
    assert term(rep, "cell_S_12") == pytest.approx(0.208791, abs=1e-6)
    assert term(rep, "gap") == pytest.approx(0.025004, abs=1e-6)
    from sphex.volume import simplex_volume

    assert rep.lhs == pytest.approx(simplex_volume(gap), rel=1e-14)


def test_decomposition_mc(gap):
    rep = indicator_decomposition(gap, 250_000, Rng(3))
    assert rep.passed


def test_degenerate_limit_side_sqrt3():
    """All three unit circles pass through the circumcenter at side
    sqrt(3); the three-arc region shrinks to that point."""
    areas = [pseudo_triangle_area_closed(equilateral(side=s))
             for s in (1.5, 1.6, 1.7, 1.73)]
    assert areas == sorted(areas, reverse=True)
    tail = pseudo_triangle_area_closed(equilateral(side=1.7320))
    assert 0.0 <= tail < 1e-6
    rep = check_theorem_I_i(equilateral(side=1.73))
    assert rep.passed


def test_lemma5_random_points():
    gen = np.random.default_rng(54)
    for n in (2, 3):
        a = random_h1(gen, n)
        for _ in range(5):
            x = gen.normal(scale=2.0, size=n)
            try:
                rep = check_lemma5_pointwise(a, x)
            except DegenerateConfigError:
                continue
            assert rep.passed
            assert rep.residual <= rep.tolerance


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lemma5_holds_in_both_orientations(n):
    """The lhs changes sign with the orientation of the center simplex
    and the determinants do not.  On random draws (normal centers, radii
    U(0.5, 2)), randomly relabeled, the identity holds in both
    orientations, and swapping two labels negates the lhs.  A draw whose
    B(0N) the sign table cannot sign is refused in both labelings."""
    gen = np.random.default_rng(8 + n)
    turns = []
    for _ in range(10):
        perm = gen.permutation(n + 1)
        c = gen.normal(size=(n + 1, n))[perm]
        r = gen.uniform(0.5, 2.0, n + 1)[perm]
        x = gen.normal(size=n)
        reps = []
        for order in (list(range(n + 1)), [1, 0] + list(range(2, n + 1))):
            a = sx.from_centers_radii(c[order], r[order])
            status = sx.check_hypotheses(a, h2="skip").table[-1].plain_status
            if status == "indeterminate":
                with pytest.raises(IndeterminateSignError):
                    check_lemma5_pointwise(a, x)
                continue
            turns.append(np.linalg.det(a.centers[:-1] - a.centers[-1]) > 0)
            reps.append(check_lemma5_pointwise(a, x))
            assert reps[-1].passed, (n, reps[-1])
        if len(reps) == 2:
            assert reps[1].lhs == pytest.approx(-reps[0].lhs, rel=1e-9)
    assert len(turns) >= 16 and 0 < sum(turns) < len(turns)


def test_lemma5_scale_sweep_passes_and_has_power(tri):
    """At every scale from 1e-6 to 1e6 the identity holds, and the same
    check with the `full` term dropped fails."""
    pts = [np.array(p) for p in ((0.75, 0.4), (2.5, -0.7), (-1.2, 1.9))]
    for k in range(-6, 7):
        s = 10.0 ** k
        a = sx.from_centers_radii(tri.centers * s, tri.radii * s)
        for x in pts:
            rep = check_lemma5_pointwise(a, s * x)
            assert rep.passed, (k, rep)
            partial = math.fsum(v for label, v in rep.terms
                                if label != "full")
            assert abs(rep.lhs - partial) > rep.tolerance, (k, rep)


def test_lemma5_rejects_on_sphere_points(tri):
    x = tri.center(1) + np.array([1.0, 0.0])
    with pytest.raises(DegenerateConfigError):
        check_lemma5_pointwise(tri, x)
    with pytest.raises(ValueError):
        check_lemma5_pointwise(tri, np.zeros(3))


def test_prop4_constants(tri):
    rep1 = check_prop4_residue(tri, (1,), trials=10)
    assert rep1.passed
    assert rep1.rhs == pytest.approx(2.0, rel=1e-12)
    rep12 = check_prop4_residue(tri, (1, 2), trials=10)
    assert rep12.passed
    assert rep12.rhs == pytest.approx(math.sqrt(15.75), rel=1e-12)
    assert rep1.name == "prop4_residue_1"
    assert rep12.name == "prop4_residue_12"


def test_prop4_random():
    gen = np.random.default_rng(55)
    a = random_h1(gen, 3)
    for J in ((1,), (2, 4), (1, 2, 3)):
        rep = check_prop4_residue(a, J, trials=8, rng=Rng(4))
        assert rep.passed, J


def test_prop4_is_scale_free(tri, tetra):
    """The tolerance follows the constant at every scale: at 1e-6 the
    constant of J = (1, 2) is about 4e-12, below any absolute floor."""
    for base in (tri, tetra):
        for s in 10.0 ** np.arange(-6, 7, 2):
            a = sx.from_centers_radii(base.centers * s, base.radii * s)
            for J in ((1,), (1, 2)):
                rep = check_prop4_residue(a, J, trials=10, rng=Rng(3))
                assert rep.passed, (s, J)
                assert rep.tolerance <= 1e-9 * rep.rhs, (s, J)


class FixedDirection:
    """An rng whose every normal draw is one direction g."""

    def __init__(self, g):
        self.g = np.array(g, float)

    def generator(self, i):
        return self

    def normal(self, size):
        assert size == len(self.g)
        return self.g.copy()


@pytest.mark.parametrize("shape, J, g", [
    ("tetra", (1,), (1.0, 1e-9, 0.0)),
    ("tetra", (1,), (1.0, 1e-7, 0.0)),
    ("simplex4", (1,), (1.0, 1e-9, 0.0, 0.0)),
    ("simplex4", (1, 2), (0.0, 1.0, 1e-10)),
])
def test_prop4_tangent_frame_of_any_direction(shape, J, g):
    """A sampled direction g almost along a basis vector of S_J still
    gets a tangent frame: g completed to an orthonormal basis leaves no
    column to drop by a rank threshold."""
    a = (tetrahedron() if shape == "tetra"
         else sx.from_centers_radii(regular_simplex4(), [1.0] * 5))
    rep = check_prop4_residue(a, J, trials=3, rng=FixedDirection(g))
    assert rep.passed, rep


def test_prop6_values(tri):
    for j in (1, 2, 3):
        rep = check_prop6_values(tri, j)
        assert rep.passed
        assert rep.residual <= 1e-9
        assert rep.lhs < 0  # 1/f at the inner vertex
        assert rep.name == f"prop6_values_{j}"


def test_prop6_refuses_without_h1():
    """The vertex signs assume H1: on the gap triangle (H1' holds, H1
    fails) the check refuses instead of failing on signs alone."""
    gap = equilateral(radius=0.8)
    rep = sx.check_hypotheses(gap, h2="skip")
    assert (rep.h1, rep.h1_prime) == (False, True)
    for j in (1, 2, 3):
        with pytest.raises(HypothesisError, match="H1 fails"):
            check_prop6_values(gap, j)


def test_prop6_random_n3():
    gen = np.random.default_rng(56)
    a = random_h1(gen, 3)
    for j in (1, 2, 3, 4):
        rep = check_prop6_values(a, j)
        assert rep.passed, j


def test_gauss_bonnet_octant():
    m = ConfigMatrix.from_entries(3, [0.0, 0.0, 0.0],
                                  {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0})
    rep = check_gauss_bonnet_n3(m, samples=400_000, rng=Rng(5))
    assert rep.passed
    assert rep.rhs == pytest.approx(math.pi / 2, rel=1e-12)
    assert term(rep, "euler") == pytest.approx(2 * math.pi)
    for j in (1, 2, 3):
        assert term(rep, f"arc_{j}") == 0.0  # offsets vanish


def test_gauss_bonnet_generic(tetra):
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetra))
    rep = check_gauss_bonnet_n3(m, samples=400_000, rng=Rng(6))
    assert rep.passed


def test_gauss_bonnet_wall_fadeout():
    """Pushing the third plane far out degenerates the region to the
    lune of the first two: the closed rhs approaches the lune area."""
    gaps = []
    for off in (-3.0, -6.0, -12.0, -24.0):
        m = ConfigMatrix.from_entries(3, [0.0, 0.0, off],
                                      {(1, 2): 0.0, (1, 3): 0.0,
                                       (2, 3): 0.0})
        rep = check_gauss_bonnet_n3(m, samples=150_000, rng=Rng(7))
        assert rep.passed
        gaps.append(abs(rep.rhs - math.pi))
    assert gaps == sorted(gaps, reverse=True)
    # the residual cap shrinks like pi/(4 off^2)
    assert gaps[-1] < 2e-3


def test_gauss_bonnet_needs_n3():
    m2 = ConfigMatrix.from_entries(2, [0.0, 0.0], {(1, 2): 0.0})
    with pytest.raises(ValueError):
        check_gauss_bonnet_n3(m2)


def test_report_to_dict(tri):
    d = check_theorem_I_i(tri).to_dict()
    assert d["name"] == "theorem_I_i"
    assert d["pass"] is True
    assert {t["label"] for t in d["terms"]} >= {"S_1", "S_12", "simplex"}
    assert isinstance(d["residual"], float)


def test_sampled_identity_reports_carry_z(tri, tetra, gap):
    """A report whose sum holds a sampled estimate carries its residual in
    standard errors, z = 3 (lhs - rhs) / tolerance, the tolerance being
    3 sigma; a report of closed forms only carries None."""
    gap3 = tetrahedron(radius=0.89)
    for rep in (check_theorem_I_i(tetra, 20_000, Rng(3)),
                check_theorem_II_i(gap3, 20_000, Rng(3)),
                check_decomposition(gap3, 20_000, Rng(3))):
        assert rep.tolerance > 0.0
        assert rep.z == pytest.approx(
            3.0 * (rep.lhs - rep.rhs) / rep.tolerance, rel=1e-12)
        assert 0.0 < abs(rep.z) <= 3.0 and rep.passed
        assert rep.to_dict()["z"] == rep.z
    for rep in (check_theorem_I_i(tri), check_theorem_II_i(gap),
                check_decomposition(gap),
                check_lemma5_pointwise(tri, [0.7, 0.3])):
        assert rep.z is None and rep.to_dict()["z"] is None


# ---------------------------------------------------------------------------
# a check measures its exact faces together, with one-face values
# ---------------------------------------------------------------------------


def assert_terms_match_single_faces(rep, a, c, Js, weights, samples, rng,
                                    prefix="S_"):
    """Each face term of `rep` is its weight times the face measured
    alone on a fresh copy of `a`, on the stream the check gave it; an
    exact face also keeps its method and fallback reason."""
    fresh = sx.from_centers_radii(a.centers, a.radii)
    terms = dict(rep.terms)
    for s, J in Js:
        alone = volume.face_volume(fresh, c, J, samples, rng.substream(s))
        label = prefix + "".join(map(str, J))
        assert abs(terms[label] - weights[J] * alone.value) <= 4e-15, \
            (str(c), J, terms[label], weights[J] * alone.value)
        if alone.exact:
            got = volume.face_volume(a, c, J)      # stored by the check
            assert (got.method, got.fallback_reason) == \
                (alone.method, alone.fallback_reason), (str(c), J)


def volume_identity_faces(a, c):
    coefs, _ = sx.volume_identity_coefficients(
        sx.CMTable.from_arrangement(a), a.n, c)
    Js = sorted(coefs, key=lambda t: (len(t), t))
    return list(enumerate(Js, 1)), coefs


def test_checks_measure_faces_as_one_at_a_time():
    """Theorem I on every chamber of five n = 3 H1 draws and on the
    regular 4-simplex, theorem II and the decomposition on the r = 0.89
    gap: the faces a check measures together equal the faces measured
    one at a time, with the same method and fallback reason."""
    gen = np.random.default_rng(2020)
    samples, rng = 100, Rng(5)
    cases = [(random_h1(gen, 3), c) for _ in range(5)
             for c in map(Chamber, itertools.product((-1, 1), repeat=4))
             if c.minus_set()]
    cases.append((sx.from_centers_radii(regular_simplex4(), [1.0] * 5),
                  Chamber.all_minus(4)))
    for a, c in cases:
        rep = check_theorem_I_i(a, samples, rng, chamber=c)
        Js, coefs = volume_identity_faces(a, c)
        assert_terms_match_single_faces(rep, a, c, Js, coefs, samples, rng)
    gap = sx.from_centers_radii(tetrahedron().centers, [0.89] * 4)
    c = Chamber.all_plus(3)
    rep = check_theorem_II_i(gap, samples, rng)
    Js, coefs = volume_identity_faces(gap, c)
    assert_terms_match_single_faces(rep, gap, c, Js, coefs, samples, rng)
    gap = sx.from_centers_radii(gap.centers, gap.radii)
    rep = check_decomposition(gap, samples, rng)
    Js = [J for p in range(1, 4)
          for J in itertools.combinations(range(1, 5), p)]
    cells = {J: sx.decomposition_cell_coefficient(gap, J) for J in Js}
    assert_terms_match_single_faces(rep, gap, c, list(enumerate(Js)), cells,
                                    samples, rng, prefix="cell_S_")


def test_check_makes_one_kernel_call_per_row_count(monkeypatch):
    """An n = 3 theorem I check measures its four areas (|J| = 1) in one
    `_region_area` call per count of binding rows, and its six arcs in one
    `_circle_arcs` call per count; a second check measures nothing."""
    calls = {"_region_area": [], "_circle_arcs": []}
    for name, shapes in calls.items():
        kernel = getattr(volume, name)

        def counted(alpha, beta, kernel=kernel, shapes=shapes):
            shapes.append(alpha.shape)
            return kernel(alpha, beta)

        monkeypatch.setattr(volume, name, counted)
    gen = np.random.default_rng(2021)
    for _ in range(3):
        a = random_h1(gen, 3)
        c = Chamber.all_minus(3)
        want = {}
        for J in itertools.chain(itertools.combinations(range(1, 5), 1),
                                 itertools.combinations(range(1, 5), 2)):
            alpha, beta, _ = volume.face_constraints(a, c, J)
            rows = volume._region_rows(3 - len(J), alpha, beta)
            if not isinstance(rows, float):
                K = len(rows[0])
                want.setdefault(3 - len(J), {}).setdefault(K, 0)
                want[3 - len(J)][K] += 1
        for shapes in calls.values():
            shapes.clear()
        check_theorem_I_i(a, 100, Rng(1))
        for m, name in ((2, "_region_area"), (1, "_circle_arcs")):
            assert sorted(calls[name]) == sorted(
                (S, K) for K, S in want.get(m, {}).items()), (m, calls[name])
        assert sum(S for S, _ in calls["_region_area"]) == \
            sum(want[2].values())
        for shapes in calls.values():
            shapes.clear()
        check_theorem_I_i(a, 100, Rng(2))
        assert calls == {"_region_area": [], "_circle_arcs": []}
