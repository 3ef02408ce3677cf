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
from sphex.identities import (
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


def test_prop6_values(tri):
    for j in (1, 2, 3):
        rep = check_prop6_values(tri, j)
        assert rep.passed
        assert rep.residual <= 1e-9
        assert rep.lhs < 0  # 1/f at the inner vertex
        assert rep.name == f"prop6_values_{j}"


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
