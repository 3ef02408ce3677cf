import itertools
import math

import numpy as np
import pytest

import sphex as sx
from sphex.arrangement import Chamber, from_params, params_of
from sphex.cayley_menger import CMTable, ConfigMatrix
from sphex import variation
from sphex.errors import FdNoiseError
from sphex.intersect import angles_pair, sphere_angle
from sphex.variation import (
    OneForm,
    _ray_fd,
    config_basis,
    dA_volume_form_n3,
    dA_volume_form_theorem_III,
    dB_volume_form,
    dpsi_form,
    lens_variation_form,
    param_basis,
    theta,
    theta_prime,
    verify_variation_fd,
)
from sphex.volume import (
    BLOCK,
    Rng,
    _signs_mask,
    _simplex_mask,
    _simplex_rows,
    chamber_area_closed_n2,
    lens_volume_closed,
    sphere_arc_lengths,
    sphere_vertex_counts,
)
from conftest import (
    equilateral,
    lens_trio,
    random_h1,
    random_h1_prime,
    regular_simplex4,
    tetrahedron,
)


def test_basis_contents():
    assert param_basis(2) == (("r", 1), ("r", 2), ("r", 3),
                              ("d", 1, 2), ("d", 1, 3), ("d", 2, 3))
    assert config_basis(3) == (("a0", 1), ("a0", 2), ("a0", 3),
                               ("a", 1, 2), ("a", 1, 3), ("a", 2, 3))


def test_one_form_interface():
    basis = (("r", 1), ("r", 2))
    f = OneForm.from_dict(basis, {("r", 1): 2.0})
    assert f.get(("r", 1)) == 2.0
    assert f.get(("r", 2)) == 0.0
    assert f.as_dict() == {("r", 1): 2.0, ("r", 2): 0.0}
    assert f.pair({("r", 1): 3.0, ("r", 2): 10.0}) == 6.0
    with pytest.raises(ValueError):
        OneForm.from_dict(basis, {("d", 1, 2): 1.0})
    with pytest.raises(ValueError):
        OneForm(basis, (1.0,))
    with pytest.raises(ValueError):
        OneForm(basis, (1.0, math.nan))


def test_theta_small_orders(tri):
    f1 = theta(tri, (2,))
    assert f1.get(("r", 2)) == pytest.approx(-0.5, rel=1e-14)
    assert sum(abs(c) for c in f1.coeffs) == pytest.approx(0.5)
    f2 = theta(tri, (1, 3))
    rho2 = tri.distance(1, 3) ** 2
    assert f2.get(("d", 1, 3)) == pytest.approx(0.5 / rho2, rel=1e-14)
    assert sum(abs(c) for c in f2.coeffs) == pytest.approx(0.5 / rho2)


def test_theta_full_set_printed_shape():
    """theta over the full index set for n = 2, against the printed
    three-term expansion in the distance differentials."""
    gen = np.random.default_rng(61)
    for _ in range(10):
        a = random_h1(gen, 2)
        t = CMTable.from_arrangement(a)
        form = theta(a, (1, 2, 3))
        B = t.chain(("0", 1, 2, 3), ("0", 1, 2, 3))
        for j, k in ((1, 2), (1, 3), (2, 3)):
            (l,) = (i for i in (1, 2, 3) if i not in (j, k))
            mixed = t.chain(("0", "*", j, k), ("0", l, j, k))
            want = -mixed / B / (2.0 * a.distance(j, k) ** 2)
            assert form.get(("d", j, k)) == pytest.approx(want, abs=1e-13,
                                                          rel=1e-10)
        for j in (1, 2, 3):
            assert form.get(("r", j)) == 0.0


def test_theta_input_forms(tri):
    assert theta(tri, (1, 2)).coeffs == theta(params_of(tri), (2, 1)).coeffs
    with pytest.raises(ValueError):
        theta(tri, ())


def test_theta_prime_small_orders(tetra):
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetra))
    f1 = theta_prime(m, (2,))
    assert f1.as_dict()[("a0", 2)] == 1.0
    assert sum(abs(c) for c in f1.coeffs) == 1.0
    # pairwise case against raw 2x2 determinant ratios of the matrix
    A = m.matrix
    f2 = theta_prime(m, (1, 3))
    assert f2.get(("a", 1, 3)) == 1.0
    for lead, other in ((3, 1), (1, 3)):
        num = A[0, other] * A[lead, lead] - A[lead, other] * A[0, lead]
        den = A[0, 0] * A[lead, lead] - A[0, lead] ** 2
        assert f2.get(("a0", lead)) == pytest.approx(-num / den, rel=1e-12)


def test_theta_prime_order_insensitive(tetra):
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetra))
    assert theta_prime(m, (3, 1, 2)).coeffs == \
        theta_prime(m, (1, 2, 3)).coeffs


def test_dpsi_form_fd():
    """Finite difference of the half angle psi_jk/2, symmetric and
    asymmetric lens."""
    eps = 1e-6
    for radii in ((1.0, 1.0, 1.0), (0.8, 1.3, 1.0)):
        a = sx.from_centers_radii([[0, 0], [1, 0], [0.4, 6.0]], radii)
        p = params_of(a)
        form = dpsi_form(a, 1, 2)
        for key in (("r", 1), ("r", 2), ("d", 1, 2)):
            ap = from_params(p.with_entry(key, p.get(key) + eps), 2)
            am = from_params(p.with_entry(key, p.get(key) - eps), 2)
            fd = (angles_pair(ap, 1, 2)[0] - angles_pair(am, 1, 2)[0]) \
                / (4.0 * eps)
            assert form.get(key) == pytest.approx(fd, abs=1e-8)


def test_lens_variation_form_fd():
    eps = 1e-6
    for n in (2, 3, 4, 5):
        r1, r2, rho = 1.0, 0.8, 1.1
        form = lens_variation_form(n, r1, r2, rho)
        vals = {("r", 1): r1 * r1, ("r", 2): r2 * r2, ("d", 1, 2): rho * rho}
        for key in vals:
            up = dict(vals)
            dn = dict(vals)
            up[key] += eps
            dn[key] -= eps
            fd = (lens_volume_closed(n, math.sqrt(up[("r", 1)]),
                                     math.sqrt(up[("r", 2)]),
                                     math.sqrt(up[("d", 1, 2)]))
                  - lens_volume_closed(n, math.sqrt(dn[("r", 1)]),
                                       math.sqrt(dn[("r", 2)]),
                                       math.sqrt(dn[("d", 1, 2)]))) \
                / (2.0 * eps)
            assert form.get(key) == pytest.approx(fd, abs=1e-7), (n, key)


def closed_fd(a, c, key, eps=1e-5):
    p = params_of(a)
    up = from_params(p.with_entry(key, p.get(key) + eps), a.n)
    dn = from_params(p.with_entry(key, p.get(key) - eps), a.n)
    return (chamber_area_closed_n2(up, c)
            - chamber_area_closed_n2(dn, c)) / (2.0 * eps)


def test_dB_form_all_minus_fd(tri):
    c = Chamber.all_minus(2)
    form = dB_volume_form(tri, c)
    for key in param_basis(2):
        assert form.get(key) == pytest.approx(closed_fd(tri, c, key),
                                              abs=1e-6), key


def test_dB_form_mixed_chamber_fd():
    a = lens_trio()
    c = Chamber.from_string("--+")
    form = dB_volume_form(a, c)
    for key in param_basis(2):
        assert form.get(key) == pytest.approx(closed_fd(a, c, key),
                                              abs=1e-6), key


def test_dB_form_all_plus_fd(gap):
    c = Chamber.all_plus(2)
    form = dB_volume_form(gap, c)
    for key in param_basis(2):
        assert form.get(key) == pytest.approx(closed_fd(gap, c, key),
                                              abs=1e-6), key


def test_verify_fd_euclidean_closed(tri):
    rep = verify_variation_fd("euclidean", tri, Chamber.all_minus(2),
                              ("r", 1), eps=1e-5)
    assert rep.passed
    assert rep.tolerance == 1e-6
    rep = verify_variation_fd("euclidean", tri, Chamber.all_minus(2),
                              ("d", 2, 3), eps=1e-5)
    assert rep.passed


def test_verify_fd_euclidean_mc(tetra):
    rep = verify_variation_fd("euclidean", tetra, Chamber.all_minus(3),
                              ("r", 1), eps=1e-2, samples=200_000,
                              rng=Rng(8))
    assert rep.passed
    assert rep.tolerance > 1e-6  # genuinely the MC path


def test_verify_fd_noise_guard(tetra):
    with pytest.raises(FdNoiseError):
        verify_variation_fd("euclidean", tetra, Chamber.all_minus(3),
                            ("r", 1), eps=1e-12, samples=50_000, rng=Rng(9))


def test_verify_fd_unit_sphere(tetra):
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetra))
    rep = verify_variation_fd("unit-sphere", m, None, ("a", 1, 2), eps=1e-2,
                              samples=1_000_000, rng=Rng(10))
    assert rep.passed
    with pytest.raises(FdNoiseError):
        verify_variation_fd("unit-sphere", m, None, ("a", 1, 2), eps=1e-12,
                            samples=50_000, rng=Rng(11))
    with pytest.raises(ValueError):
        verify_variation_fd("unit-sphere", tetra, None, ("a0", 1))
    with pytest.raises(ValueError):
        verify_variation_fd("quaternionic", tetra, None, ("r", 1))
    with pytest.raises(ValueError):
        verify_variation_fd("euclidean", tetra, Chamber.all_minus(3),
                            ("r", 1), eps=0.0)


def perturbed_entries(m, key, eps):
    off = list(m.offsets)
    inner = {(j, k): m.inner(j, k)
             for j, k in itertools.combinations(range(1, m.n + 1), 2)}
    if key[0] == "a0":
        off[key[1] - 1] += eps
    else:
        inner[(key[1], key[2])] += eps
    return ConfigMatrix.from_entries(m.n, off, inner)


def gb_closed_area(m):
    """Closed-form region area through the boundary integral."""
    arcs = sphere_arc_lengths(m)
    counts = sphere_vertex_counts(m)
    total = 2.0 * math.pi
    for j in (1, 2, 3):
        total -= m.offset(j) * arcs[j]
    for j, k in itertools.combinations((1, 2, 3), 2):
        if counts[(j, k)]:
            total -= counts[(j, k)] * (math.pi - sphere_angle(m, j, k))
    return total


def test_dA_form_fd_against_closed_area(tetra):
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetra))
    form = dA_volume_form_theorem_III(m)
    eps = 1e-6
    for key in config_basis(3):
        fd = (gb_closed_area(perturbed_entries(m, key, eps))
              - gb_closed_area(perturbed_entries(m, key, -eps))) \
            / (2.0 * eps)
        assert form.get(key) == pytest.approx(fd, abs=1e-6), key


def test_dA_general_matches_explicit_n3(tetra):
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetra))
    general = dA_volume_form_theorem_III(m)
    explicit = dA_volume_form_n3(m)
    for key in config_basis(3):
        assert general.get(key) == pytest.approx(explicit.get(key),
                                                 rel=1e-10, abs=1e-12), key


def test_dA_needs_n3():
    m2 = ConfigMatrix.from_entries(2, [0.0, 0.0], {(1, 2): 0.0})
    with pytest.raises(ValueError):
        dA_volume_form_theorem_III(m2)
    with pytest.raises(ValueError):
        dA_volume_form_n3(m2)


def test_variation_report_to_dict(tri):
    d = verify_variation_fd("euclidean", tri, Chamber.all_minus(2),
                            ("d", 1, 2), eps=1e-5).to_dict()
    assert d["parameter"] == "d12"
    assert d["pass"] is True
    assert set(d) == {"parameter", "fd_value", "formula_value", "residual",
                      "tolerance", "pass"}


def test_verify_fd_closed_at_every_scale():
    """The n = 2 closed-form check passes on rescaled copies of one
    triangle, with the step rescaled as the squared parameters."""
    base = equilateral()
    c = Chamber.all_minus(2)
    for k in range(-12, 13):
        s = 10.0 ** k
        a = sx.from_centers_radii(base.centers * s, base.radii * s)
        for key in param_basis(2):
            rep = verify_variation_fd("euclidean", a, c, key, eps=1e-5 * s * s)
            assert rep.method == "closed" and rep.fallback_reason is None
            assert rep.passed and rep.residual <= 1e-10, (k, key)


def paired_indicator_fd(ap, am, c, samples, rng, eps):
    """Central indicator difference on common random points: (fd, sigma).

    Both perturbed chambers are scored on the same uniform points of the
    box holding both; sigma counts the points whose membership flips.
    """
    minus = c.minus_set()
    boxes = []
    for arr in (ap, am):
        if minus:
            boxes.append((
                np.max([arr.center(j) - arr.radius(j) for j in minus], axis=0),
                np.min([arr.center(j) + arr.radius(j) for j in minus], axis=0)))
        else:
            boxes.append((arr.centers.min(axis=0), arr.centers.max(axis=0)))
    lo = np.minimum(boxes[0][0], boxes[1][0])
    hi = np.maximum(boxes[0][1], boxes[1][1])
    box = float(np.prod(hi - lo))
    hits = flips = 0
    for block in range(-(-samples // BLOCK)):
        cnt = min(BLOCK, samples - block * BLOCK)
        pts = lo + (hi - lo) * rng.generator(block).random((cnt, ap.n))
        mp, mm = _signs_mask(ap, c, pts), _signs_mask(am, c, pts)
        if not minus:
            mp &= _simplex_mask(_simplex_rows(ap), pts)
            mm &= _simplex_mask(_simplex_rows(am), pts)
        hits += int(mp.sum()) - int(mm.sum())
        flips += int((mp != mm).sum())
    scale = box / samples / (2.0 * eps)
    return scale * hits, scale * math.sqrt(flips)


@pytest.mark.parametrize("signs,radius", [("----", 1.0), ("---+", 1.0),
                                          ("++++", 0.89)])
def test_ray_fd_matches_paired_indicator(signs, radius):
    """The paired-ray difference against the indicator one, and its sigma
    at least 5x smaller at equal samples."""
    params = params_of(tetrahedron(radius=radius))
    c = Chamber.from_string(signs)
    eps = 1e-2
    for key in (("r", 1), ("r", 4), ("d", 1, 2), ("d", 3, 4)):
        ap, am = (from_params(p, 3) for p in
                  (params.with_entry(key, params.get(key) + eps),
                   params.with_entry(key, params.get(key) - eps)))
        fd, sigma = _ray_fd(ap, am, c, 200_000, Rng(31), eps)
        ind, ind_sigma = paired_indicator_fd(ap, am, c, 200_000, Rng(32), eps)
        assert sigma > 0.0
        assert abs(fd - ind) <= 5.0 * math.hypot(sigma, ind_sigma), key
        assert 5.0 * sigma <= ind_sigma, key


def test_ray_fd_sigma_matches_spread(tetra):
    """The reported sigma, taken over frames, is the spread of the
    difference over streams."""
    params = params_of(tetra)
    c = Chamber.all_minus(3)
    eps = 1e-2
    for key in (("r", 2), ("d", 1, 2)):
        ap, am = (from_params(p, 3) for p in
                  (params.with_entry(key, params.get(key) + eps),
                   params.with_entry(key, params.get(key) - eps)))
        runs = [_ray_fd(ap, am, c, 20_000, Rng(33, s), eps)
                for s in range(40)]
        spread = np.std([fd for fd, _ in runs], ddof=1)
        sigma = np.mean([s for _, s in runs])
        assert 0.6 < spread / sigma < 1.5, key


def test_ray_fd_needs_a_changed_line():
    """Ball 4 lies far from ball 1, so changing r_4 changes no line's
    score of chamber -+++: a noise-floor error, not a difference of 0."""
    centers = [[0.0, 0.0, 0.0], [9.0, 0.0, 0.0], [0.0, 9.0, 0.0],
               [0.0, 0.0, 9.0]]
    ap, am = (sx.from_centers_radii(centers, [1.3, 1.0, 1.0, r])
              for r in (1.01, 0.99))
    with pytest.raises(FdNoiseError, match="no line's score changed"):
        _ray_fd(ap, am, Chamber.from_string("-+++"), 2000, Rng(34), 1e-2)


def test_ray_fd_repeats_per_seed_stream_and_samples(tetra):
    c = Chamber.all_minus(3)

    def rep(rng, samples=100_000):
        return verify_variation_fd("euclidean", tetra, c, ("d", 1, 3),
                                   eps=1e-2, samples=samples, rng=rng)

    first = rep(Rng(41))
    assert first.method == "conditional-mc" and first.fallback_reason is None
    assert rep(Rng(41)) == first
    assert rep(Rng(42)).fd_value != first.fd_value
    assert rep(Rng(41), 100_001).fd_value != first.fd_value


def test_verify_fd_n2_fallback_is_named():
    """Without H1 the closed form raises; the paired rays still measure
    the chamber, here the whole lens of disks 1 and 2."""
    a = sx.from_centers_radii(equilateral(side=1.8).centers, [1.0] * 3)
    rep = verify_variation_fd("euclidean", a, Chamber.from_string("--+"),
                              ("r", 1), eps=1e-3, samples=200_000,
                              rng=Rng(43))
    assert rep.method == "conditional-mc"
    assert rep.fallback_reason.startswith(
        "closed form unavailable: HypothesisError")
    lens = lens_variation_form(2, 1.0, 1.0, 1.8).get(("r", 1))
    assert abs(rep.fd_value - lens) <= 5.0 * rep.tolerance / 3.0


def test_verify_fd_unit_sphere_is_exact(tetra):
    """Exact areas from their boundary arcs: sigma 0, so the check
    resolves the central difference's O(eps^2) error and ignores samples
    and rng."""
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetra))
    form = dA_volume_form_theorem_III(m)
    for key in config_basis(3):
        rep = verify_variation_fd("unit-sphere", m, None, key, eps=3e-2)
        assert rep.method == "closed" and rep.fallback_reason is None
        assert rep.passed and rep.tolerance == 1e-4 * abs(form.get(key))
        again = verify_variation_fd("unit-sphere", m, None, key, eps=3e-2,
                                    samples=7, rng=Rng(44))
        assert again == rep
        # too coarse a step: the O(eps^2) error exceeds the tolerance
        assert not verify_variation_fd("unit-sphere", m, None, key,
                                       eps=0.3).passed


def test_verify_fd_unit_sphere_detects_a_shifted_coefficient(tetra,
                                                            monkeypatch):
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetra))
    true_form = variation.dA_volume_form_theorem_III

    for key in config_basis(3):
        def shifted(mx, key=key):
            form = true_form(mx).as_dict()
            form[key] *= 1.0 + 1e-3
            return OneForm.from_dict(config_basis(3), form)

        monkeypatch.setattr(variation, "dA_volume_form_theorem_III", shifted)
        assert not verify_variation_fd("unit-sphere", m, None, key,
                                       eps=3e-2).passed, key


def test_verify_fd_unit_sphere_step_below_area_accuracy(tetra):
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetra))
    with pytest.raises(FdNoiseError, match="areas' accuracy"):
        verify_variation_fd("unit-sphere", m, None, ("a", 1, 2), eps=1e-7)


def jittered_gap3(gen):
    """The regular tetrahedron of radius 0.89 jittered, with H1'."""
    base = tetrahedron(radius=0.89)
    while True:
        a = sx.from_centers_radii(
            base.centers + gen.normal(scale=0.03, size=(4, 3)),
            np.abs(0.89 + gen.normal(scale=0.01, size=4)))
        if sx.check_hypotheses(a, h2="skip").h1_prime is True:
            return a


def test_fd_coefficient_is_the_full_form_entry():
    """The FD measures only the faces that carry its parameter, and its
    coefficient is bit-identical to the full one-form's on the same
    stream, for every key, chamber type and n = 2, 3, 4."""
    gen = np.random.default_rng(71)
    cases = []
    # n = 3 faces are exact, so its samples only steady the paired rays
    for n, eps, samples in ((2, 1e-5, 2000), (3, 5e-2, 20_000)):
        for _ in range(2):
            a = random_h1(gen, n)
            cases += [(a, Chamber.all_minus(n), eps, samples),
                      (a, Chamber.from_string("-" * n + "+"), eps, samples)]
        gap = random_h1_prime(gen) if n == 2 else jittered_gap3(gen)
        cases.append((gap, Chamber.all_plus(n), eps, samples))
    cases.append((sx.from_centers_radii(regular_simplex4(), [1.0] * 5),
                  Chamber.all_minus(4), 5e-2, 2000))
    for a, c, eps, samples in cases:
        n = a.n
        rng = Rng(3, 7)
        full = dB_volume_form(a, c, samples, rng.substream(1))
        for key in param_basis(n):
            rep = verify_variation_fd("euclidean", a, c, key, eps, samples,
                                      rng)
            assert rep.formula_value == full.get(key), (n, c, key)


MINUS_CHAMBERS = ("---", "--+", "-+-", "+--", "-++", "+-+", "++-")


def reconstructed_fd(p, c, key, eps):
    """The n = 2 central difference of areas measured on coordinates: each
    perturbed vector reconstructed, then rebuilt from its centres and
    radii so that nothing is shared with the vector."""
    areas = []
    for x in (p.get(key) + eps, p.get(key) - eps):
        b = from_params(p.with_entry(key, x), 2)
        areas.append(chamber_area_closed_n2(
            sx.from_centers_radii(b.centers, b.radii), c))
    return (areas[0] - areas[1]) / (2.0 * eps)


def test_n2_fd_on_params_matches_arrangement_and_coordinates():
    """The n = 2 difference of closed areas on p +- eps: the same bits
    for an arrangement and for its parameter vector, and within 1e-9 of
    the difference of areas measured on reconstructed coordinates, in
    every minus chamber of H1 draws and in the gap of H1' draws."""
    gen = np.random.default_rng(515)
    cases = [(random_h1(gen), Chamber.from_string(s))
             for _ in range(3) for s in MINUS_CHAMBERS]
    cases += [(random_h1_prime(gen), Chamber.all_plus(2)) for _ in range(3)]
    for a, c in cases:
        p = params_of(a)
        for key in param_basis(2):
            rep = verify_variation_fd("euclidean", a, c, key, 1e-5)
            assert rep.method == "closed" and rep.passed, (c, key)
            assert verify_variation_fd("euclidean", p, c, key, 1e-5) == rep
            assert abs(rep.fd_value - reconstructed_fd(p, c, key, 1e-5)) \
                <= 1e-9, (c, key)


def test_n2_fd_falls_back_when_a_perturbation_breaks_h1():
    """Circles through nearly one point: H1 holds, but r_1^2 - eps drops
    circle 1 off the common point of the other two, so the closed form
    of that vector raises and the paired rays measure the difference."""
    a = equilateral(radius=0.8661)
    c = Chamber.from_string("--+")
    assert sx.check_hypotheses(a, h2="skip").h1 is True
    rep = verify_variation_fd("euclidean", a, c, ("r", 1), 1e-3, 200_000,
                              Rng(5))
    assert rep.method == "conditional-mc"
    assert rep.fallback_reason.startswith(
        "closed form unavailable: HypothesisError: H1 fails")
    assert rep.passed
    assert verify_variation_fd("euclidean", a, c, ("r", 1),
                               2e-4).method == "closed"


def test_fd_measures_only_the_faces_of_its_parameter(tetra, monkeypatch):
    """At n = 3 an r_j check measures one face (an exact area), a d_jk
    check one arc and two vertex counts."""
    calls = []
    faces = variation._faces

    def counted(a, c, streams, *args):
        calls.extend(streams)
        return faces(a, c, streams, *args)

    monkeypatch.setattr(variation, "_faces", counted)
    for key in param_basis(3):
        calls.clear()
        verify_variation_fd("euclidean", tetra, Chamber.all_minus(3), key,
                            1e-2, 2000, Rng(1))
        if key[0] == "r":
            assert calls == [(key[1],)]
        else:
            j, k = key[1:]
            assert calls == [(j, k)] + [tuple(sorted((j, k, m)))
                                        for m in (1, 2, 3, 4)
                                        if m not in (j, k)]


def test_fd_tolerance_counts_the_coefficient_error_n4():
    """At n = 4 the faces |J| = 1 are sampled, so the tolerance adds the
    coefficient's standard error to the paired rays'.  Every parameter's
    check on the regular 4-simplex passes on the streams of the rows of
    `sphex variation --seed 0..19`, and over those 300 checks the
    residual in units of its sigma (a third of the tolerance) has mean
    about 0 and spread about 1."""
    a = sx.from_centers_radii(regular_simplex4(), [1.0] * 5)
    c = Chamber.all_minus(4)
    z = []
    for seed in range(20):
        for i, key in enumerate(param_basis(4)):
            rep = verify_variation_fd("euclidean", a, c, key, 1e-2, 20_000,
                                      Rng(seed).substream(100 + i))
            assert rep.method == "conditional-mc"
            assert rep.passed, (seed, key, rep.residual, rep.tolerance)
            z.append((rep.fd_value - rep.formula_value) / rep.tolerance * 3)
    assert abs(np.mean(z)) < 0.3 and 0.75 < np.std(z) < 1.25


def test_fd_refuses_a_parameter_outside_its_basis(tri, tetra):
    """A key outside the model's basis is refused before any work: the
    Euclidean ("r", 0) used to read r_{n+1}^2 through index -1 and
    report a failed check."""
    for key in (("r", 0), ("r", 4), ("d", 0, 3), ("d", 2, 1), ("a0", 1)):
        with pytest.raises(KeyError):
            verify_variation_fd("euclidean", tri, Chamber.all_minus(2), key,
                                1e-5)
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetra))
    for key in (("a0", 0), ("a0", 4), ("a", 2, 1), ("a", 1, 1), ("r", 1)):
        with pytest.raises(KeyError):
            verify_variation_fd("unit-sphere", m, None, key, 3e-2)
