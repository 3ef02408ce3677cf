"""End-to-end verification battery.

One test per headline guarantee, each printing a single PASS line in
verbose runs and enforcing the stated tolerance and, where given, a
wall-clock budget.  Monte Carlo comparisons use 3x the propagated
standard error; closed-form comparisons use fixed absolute or relative
bounds.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import sphex as sx
from sphex import cli
from sphex.arrangement import Chamber, arrangement_to_json, params_of
from sphex.cayley_menger import CMTable
from sphex.errors import DegenerateConfigError
from sphex.identities import (
    check_decomposition,
    check_lemma5_pointwise,
    check_prop4_residue,
    check_prop6_values,
    check_theorem_I_i,
    check_theorem_II_i,
)
from sphex.variation import (
    config_basis,
    dA_volume_form_n3,
    dA_volume_form_theorem_III,
    dpsi_form,
    param_basis,
    theta,
    verify_variation_fd,
)
from sphex.volume import (
    Rng,
    chamber_volume_mc,
    lens_volume_closed,
)
from conftest import (
    embedded_lens,
    equilateral,
    gap_fixture,
    indicator_decomposition,
    indicator_volume_identity,
    random_h1,
    tetrahedron,
)

from test_intersect import two_unit_circles  # noqa: F401  (fixture source)
from test_variation import gb_closed_area, perturbed_entries
from test_volume import printed_lens


def elapsed_under(t0, budget, label):
    dt = time.monotonic() - t0
    assert dt < budget, f"{label} took {dt:.1f}s, budget {budget}s"


def test_criterion_01_lens_closed_and_mc():
    t0 = time.monotonic()
    gen = np.random.default_rng(101)
    for n in (2, 3, 4):
        for _ in range(20):
            r1, r2 = gen.uniform(0.5, 2.0, size=2)
            rho = gen.uniform(abs(r1 - r2) + 0.05, r1 + r2 - 0.05)
            general = lens_volume_closed(n, r1, r2, rho)
            if n == 4:
                continue
            special = printed_lens(n, r1, r2, rho)
            assert abs(general - special) <= 1e-12 * max(1.0, general)
    for n in (2, 3):
        a = embedded_lens(n)
        est = chamber_volume_mc(a, Chamber.all_minus(n), 1_000_000, Rng(1))
        want = lens_volume_closed(n, 1.0, 1.0, 1.0)
        assert abs(est.value - want) <= 3 * est.std_error, n
    elapsed_under(t0, 5.0, "lens volumes")


def test_criterion_02_volume_identity_closed_n2():
    t0 = time.monotonic()
    gen = np.random.default_rng(102)
    for i in range(100):
        a = random_h1(gen, 2)
        rep = check_theorem_I_i(a)
        assert rep.passed and rep.residual <= 1e-9, (i, rep.residual)
    elapsed_under(t0, 10.0, "100 closed identity checks")


def test_criterion_03_volume_identity_mc_n3():
    t0 = time.monotonic()
    rep = check_theorem_I_i(tetrahedron(), samples=10_000_000, rng=Rng(2))
    assert rep.passed, (rep.residual, rep.tolerance)
    elapsed_under(t0, 60.0, "n=3 identity at 1e7 samples")


def test_criterion_04_variational_fd():
    tri = equilateral()
    for key in param_basis(2):
        rep = verify_variation_fd("euclidean", tri, Chamber.all_minus(2),
                                  key, eps=1e-5)
        assert rep.passed and rep.tolerance == 1e-6, key
    tetra = tetrahedron()
    for key in (("r", 1), ("d", 1, 2)):
        rep = verify_variation_fd("euclidean", tetra, Chamber.all_minus(3),
                                  key, eps=1e-2, samples=2_000_000,
                                  rng=Rng(3))
        assert rep.passed, (key, rep.residual, rep.tolerance)


def test_criterion_05_gap_identity_and_decomposition():
    gap = gap_fixture()
    closed = check_decomposition(gap)
    assert closed.passed and closed.residual <= 1e-9
    mc = indicator_decomposition(gap, 500_000, Rng(4))
    assert mc.passed, (mc.residual, mc.tolerance)
    ident = check_theorem_II_i(gap)
    assert ident.passed and ident.residual <= 1e-9
    ident_mc = indicator_volume_identity(gap, Chamber.all_plus(2), 500_000,
                                         Rng(5))
    assert ident_mc.passed, (ident_mc.residual, ident_mc.tolerance)


def test_criterion_06_restricted_variational_form():
    m = sx.config_matrix(sx.restrict_to_unit_sphere(tetrahedron()))
    form = dA_volume_form_theorem_III(m)
    eps = 1e-6
    for key in config_basis(3):
        fd = (gb_closed_area(perturbed_entries(m, key, eps))
              - gb_closed_area(perturbed_entries(m, key, -eps))) \
            / (2.0 * eps)
        assert abs(form.get(key) - fd) <= 1e-6 * max(1.0, abs(fd)), key
    rep = verify_variation_fd("unit-sphere", m, None, ("a", 1, 2), eps=1e-2,
                              samples=1_000_000, rng=Rng(6))
    assert rep.passed, (rep.residual, rep.tolerance)
    explicit = dA_volume_form_n3(m)
    for key in config_basis(3):
        assert abs(form.get(key) - explicit.get(key)) <= \
            1e-6 * max(1.0, abs(form.get(key))), key


def test_criterion_07_pointwise_form_identity():
    t0 = time.monotonic()
    gen = np.random.default_rng(107)
    done = 0
    while done < 100:
        n = 2 if done % 2 == 0 else 3
        a = random_h1(gen, n)
        scale = max(1.0, float(np.max(a.radii)) ** 2)
        for _ in range(50):
            x = a.centers.mean(axis=0) + gen.normal(scale=1.5, size=n)
            near = min(abs(sx.evaluate_f(a, j, x))
                       for j in range(1, n + 2))
            if near > 1e-6 * scale:
                break
        else:
            continue
        rep = check_lemma5_pointwise(a, x)
        assert rep.passed, (done, rep.residual)
        assert rep.residual <= 1e-9 * max(1.0, abs(rep.lhs))
        done += 1
    elapsed_under(t0, 5.0, "100 pointwise identity checks")


def test_criterion_08_face_form_constancy():
    gen = np.random.default_rng(108)
    for n in (2, 3):
        a = random_h1(gen, n)
        for p in range(1, n + 1):
            for J in itertools.combinations(range(1, n + 2), p):
                rep = check_prop4_residue(a, J, trials=20, rng=Rng(7))
                assert rep.passed, (n, J, rep.residual)


def test_criterion_09_vertex_value_formulas():
    gen = np.random.default_rng(109)
    for i in range(50):
        a = random_h1(gen, 2)
        for j in (1, 2, 3):
            rep = check_prop6_values(a, j)
            assert rep.passed and rep.residual <= 1e-9, (i, j)


def test_criterion_10_full_form_printed_expansion():
    gen = np.random.default_rng(110)
    for i in range(50):
        a = random_h1(gen, 2)
        t = CMTable.from_arrangement(a)
        form = theta(a, (1, 2, 3))
        B = t.chain(("0", 1, 2, 3), ("0", 1, 2, 3))
        for j, k in ((1, 2), (1, 3), (2, 3)):
            (l,) = (m for m in (1, 2, 3) if m not in (j, k))
            mixed = t.chain(("0", "*", j, k), ("0", l, j, k))
            want = -mixed / B / (2.0 * a.distance(j, k) ** 2)
            got = form.get(("d", j, k))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (i, j, k)


def test_criterion_11_half_angle_form_fd():
    from sphex.arrangement import from_params
    from sphex.intersect import angles_pair

    eps = 1e-5
    for radii in ((1.0, 1.0, 1.0), (0.8, 1.3, 1.0)):
        a = sx.from_centers_radii([[0, 0], [1, 0], [0.4, 6.0]], radii)
        p = params_of(a)
        form = dpsi_form(a, 1, 2)
        for key in (("r", 1), ("r", 2), ("d", 1, 2)):
            up = from_params(p.with_entry(key, p.get(key) + eps), 2)
            dn = from_params(p.with_entry(key, p.get(key) - eps), 2)
            fd = (angles_pair(up, 1, 2)[0] - angles_pair(dn, 1, 2)[0]) \
                / (4.0 * eps)
            assert abs(form.get(key) - fd) <= 1e-8, (radii, key)


def test_criterion_12_cli_byte_determinism(tmp_path, capsys):
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps(arrangement_to_json(tetrahedron())))
    outs = []
    for fmt in ("json", "csv"):
        pair = []
        for _ in range(2):
            code = cli.main(["volume", "--input", str(path),
                             "--chamber", "----", "--samples", "50000",
                             "--seed", "9", "--format", fmt])
            assert code == 0
            pair.append(capsys.readouterr().out)
        assert pair[0] == pair[1], fmt
        outs.append(pair[0])
    assert outs[0] != outs[1]  # formats genuinely differ
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (f1, f2):
        code = cli.main(["identity", "--input", str(path),
                         "--which", "gaussbonnet", "--out", str(dest)])
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
