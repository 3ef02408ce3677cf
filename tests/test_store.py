"""Quantities stored on an arrangement or a parameter vector.

Each derived quantity is computed once per object and kept on it; a
stored result must equal that of a fresh object bit for bit, reports
stay private to each caller, and sampled results are never stored.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import sphex as sx
from sphex import arrangement, volume
from sphex.arrangement import Chamber, from_params, params_of
from sphex.cayley_menger import CMTable
from sphex.variation import param_basis
from sphex.volume import Rng, _simplex_rows
from conftest import (equilateral, random_h1, random_h1_prime,
                      regular_simplex4, tetrahedron)


@pytest.fixture
def built(monkeypatch):
    """Every `CMTable` built while the test runs."""
    tables = []
    original = CMTable.__post_init__

    def counting(self):
        tables.append(self)
        original(self)

    monkeypatch.setattr(CMTable, "__post_init__", counting)
    return tables


def test_fd_calls_share_one_reconstruction(built):
    a = equilateral()
    allm = Chamber.all_minus(2)
    reps = [sx.verify_variation_fd("euclidean", a, allm, key, 1e-5)
            for key in param_basis(2)]
    assert all(r.method == "closed" and r.passed for r in reps)
    # one table for the shared reconstruction, two per perturbed pair
    assert len(built) == 1 + 2 * len(reps)


def test_from_params_is_stored():
    p = params_of(equilateral())
    assert from_params(p, 2) is from_params(p, 2)
    with pytest.raises(ValueError):
        from_params(p, 3)


def test_from_params_records_its_vector():
    """A reconstruction's `params_of` is the vector it came from, so the
    two share one table and one store."""
    p = params_of(equilateral())
    b = from_params(p, 2)
    assert params_of(b) is p
    assert CMTable.from_arrangement(b) is CMTable.from_params(p)


def test_n2_fd_reconstructs_nothing(monkeypatch):
    """The n = 2 difference of closed areas reads squared parameters only:
    in the all-minus and a mixed chamber no parameter vector is turned
    back into coordinates."""
    calls = []
    original = arrangement._reconstruct

    def counting(p, n):
        calls.append(p)
        return original(p, n)

    monkeypatch.setattr(arrangement, "_reconstruct", counting)
    a = random_h1(np.random.default_rng(16))
    for c in (Chamber.from_string("---"), Chamber.from_string("-++")):
        for key in param_basis(2):
            rep = sx.verify_variation_fd("euclidean", a, c, key, 1e-5)
            assert rep.method == "closed" and rep.passed, (c, key)
    assert calls == []


def test_gap_area_computed_once(monkeypatch):
    calls = []
    original = volume._area_n2

    def counting(a, c):
        calls.append(str(c))
        return original(a, c)

    monkeypatch.setattr(volume, "_area_n2", counting)
    a = random_h1_prime(np.random.default_rng(8))
    allp = Chamber.all_plus(2)
    area = sx.chamber_volume(a, allp).value
    thm = sx.check_theorem_II_i(a)
    dec = sx.check_decomposition(a)
    assert calls == ["+++"]
    assert thm.lhs == 2 * area and dict(dec.terms)["gap"] == area
    assert thm.passed and dec.passed


def _answers(a):
    """Everything the store keeps for an n = 2 arrangement, as plain data."""
    h = sx.check_hypotheses(a)
    out = [h.h1, h.h1_prime, h.h2,
           [dataclasses.astuple(r) for r in h.table],
           [x.tolist() for x in _simplex_rows(a)],
           [(s.center.tolist(), s.radius, s.basis.tolist())
            for s in (sx.intersection_sphere(a, J)
                      for J in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3)))]]
    chambers = [Chamber(s) for s in itertools.product((-1, 1), repeat=3)]
    for c in chambers:
        out.append(dataclasses.astuple(sx.chamber_volume(a, c, 1000, Rng(1))))
        for J in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
            out.append(dataclasses.astuple(sx.face_volume(a, c, J)))
    out.append(sx.dB_volume_form(a, chambers[0]).coeffs)
    if h.h1:
        out.append(sx.check_theorem_I_i(a).to_dict())
    else:
        out += [sx.check_theorem_II_i(a).to_dict(),
                sx.check_decomposition(a).to_dict()]
    return out


def test_stored_results_equal_fresh_ones():
    gen = np.random.default_rng(909)
    draws = [random_h1(gen) for _ in range(4)]
    draws += [random_h1_prime(gen) for _ in range(4)]
    for a in draws:
        first = _answers(a)
        assert _answers(a) == first            # from the store
        fresh = sx.from_centers_radii(a.centers, a.radii)
        assert _answers(fresh) == first        # recomputed


def test_reports_stay_private():
    a = equilateral()
    rep = sx.check_hypotheses(a)
    rep.h1 = None
    rep.table.clear()
    rep.h2_details.clear()
    again = sx.check_hypotheses(a)
    assert again.h1 is True and again.h2 is True
    assert len(again.table) == 7 and len(again.h2_details) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        again.table[0].plain = 0.0


def test_sampled_volumes_are_not_stored():
    a = tetrahedron()
    allm = Chamber.all_minus(3)
    one = sx.chamber_volume(a, allm, 2000, Rng(1))
    two = sx.chamber_volume(a, allm, 2000, Rng(2))
    assert one.method == two.method == "conditional-mc"
    assert one.value != two.value
    assert sx.chamber_volume(a, allm, 2000, Rng(1)) == one


def test_exact_faces_are_stored_and_sampled_faces_are_not():
    """Every face of dimension m <= 2 is exact, so it is stored; an
    m = 3 face is sampled and is not."""
    a = tetrahedron()
    allm = Chamber.all_minus(3)
    for p in (1, 2, 3):
        for J in itertools.combinations(range(1, 5), p):
            face = sx.face_volume(a, allm, J)
            assert face.exact and sx.face_volume(a, allm, J) is face, J
    b = sx.from_centers_radii(regular_simplex4(), [1.0] * 5)
    face = sx.face_volume(b, Chamber.all_minus(4), (1,), 2000, Rng(1))
    assert face.method == "conditional-mc"
    assert sx.face_volume(b, Chamber.all_minus(4), (1,), 2000, Rng(2)) != face
