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
from sphex import arrangement, cayley_menger, variation, volume
from sphex.arrangement import Chamber, ParamVector, from_params, params_of
from sphex.cayley_menger import CMTable
from sphex.errors import SphexError
from sphex.variation import _theta_dict, param_basis
from sphex.volume import Rng, _simplex_rows
from conftest import (equilateral, gap_fixture, random_h1, random_h1_prime,
                      regular_simplex4, tetrahedron)
from test_variation import jittered_gap3


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
    # the arrangement's own table, plus one per perturbed vector (built
    # on first use, even where it takes its chains from the parent's)
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
    in the all-minus and a mixed chamber of an H1 draw, and in the gap of
    the regular gap triangle, no parameter vector is turned back into
    coordinates."""
    calls = []
    original = arrangement._reconstruct

    def counting(p, n):
        calls.append(p)
        return original(p, n)

    monkeypatch.setattr(arrangement, "_reconstruct", counting)
    h1, gap = random_h1(np.random.default_rng(16)), gap_fixture()
    for a, c in ((h1, "---"), (h1, "-++"), (gap, "+++")):
        for key in param_basis(2):
            rep = sx.verify_variation_fd("euclidean", a,
                                         Chamber.from_string(c), key, 1e-5)
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
    # the form of a chamber whose hypothesis holds: all-minus under H1,
    # the gap under H1'
    out.append(sx.dB_volume_form(a, chambers[0 if h.h1 else -1]).coeffs)
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


# -- vectors made by `with_entry` share their parent's determinants ---------


def _table_reads(x):
    """Everything computed on `x` from its determinant table, as a repr
    (bit for bit; an error as its type): the sign table, and at n = 2 the
    angles and every chamber's closed area, and each theta_J, |J| >= 3."""
    out = [dataclasses.astuple(r)
           for r in sx.check_hypotheses(x, h2="skip").table]
    calls = [lambda J=J: _theta_dict(CMTable.from_params(x), x, J,
                                     param_basis(x.n))
             for p in range(3, x.n + 2)
             for J in itertools.combinations(range(1, x.n + 2), p)]
    if x.n == 2:
        calls += [lambda: volume._pair_data(x)]
        calls += [lambda c=c: volume.chamber_area_closed_n2(x, Chamber(c))
                  for c in itertools.product((-1, 1), repeat=3)]
    for call in calls:
        try:
            out.append(call())
        except SphexError as e:
            out.append(type(e).__name__)
    return repr(out)


def _bits(x):
    table = CMTable.from_params(x)
    return ({key: v.hex() for key, v in table._raw.items()},
            set(table.pivot_warnings))


def _assert_like_fresh(q):
    fresh = ParamVector(q.n, q.radii_sq, q.dist_sq)
    assert fresh._parent is None
    assert _table_reads(q) == _table_reads(fresh)
    assert _bits(q) == _bits(fresh)


def _reads(key, pair):
    rows, cols = key
    x, y = pair
    return x in rows and y in cols or y in rows and x in cols


@pytest.fixture
def factored(monkeypatch):
    """(table, chain) of every `_det_lu` call while the test runs."""
    seen, stack = [], []
    miss, det_lu = CMTable._miss, cayley_menger._det_lu

    def recording_miss(self, key):
        stack.append((self, key))
        try:
            return miss(self, key)
        finally:
            stack.pop()

    def recording_det_lu(M):
        seen.append(stack[-1])
        return det_lu(M)

    monkeypatch.setattr(CMTable, "_miss", recording_miss)
    monkeypatch.setattr(cayley_menger, "_det_lu", recording_det_lu)
    return seen


def _draws():
    gen = np.random.default_rng(1616)
    return ([random_h1(gen) for _ in range(2)]
            + [random_h1_prime(gen) for _ in range(2)]
            + [random_h1(gen, 3), jittered_gap3(gen)])


def test_derived_tables_equal_fresh_ones(factored):
    """For every basis key, a `with_entry` vector's determinants, pivot
    flags and everything read from them equal a fresh vector's bit for
    bit, and its own table factors only chains that read the changed
    entry."""
    forwarded = total = 0
    for a in _draws():
        p = params_of(a)
        for key in param_basis(p.n):
            for step in (1e-5, -1e-3):
                q = p.with_entry(key, p.get(key) * (1.0 + step))
                _assert_like_fresh(q)
                table = CMTable.from_params(q)
                total += 1
                forwarded += table._base is not None
                if table._base is not None:
                    pair = table._base[1:]
                    assert pair == q._parent[1:]
                    mine = [k for t, k in factored if t is table]
                    assert mine and all(_reads(k, pair) for k in mine)
                    assert len(mine) < len(table._raw)
    assert forwarded >= 0.9 * total


def test_step_across_a_power_of_two_forwards_nothing(factored):
    """Moving the largest squared length into the next binade changes
    every scaled entry: the derived table factors all its chains."""
    for a in _draws():
        p = params_of(a)
        unit = CMTable.from_params(p)._unit
        key = max(param_basis(p.n), key=p.get)
        q = p.with_entry(key, 1.5 * unit)
        assert CMTable.from_params(q)._unit == 2 * unit
        _assert_like_fresh(q)
        table = CMTable.from_params(q)
        assert table._base is None
        assert sum(t is table for t, _ in factored) == len(table._raw)


def test_derived_table_copies_pivot_flags(factored):
    """A chain whose LU meets a degraded pivot is taken from the parent
    with its flag."""
    # centers 1e-7 apart: B(0 1 2) = 2 rho_12^2 ~ 2e-14, a degraded pivot
    c = np.array([[0.0, 0.0], [1e-7, 0.0], [0.5, 1.0]])
    p = params_of(sx.from_centers_radii(c, [1.0, 1.0, 1.0]))
    q = p.with_entry(("r", 3), 1.01)
    _assert_like_fresh(q)
    table = CMTable.from_params(q)
    chain = (("0", 1, 2), ("0", 1, 2))
    assert table._base is not None and chain in table.pivot_warnings
    assert not any(t is table and k == chain for t, k in factored)


def test_vector_derived_from_a_derived_vector():
    for a in _draws():
        p = params_of(a)
        keys = param_basis(p.n)
        for k1, k2 in ((keys[0], keys[-1]), (keys[-1], keys[-1])):
            q1 = p.with_entry(k1, p.get(k1) * (1 + 1e-4))
            q2 = q1.with_entry(k2, q1.get(k2) * (1 - 1e-4))
            assert q2._parent[0] is q1 and q1._parent[0] is p
            _assert_like_fresh(q2)


def test_n2_fd_reads_no_hypothesis_report(monkeypatch):
    """`require_hypothesis` reads the stored verdicts: an n = 2 FD builds
    no `HypothesisReport`."""
    def forbidden(*args, **kwargs):
        raise AssertionError("check_hypotheses called")

    gen = np.random.default_rng(17)
    a, g = random_h1(gen), random_h1_prime(gen)
    monkeypatch.setattr(arrangement, "check_hypotheses", forbidden)
    for x, c in ((a, "---"), (a, "-++"), (g, "+++")):
        for key in param_basis(2):
            rep = sx.verify_variation_fd("euclidean", x, Chamber.from_string(c),
                                         key, 1e-5)
            assert rep.method == "closed" and rep.passed, (c, key)


def test_certified_fd_sweep_factors_no_sign_table_chain(factored):
    """An n = 2 FD sweep certifies each perturbed vector's hypothesis from
    its parent's sign table, so the perturbed vectors' tables factor no
    chain that only the sign table reads: B(0 j), B(0*j), B(0 jk) and
    B(0*123).  (B(0*jk) and B(0 123) feed the angles and the area.)"""
    sign_only = [("0", j) for j in (1, 2, 3)]
    sign_only += [("0", "*", j) for j in (1, 2, 3)]
    sign_only += [("0", j, k) for j, k in ((1, 2), (1, 3), (2, 3))]
    sign_only = {(c, c) for c in sign_only + [("0", "*", 1, 2, 3)]}
    gen = np.random.default_rng(2324)
    cases = [(random_h1(gen), "---"), (random_h1(gen), "-++"),
             (random_h1_prime(gen), "+++")]
    for a, c in cases:
        parent = CMTable.from_arrangement(a)
        factored.clear()
        for key in param_basis(2):
            rep = sx.verify_variation_fd("euclidean", a,
                                         Chamber.from_string(c), key, 1e-5)
            assert rep.method == "closed" and rep.passed, (c, key)
        derived = [k for t, k in factored if t is not parent]
        assert derived and not sign_only & set(derived), c


def test_n2_fd_sweep_assembles_one_stored_form(monkeypatch):
    """At n = 2 every key's FD reads one full-basis one-form, stored on the
    arrangement: a six-key sweep assembles it once, and each coefficient
    equals `dB_volume_form`'s and the per-key assembly's bit for bit, in
    every chamber, the gap included."""
    assemblies = []
    original = variation.volume_identity_coefficients

    def counting(*args):
        assemblies.append(args)
        return original(*args)

    monkeypatch.setattr(variation, "volume_identity_coefficients", counting)
    gen = np.random.default_rng(2325)
    h1 = random_h1(gen)
    cases = [(h1, Chamber(s)) for s in itertools.product((-1, 1), repeat=3)
             if -1 in s]
    cases.append((random_h1_prime(gen), Chamber.all_plus(2)))
    for a, c in cases:
        assemblies.clear()
        reps = [sx.verify_variation_fd("euclidean", a, c, key, 1e-5)
                for key in param_basis(2)]
        assert len(assemblies) == 1, c
        full = sx.dB_volume_form(a, c)
        assert len(assemblies) == 1, c
        for key, rep in zip(param_basis(2), reps):
            single = variation._dB_form(a, c, (key,), 1000, Rng(0))[0]
            assert (rep.formula_value.hex() == full.get(key).hex()
                    == single.get(key).hex()), (c, key)
