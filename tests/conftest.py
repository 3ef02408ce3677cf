"""Shared fixtures: the reference arrangements used across the suite,
and the indicator-MC oracles of the volume identities."""

import itertools
import math

import numpy as np
import pytest

import sphex as sx
from sphex.identities import _label, _report, _tolerance

SIDE = 1.5


def equilateral(radius: float = 1.0, side: float = SIDE):
    c = np.array([
        [0.0, 0.0],
        [side, 0.0],
        [side / 2.0, side * math.sqrt(3.0) / 2.0],
    ])
    return sx.from_centers_radii(c, [radius] * 3)


def tetrahedron(radius: float = 1.0, side: float = SIDE):
    c = np.array([
        [0.0, 0.0, 0.0],
        [side, 0.0, 0.0],
        [side / 2.0, side * math.sqrt(3.0) / 2.0, 0.0],
        [side / 2.0, side / (2.0 * math.sqrt(3.0)),
         side * math.sqrt(2.0 / 3.0)],
    ])
    return sx.from_centers_radii(c, [radius] * 4)


def lens_trio():
    """Two unit circles at distance 1 plus a third that shaves a sliver.

    The chamber (-,-,+) of this arrangement is the classical lens minus
    a small curved triangle; H1 and H2 hold, so every closed form
    applies.
    """
    c = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -1.5]])
    return sx.from_centers_radii(c, [1.0, 1.0, 0.65])


def embedded_lens(n: int = 2):
    """Two unit spheres at distance 1, the rest huge so the all-minus
    chamber is exactly the lens."""
    if n == 2:
        c = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
        return sx.from_centers_radii(c, [1.0, 1.0, 4.0])
    c = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, 0.0, 0.0],
        [0.5, 0.1, 0.0],
    ])
    return sx.from_centers_radii(c, [1.0, 1.0, 4.0, 4.0])


def gap_fixture(radius: float = 0.8):
    """Equilateral centers whose disks leave a curved triangle uncovered
    in the middle; satisfies H1' so the all-plus chamber is a bounded
    pseudo-simplex."""
    return equilateral(radius=radius)


def jitter_arrangement(gen, n: int = 2, center_scale: float = 0.12,
                       radius_scale: float = 0.08):
    base = equilateral() if n == 2 else tetrahedron()
    c = base.centers + gen.normal(scale=center_scale, size=base.centers.shape)
    r = np.abs(1.0 + gen.normal(scale=radius_scale, size=n + 1))
    return sx.from_centers_radii(c, r)


def random_h1(gen, n: int = 2, tries: int = 300):
    for _ in range(tries):
        try:
            a = jitter_arrangement(gen, n)
        except ValueError:
            continue
        h = sx.check_hypotheses(a, h2="skip")
        if h.h1 is True:
            return a
    raise RuntimeError("failed to draw an H1 arrangement")


def random_h1_prime(gen, tries: int = 300):
    for _ in range(tries):
        base = gap_fixture()
        c = base.centers + gen.normal(scale=0.05, size=base.centers.shape)
        r = np.abs(0.8 + gen.normal(scale=0.03, size=3))
        try:
            a = sx.from_centers_radii(c, r)
        except ValueError:
            continue
        h = sx.check_hypotheses(a, h2="skip")
        if h.h1_prime is True:
            return a
    raise RuntimeError("failed to draw an H1' arrangement")


def indicator_volume_identity(a, c, samples, rng):
    """The volume identity of chamber c (theorem I, or II if all-plus)
    with every volume from the indicator estimators.

    Terms, substreams and tolerance are those of `check_theorem_I_i` /
    `check_theorem_II_i`, so the report differs from the library's only
    in how the volumes were measured: an oracle independent of the rays
    and of the face kernel.
    """
    coefs, final = sx.volume_identity_coefficients(
        sx.CMTable.from_arrangement(a), a.n, c)
    Js = sorted(coefs, key=lambda t: (len(t), t))
    weighted = [(a.n, sx.chamber_volume_mc(a, c, samples, rng.substream(0),
                                           bounding="simplex"))]
    weighted += [(coefs[J], sx.face_volume_mc(a, c, J, samples,
                                              rng.substream(s),
                                              bounding="simplex"))
                 for s, J in enumerate(Js, 1)]
    terms = [(_label(J), w * v.value) for J, (w, v) in zip(Js, weighted[1:])]
    name = "theorem_I_i" if c.minus_set() else "theorem_II_i"
    return _report(name, a.n * weighted[0][1].value,
                   terms + [("simplex", final)], _tolerance(weighted))


def indicator_decomposition(a, samples, rng):
    """`check_decomposition` with every volume from the indicator
    estimators, on the same substreams."""
    c = sx.Chamber.all_plus(a.n)
    Js = [J for p in range(1, a.n + 1)
          for J in itertools.combinations(range(1, a.n + 2), p)]
    weighted = [(sx.decomposition_cell_coefficient(a, J),
                 sx.face_volume_mc(a, c, J, samples, rng.substream(s),
                                   bounding="simplex"))
                for s, J in enumerate(Js)]
    weighted.append((1.0, sx.chamber_volume_mc(
        a, c, samples, rng.substream(len(Js)), bounding="simplex")))
    terms = [("cell_" + _label(J), w * v.value)
             for J, (w, v) in zip(Js, weighted)]
    terms.append(("gap", weighted[-1][1].value))
    return _report("decomposition", sx.simplex_volume(a), terms,
                   _tolerance(weighted))


@pytest.fixture
def tri():
    return equilateral()


@pytest.fixture
def tetra():
    return tetrahedron()


@pytest.fixture
def gap():
    return gap_fixture()


@pytest.fixture
def lens3():
    return lens_trio()
