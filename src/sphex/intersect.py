"""Intersection spheres, vertex pairs, and angle quantities.

The intersection S_J of p spheres is generically an (n-p)-dimensional
sphere.  Its affine hull is cut out by the radical hyperplanes
f_j - f_k = 0 (affine since the quadratic terms cancel), which gives a
numerically benign linear system; the radius then comes from the
closed-form determinant quotient rather than from sampled geometry, so
the formula is the source of truth and geometry serves as a test
oracle.  B(0*J) with no sign (`CMTable.signed`) is a tangency, with the
wrong sign an empty S_J.  The vertices are the 0-sphere S_{N minus j},
labeled by the sign of f_j; B(0*N) with no sign puts one on sphere j.
`_plane_cuts`, one SVD per system of a stack, is the one plane solver:
S_J per size (`_sub_spheres`), unit-sphere faces, reach candidates.

Angles: psi_jk is the full opening angle of the arc of S_j inside
sphere k (it can exceed pi when O_k lies deep inside ball j); phi_j are
the center-triangle angles for n=2; the sphere angle <j,k> is the
intersection angle of two circles on the unit sphere in the restricted
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cayley_menger import CMTable, ConfigMatrix
from .errors import DegenerateConfigError, EmptyIntersectionError


@dataclass(frozen=True)
class SubSphere:
    """The sphere S_J: an (n-p)-sphere inside an (n-p+1)-dim affine hull.

    `basis` rows are an orthonormal frame of the hull's direction space
    (n-p+1 vectors); points of S_J are center + radius * unit vectors in
    that span.  For |J| = n the basis is a single line direction and
    S_J is the two-point set center +- radius * basis[0].
    """

    J: tuple
    center: np.ndarray
    radius: float
    basis: np.ndarray

    def point(self, direction) -> np.ndarray:
        """Map a nonzero coefficient vector to a point of S_J."""
        g = np.asarray(direction, float)
        g = g / np.linalg.norm(g)
        return self.center + self.radius * (g @ self.basis)


@dataclass(frozen=True)
class VertexPair:
    """The two points of S_{N minus j}, labeled by the sign of f_j.

    Under H1 the function 1/f_j is negative at P and positive at
    P_prime.
    """

    j: int
    P: np.ndarray
    P_prime: np.ndarray


def _plane_cuts(A, b):
    """(x0, R2, frame): where the planes A x = b of each system of a stack,
    A (S, p, n) and b (S, p) with p < n, cut the unit sphere, from one SVD
    each.  x0 = V diag(1/s) U^T b is the point of the planes nearest 0,
    R2 = 1 - |x0|^2 the squared radius of the cut (<= 0 if they miss the
    open ball), and the rows of frame an orthonormal basis of A's
    nullspace; p = 0 gives 0, 1 and the identity.  None if any system's
    rows are dependent: its smallest singular value is at most 1e-12 of
    its largest, whatever the scale of A."""
    U, s, Vt = np.linalg.svd(A)
    if (s[:, -1:] <= 1e-12 * s[:, :1]).any():
        return None
    p = s.shape[1]
    x0 = ((b[:, None, :] @ U) / s[:, None, :] @ Vt[:, :p])[:, 0]
    return x0, 1.0 - np.einsum("ij,ij->i", x0, x0), Vt[:, p:]


def intersection_sphere(a, J) -> SubSphere:
    """The sphere S_J = intersection of the spheres S_j, j in J.

    Center: the orthogonal projection of any O_j onto the affine hull
    (all members of J project to the same point).  Radius: the
    determinant quotient r_J^2 = -(1/2) B(0*J)/B(0 J).  The result is
    stored on the arrangement (its arrays read-only), so the faces of
    every chamber and check share one computation per index set.
    """
    return _sub_spheres(a, [tuple(sorted(J))])[0]


def _sub_spheres(a, Js) -> list:
    """`intersection_sphere` of each sorted J of one size in `Js`, those
    not stored yet from one `_plane_cuts` in the units y = (x - O) / r of
    sphere J[0], where f_k = f_J[0] reads 2 (O_k - O) . y =
    (|O_k - O|^2 + r^2 - r_k^2) / r, so the center is O + r y0."""
    new = [J for J in Js if ("sphere", J) not in a._store]
    if new:
        if not 1 <= len(new[0]) <= a.n:
            raise ValueError(f"|J| must be between 1 and n, got {len(new[0])}")
        table = CMTable.from_arrangement(a)
        radii = []
        for J in new:
            plain = table.signed(("0",) + J, EmptyIntersectionError,
                                 "centers of S_J")
            starred = table.signed(("0", "*") + J, EmptyIntersectionError,
                                   "radius of S_J")
            radii.append(math.sqrt(0.5 * starred / plain))
        idx = np.array(new) - 1
        O, r = a.centers[idx[:, 0]], a.radii[idx[:, 0], None]
        d = a.centers[idx[:, 1:]] - O[:, None, :]
        cuts = _plane_cuts(2.0 * d, ((d * d).sum(axis=2) + r * r
                                     - a.radii[idx[:, 1:]] ** 2) / r)
        if cuts is None:
            raise DegenerateConfigError(
                f"radical hyperplanes of one of {new} are linearly dependent")
        centers = O + r * cuts[0]
        centers.setflags(write=False)
        cuts[2].setflags(write=False)
        for J, c, R, frame in zip(new, centers, radii, cuts[2]):
            a._store.setdefault(("sphere", J), SubSphere(J, c, R, frame))
    return [a._store[("sphere", J)] for J in Js]


def vertices(a, j: int) -> VertexPair:
    """The two points of the intersection of all spheres except S_j.

    They are the 0-sphere S_{N minus j} of `intersection_sphere`,
    center -+ radius * basis[0], labeled so that f_j(P) <= f_j(P').
    TangencyError if they coincide, or if one lies on sphere j: then all
    spheres share a point, and B(0*N) has no sign (`CMTable.nonzero`).
    """
    from .arrangement import evaluate_f

    N = tuple(range(1, a.n + 2))
    s = intersection_sphere(a, [k for k in N if k != j])
    CMTable.from_arrangement(a).nonzero(("0", "*") + N,
                                        "vertices off sphere j")
    pts = s.center + np.array([[-s.radius], [s.radius]]) * s.basis[0]
    vals = evaluate_f(a, j, pts)
    lo = int(vals[1] < vals[0])
    return VertexPair(j, pts[lo], pts[1 - lo])


def angles_pair(a, j: int, k: int):
    """The opening angles (psi_jk, psi_kj) of the lens of spheres j, k.

    Defined through the sine/cosine determinant quotients; satisfies
    rho_jk = r_j cos(psi_jk/2) + r_k cos(psi_kj/2).  TangencyError if
    B(0*jk) has no sign, EmptyIntersectionError if it has the wrong one.
    """
    table = CMTable.from_arrangement(a)
    s = math.sqrt(table.signed(("0", "*", j, k), EmptyIntersectionError,
                               "angles of spheres j, k"))
    psi_jk = 2.0 * math.atan2(s, table.chain(("0", "*", j), ("0", k, j)))
    psi_kj = 2.0 * math.atan2(s, table.chain(("0", "*", k), ("0", j, k)))
    return psi_jk, psi_kj


def triangle_angles(a):
    """Angles (phi_1, phi_2, phi_3) of the center triangle, n = 2 only;
    IndeterminateSignError if B(0 1 2 3) has no sign (collinear centers),
    DegenerateConfigError if it has the wrong one."""
    if a.n != 2:
        raise ValueError("triangle angles are defined for n = 2")
    table = CMTable.from_arrangement(a)
    s = math.sqrt(table.signed(("0", 1, 2, 3), DegenerateConfigError,
                               "center triangle"))
    return tuple(math.atan2(s, table.chain(("0", k, j), ("0", l, j)))
                 for j, k, l in ((1, 2, 3), (2, 3, 1), (3, 1, 2)))


def sphere_angle(m: ConfigMatrix, j: int, k: int) -> float:
    """Intersection angle <j,k> of circles j and k on the unit sphere."""
    v = m.inner(j, k)
    if abs(v) > 1.0:
        raise EmptyIntersectionError(
            f"circles {j},{k} do not meet on the unit sphere")
    return math.acos(-v)


def _plane_sphere(m: ConfigMatrix, J):
    """(center, R, frame): the `_plane_cuts` of the unit sphere by the
    planes u_j . x + u_j0 = 0, j in J, of `m`, R = sqrt(R2).  None if
    the planes are dependent or meet outside the unit ball."""
    idx = [j - 1 for j in J]
    cuts = _plane_cuts(m.normals[idx][None], -m.offsets[idx][None])
    if cuts is None or cuts[1][0] <= 0.0:
        return None
    return cuts[0][0], math.sqrt(cuts[1][0]), cuts[2][0]


def sphere_circle(m: ConfigMatrix, j: int):
    """Center, radius and plane frame of circle j on the unit sphere.

    The circle is the slice of the plane u_j . x + u_{j0} = 0 with
    |u_j|^2 = 1 + u_{j0}^2, so its radius is 1/sqrt(1+u_{j0}^2): the
    `_plane_sphere` of (j,) by `_plane_cuts`, in whose frame (two in-plane
    directions at n = 3) `config_face_constraints` measures the face (j,).
    """
    return _plane_sphere(m, (j,))
