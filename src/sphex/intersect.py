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
One SVD (`_plane_solve`) solves the radical hyperplanes of S_J and the
planes of the unit-sphere model.

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

from .cayley_menger import CMTable, ConfigMatrix, _stored
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


def _plane_solve(A, b):
    """(x0, frame) of the solutions x0 + t @ frame of A x = b, from one
    SVD: x0 = V diag(1/s) U^T b is the minimum-norm solution and the rows
    of `frame` are an orthonormal basis of A's nullspace.  A has fewer
    rows than columns; none gives x0 = 0 and the identity frame.  None
    when the rows are dependent: the smallest singular value is at most
    1e-12 of the largest, whatever the scale of A.  A stack of systems,
    A (S, p, n) and b (S, p) with p >= 1, is solved in one call, one SVD
    each, and is None if any one is dependent."""
    U, s, Vt = np.linalg.svd(A)
    if A.ndim == 2:
        if s.size and s[-1] <= 1e-12 * s[0]:
            return None
        return (U.T @ b / s) @ Vt[:s.size], Vt[s.size:]
    if (s[:, -1] <= 1e-12 * s[:, 0]).any():
        return None
    p = s.shape[1]
    x0 = (b[:, None, :] @ U) / s[:, None, :]
    return (x0 @ Vt[:, :p])[:, 0], Vt[:, p:]


def intersection_sphere(a, J) -> SubSphere:
    """The sphere S_J = intersection of the spheres S_j, j in J.

    Center: the orthogonal projection of any O_j onto the affine hull
    (all members of J project to the same point).  Radius: the
    determinant quotient r_J^2 = -(1/2) B(0*J)/B(0 J).  The result is
    stored on the arrangement (its arrays read-only), so the faces of
    every chamber and check share one computation per index set.
    """
    J = tuple(sorted(J))
    return _stored(a, ("sphere", J), lambda: _sub_sphere(a, J))


def _sub_sphere(a, J) -> SubSphere:
    p = len(J)
    if not 1 <= p <= a.n:
        raise ValueError(f"|J| must be between 1 and n, got {p}")
    table = CMTable.from_arrangement(a)
    plain = table.signed(("0",) + J, EmptyIntersectionError,
                         "centers of S_J")
    starred = table.signed(("0", "*") + J, EmptyIntersectionError,
                           "radius of S_J")
    # the radical hyperplanes f_k - f_J[0] = 0, k in J[1:]; none if p = 1
    c0 = a.center(J[0])
    q = [a.center(k) @ a.center(k) - a.radius(k) ** 2 for k in J]
    solved = _plane_solve(2.0 * (a.centers[[k - 1 for k in J[1:]]] - c0),
                          np.array(q[1:]) - q[0])
    if solved is None:
        raise DegenerateConfigError(
            f"radical hyperplanes of {J} are linearly dependent")
    x0, frame = solved
    center = x0 + ((c0 - x0) @ frame.T) @ frame
    center.setflags(write=False)
    frame.setflags(write=False)
    return SubSphere(J, center, math.sqrt(0.5 * starred / plain), frame)


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
    """(center, R, frame) of the sphere in which the planes
    u_j . x + u_j0 = 0, j in J, of `m` meet the unit sphere: center is
    the point of their intersection nearest the origin, R =
    sqrt(1 - |center|^2), and the rows of `frame` are an orthonormal
    basis of the directions the planes share (`_plane_solve`).  None if
    the planes are dependent or meet outside the unit ball."""
    idx = [j - 1 for j in J]
    solved = _plane_solve(m.normals[idx], -m.offsets[idx])
    if solved is None:
        return None
    center, frame = solved
    R2 = 1.0 - center @ center
    return None if R2 <= 0.0 else (center, math.sqrt(R2), frame)


def sphere_circle(m: ConfigMatrix, j: int):
    """Center, radius and plane frame of circle j on the unit sphere.

    The circle is the slice of the plane u_j . x + u_{j0} = 0 with
    |u_j|^2 = 1 + u_{j0}^2, so its radius is 1/sqrt(1+u_{j0}^2): the
    `_plane_sphere` of (j,), in whose frame (two in-plane directions at
    n = 3) `config_face_constraints` measures the face (j,).
    """
    return _plane_sphere(m, (j,))
