"""Intersection spheres, vertex pairs, and angle quantities.

The intersection S_J of p spheres is generically an (n-p)-dimensional
sphere.  Its affine hull is cut out by the radical hyperplanes
f_j - f_k = 0 (affine since the quadratic terms cancel), which gives a
numerically benign linear system; the radius then comes from the
closed-form determinant quotient rather than from sampled geometry, so
the formula is the source of truth and geometry serves as a test
oracle.

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

from .cayley_menger import CMTable, ConfigMatrix, _stored, hadamard_scale
from .errors import (
    DegenerateConfigError,
    EmptyIntersectionError,
    TangencyError,
)


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


def _radical_system(a, J):
    """Rows of the linear system cutting out the affine hull of S_J."""
    j0 = J[0]
    A = np.empty((len(J) - 1, a.n))
    b = np.empty(len(J) - 1)
    c0 = a.center(j0)
    n0 = c0 @ c0 - a.radius(j0) ** 2
    for i, k in enumerate(J[1:]):
        ck = a.center(k)
        A[i] = 2.0 * (ck - c0)
        b[i] = (ck @ ck - a.radius(k) ** 2) - n0
    return A, b


def _hull(a, J):
    """Particular point and orthonormal nullspace frame of the hull."""
    n = a.n
    if len(J) == 1:
        return np.array(a.center(J[0])), np.eye(n)
    A, b = _radical_system(a, J)
    U, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-12 * s[0]))
    if rank < len(J) - 1:
        raise DegenerateConfigError(
            f"radical hyperplanes of {J} are linearly dependent")
    # the minimum-norm solution V diag(1/s) U^T b (A has full row rank)
    return (U.T @ b / s) @ Vt[:rank], Vt[rank:]


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
    plain = table.chain(("0",) + J, ("0",) + J)
    starred = table.chain(("0", "*") + J, ("0", "*") + J)
    tol_p = 1e-12 * hadamard_scale(table, p + 1)
    if abs(plain) < tol_p:
        raise DegenerateConfigError(
            f"degenerate sphere centers for {J}: B(0 J) ~ 0")
    r_sq = -0.5 * starred / plain
    if (-1) ** p * plain < 0 or r_sq < 0:
        raise EmptyIntersectionError(
            f"spheres {J} have empty real intersection")
    x0, frame = _hull(a, J)
    d = a.center(J[0]) - x0
    center = x0 + (d @ frame.T) @ frame
    center.setflags(write=False)
    frame.setflags(write=False)
    return SubSphere(J, center, math.sqrt(r_sq), frame)


def vertices(a, j: int) -> VertexPair:
    """The two points of the intersection of all spheres except S_j.

    Computed by intersecting the 1-dimensional radical line with one of
    the spheres (a scalar quadratic), then labeled so that f_j(P) < 0.
    """
    n = a.n
    K = tuple(k for k in range(1, n + 2) if k != j)
    x0, frame = _hull(a, K)
    if frame.shape[0] != 1:
        raise DegenerateConfigError("radical line is not one-dimensional")
    d = frame[0]
    k0 = K[0]
    w = x0 - a.center(k0)
    # |w + t d|^2 = r^2 with |d| = 1
    half_b = w @ d
    c = w @ w - a.radius(k0) ** 2
    disc = half_b * half_b - c
    tol_d = 1e-12 * a.radius(k0) ** 2
    if abs(disc) < tol_d:
        raise TangencyError(
            f"spheres {K} are tangent: the two vertices coincide")
    if disc < 0:
        raise EmptyIntersectionError(
            f"spheres {K} have no real common point")
    root = math.sqrt(disc)
    pts = [x0 + (-half_b - root) * d, x0 + (-half_b + root) * d]
    from .arrangement import evaluate_f

    vals = [evaluate_f(a, j, x) for x in pts]
    tol = 1e-12 * a.radius(j) ** 2
    if min(abs(v) for v in vals) < tol:
        raise TangencyError(
            f"vertex lies on sphere {j}; labeling ambiguous")
    if vals[0] < 0 <= vals[1]:
        return VertexPair(j, pts[0], pts[1])
    if vals[1] < 0 <= vals[0]:
        return VertexPair(j, pts[1], pts[0])
    # both on the same side: keep a deterministic order, smaller f first
    order = np.argsort(vals)
    return VertexPair(j, pts[order[0]], pts[order[1]])


def angles_pair(a, j: int, k: int):
    """The opening angles (psi_jk, psi_kj) of the lens of spheres j, k.

    Defined through the sine/cosine determinant quotients; satisfies
    rho_jk = r_j cos(psi_jk/2) + r_k cos(psi_kj/2).
    """
    table = CMTable.from_arrangement(a)
    b = table.chain(("0", "*", j, k), ("0", "*", j, k))
    tol = 1e-9 * hadamard_scale(table, 4)
    if abs(b) < tol:
        raise TangencyError(f"spheres {j},{k} are tangent")
    if b > 0:
        raise EmptyIntersectionError(f"spheres {j},{k} do not intersect")
    s = math.sqrt(-b)
    psi_jk = 2.0 * math.atan2(s, table.chain(("0", "*", j), ("0", k, j)))
    psi_kj = 2.0 * math.atan2(s, table.chain(("0", "*", k), ("0", j, k)))
    return psi_jk, psi_kj


def triangle_angles(a):
    """Angles (phi_1, phi_2, phi_3) of the center triangle, n = 2 only."""
    if a.n != 2:
        raise ValueError("triangle angles are defined for n = 2")
    table = CMTable.from_arrangement(a)
    B = table.chain(("0", 1, 2, 3), ("0", 1, 2, 3))
    if B >= -1e-12 * hadamard_scale(table, 4):
        raise DegenerateConfigError("collinear centers")
    s = math.sqrt(-B)
    out = []
    for j, k, l in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        out.append(math.atan2(s, table.chain(("0", k, j), ("0", l, j))))
    return tuple(out)


def sphere_angle(m: ConfigMatrix, j: int, k: int) -> float:
    """Intersection angle <j,k> of circles j and k on the unit sphere."""
    v = m.inner(j, k)
    if abs(v) > 1.0:
        raise EmptyIntersectionError(
            f"circles {j},{k} do not meet on the unit sphere")
    return math.acos(-v)


def sphere_circle(m: ConfigMatrix, j: int):
    """Center, radius and plane frame of circle j on the unit sphere.

    The circle is the slice of the plane u_j . x + u_{j0} = 0 with
    |u_j|^2 = 1 + u_{j0}^2; its Euclidean radius is 1/sqrt(1+u_{j0}^2).
    Returns (center, radius, basis) with basis the two orthonormal
    in-plane directions (n = 3).
    """
    u = np.array(m.normals[j - 1])
    u0 = m.offset(j)
    nsq = u @ u
    center = -u0 * u / nsq
    radius = 1.0 / math.sqrt(1.0 + u0 * u0)
    # frame orthogonal to u via SVD of the 1 x n row
    _, _, Vt = np.linalg.svd(u[None, :])
    return center, radius, Vt[1:]
