"""Geometry in the Minkowski space R^{2,1} and its hyperboloid model.

Points are (x, y, z) triples, numpy arrays or float tuples, with the
bilinear form <u, v> = ux*vx + uy*vy - uz*vz.  The hyperboloid H is <w, w> = -1,
z > 0; the upper light cone L+ is <u, u> = 0, z > 0.  A cone point u
is dual to the horocycle h(u) = {w in H : <w, u> = -1}, and the lambda
length of two cone points is sqrt(-<u, v>), so edge decorations become
linear algebra: every solver here is closed-form.

Conventions: a triangle lift is a (3, 3) array, one cone point per
row, in ccw order (det > 0), vertex i faces the edge joining the other
two, and lambdas passed to solve_triangle are indexed by the opposite
vertex.  The triangle solver, the horocycle arc and the h-length work on
stacks of triangles, shape (..., 3, 3); the single-lift functions index
them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    CollinearRays,
    DegeneratePair,
    DegenerateRays,
    NoRealSolution,
)
from .triangulation import NEXT, PREV

# Pairings and determinants up to this times the z coordinates' product are zero.
DEGENERATE_TOL = 1e-12

# Right-handed: any positive lambdas on these rays give det(u0,u1,u2) > 0.
DEFAULT_RAYS = (
    np.array([1.0, 0.0, 1.0]),
    np.array([0.0, 1.0, 1.0]),
    np.array([-1.0, 0.0, 1.0]),
)


def mform(u, v) -> float:
    """Minkowski pairing of signature (2, 1)."""
    return float(u[0] * v[0] + u[1] * v[1] - u[2] * v[2])


def renorm_lightcone(u):
    """Project back to the cone along z; returns (float triple, relative drift)."""
    x, y, z = float(u[0]), float(u[1]), float(u[2])
    try:
        drift = abs(mform(u, u)) / z**2 if z else math.inf
    except OverflowError:  # z^2 out of float range
        drift = math.inf
    return (x, y, math.hypot(x, y)), drift


def hypots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """math.hypot per entry, as renorm_lightcone takes z: np.hypot may differ."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, len(x))


def _pairing(u, v):
    """Minkowski pairing of stacked vectors along their last axis."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


def _first(bad):
    """Index of the first True entry of a stacked check, or None."""
    if not np.count_nonzero(bad):  # cheaper than .any() on small stacks
        return None
    return np.unravel_index(int(np.argmax(bad)), bad.shape)


def _at(index) -> str:
    """Where a stacked check failed, for error messages; '' when unstacked."""
    if not index:
        return ""
    return f" at index {index[0] if len(index) == 1 else tuple(map(int, index))}"


def lambda_pair(u, v):
    """Lambda length sqrt(-<u, v>) of two upper cone points.

    u and v may be stacks of points along leading axes; a single pair
    gives a float.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = -_pairing(u, v)
    zz = u[..., 2] * v[..., 2]
    bad = _first(s <= DEGENERATE_TOL * zz)
    if bad is not None:
        raise CollinearRays(
            f"cone points are nearly proportional: -<u, v> / (z_u z_v) = "
            f"{s[bad] / zz[bad] + 0.0:.6g}, at most DEGENERATE_TOL = "
            f"{DEGENERATE_TOL:g}{_at(bad)}"
        )
    lam = np.sqrt(s)
    return float(lam) if lam.ndim == 0 else lam


def solve_triangles(rays, lambdas) -> np.ndarray:
    """Scale cone rays so that <u_i, u_j> = -lambdas[k]^2, k opposite.

    rays has shape (..., 3, 3), one ray per row, and lambdas (..., 3);
    returns the (..., 3, 3) cone points.  The system t_i * t_j =
    lambdas[k]^2 / (-<r_i, r_j>) has the unique positive solution
    t_i = sqrt(m_j * m_k / m_i).  Rays may be given at any positive
    scale; they are re-projected onto the cone along z.  Every check
    runs over the whole stack and the first failing triangle is named.
    """
    rays = np.asarray(rays, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if rays.shape[-2:] != (3, 3) or lambdas.shape != rays.shape[:-1]:
        raise ValueError("need three rays and three lambdas per triangle")
    bad = _first(lambdas <= 0.0)
    if bad is not None:
        got = tuple(lambdas[bad[:-1]].tolist())
        raise ValueError(f"lambdas must be positive, got {got}{_at(bad[:-1])}")
    cone = rays.copy()
    cone[..., 2] = np.hypot(rays[..., 0], rays[..., 1])
    # det / (z0 z1 z2) is the determinant of the rays scaled to z = 1, so
    # the test holds at any scale; a zero z leaves a zero row and fails it
    det = np.linalg.det(cone.swapaxes(-1, -2))
    bad = _first(np.abs(det) <= DEGENERATE_TOL * cone[..., 2].prod(axis=-1))
    if bad is not None:
        raise DegenerateRays(f"rays do not span R^3{_at(bad)}")
    # slot k pairs the two rays opposite vertex k
    head, tail = cone.take(NEXT, axis=-2), cone.take(PREV, axis=-2)
    g = -_pairing(head, tail)
    bad = _first(g <= DEGENERATE_TOL * head[..., 2] * tail[..., 2])
    if bad is not None:
        i, j = (bad[-1] + 1) % 3, (bad[-1] + 2) % 3
        raise CollinearRays(f"rays {i} and {j} are proportional{_at(bad[:-1])}")
    # libm pow rather than x * x, which differs in the last bit for about
    # one lambda in a thousand: lifts match Python's float ** 2 exactly
    m = np.float_power(lambdas, 2) / g
    t = np.sqrt(m.take(NEXT, axis=-1) * m.take(PREV, axis=-1) / m)
    return t[..., None] * cone


def solve_triangle(rays, lambdas) -> np.ndarray:
    """One triangle of solve_triangles: its (3, 3) lift."""
    return solve_triangles(rays, lambdas)


def extend_across(u, v, lam_u, lam_v, side: int):
    """Third cone point z with <z, u> = -lam_u^2, <z, v> = -lam_v^2.

    side (+1 or -1) picks the sign of det(u, v, z), i.e. the half-space
    of the edge plane span(u, v) the new vertex falls in.  Writing
    z = a*u + b*v + c*n with n Minkowski-orthogonal to the plane, the
    mixed terms fix a and b and <z, z> = 0 fixes c^2; n is spacelike
    whenever u, v are independent upper cone points, so a real c always
    exists for positive lambdas.
    """
    if side not in (-1, 1):
        raise ValueError(f"side must be +1 or -1, got {side!r}")
    if min(lam_u, lam_v) <= 0.0:
        raise ValueError("lambdas must be positive")
    lam_uv_sq = -mform(u, v)
    if lam_uv_sq <= DEGENERATE_TOL * float(u[2]) * float(v[2]):
        raise DegeneratePair("edge endpoints are proportional")
    a = float(lam_v) ** 2 / lam_uv_sq
    b = float(lam_u) ** 2 / lam_uv_sq
    cross = np.cross(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    n = np.array([cross[0], cross[1], -cross[2]])  # <n, u> = <n, v> = 0
    nn = mform(n, n)  # equals det(u, v, n)
    if nn <= 0.0:
        raise NoRealSolution("complement of the edge plane is not spacelike")
    c_sq = 2.0 * a * b * lam_uv_sq / nn
    if c_sq < 0.0:
        raise NoRealSolution("no real scaling for the third vertex")
    c = side * math.sqrt(c_sq)
    return a * np.asarray(u, dtype=float) + b * np.asarray(v, dtype=float) + c * n


def horocycle_edge_point(u, v):
    """Where h(u) crosses the geodesic from u to v: u/2 + v/lambda^2.

    u and v may be stacks of points along leading axes.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    lam_sq = -_pairing(u, v)
    bad = _first(lam_sq <= 0.0)
    if bad is not None:
        raise DegeneratePair(f"edge endpoints are proportional{_at(bad)}")
    return 0.5 * u + v / lam_sq[..., None]


def horocycle_arcs(points) -> np.ndarray:
    """Length along h(u_i) between the triangle's two edge planes.

    points has shape (..., 3, 3), one cone point per row; returns the
    (..., 3) arcs at every corner.  The crossing points p, q with the
    flanking geodesics are closed-form, and two points of a level -1
    horocycle at arc distance L satisfy <p, q> = -1 - L^2/2, so the
    length needs no integration.
    """
    points = np.asarray(points, dtype=float)
    p = horocycle_edge_point(points, points.take(NEXT, axis=-2))
    q = horocycle_edge_point(points, points.take(PREV, axis=-2))
    s = -2.0 * _pairing(p, q) - 2.0
    return np.sqrt(np.maximum(s, 0.0))


def hlengths(points) -> np.ndarray:
    """Combinatorial h-lengths lambda_i / (lambda_j * lambda_k), every corner.

    points has shape (..., 3, 3); lambda_i is the lambda of the edge
    facing vertex i.  Returns shape (..., 3).
    """
    points = np.asarray(points, dtype=float)
    lam = lambda_pair(points.take(NEXT, axis=-2), points.take(PREV, axis=-2))
    return lam / (lam.take(NEXT, axis=-1) * lam.take(PREV, axis=-1))


def horocycle_arc(points, i: int) -> float:
    """Arc at vertex i of one (3, 3) lift; see horocycle_arcs."""
    return float(horocycle_arcs(points)[i])


def horocycle_disk_circle(u):
    """Euclidean center and radius of h(u)'s image in the Poincare disk.

    Internally tangent to the unit circle at the ray's boundary point;
    radius 1/(z + 1) shrinks as the horoball deepens.
    """
    u, _ = renorm_lightcone(u)
    if u[2] <= 0.0:
        raise ValueError("cone ray must point up")
    r = 1.0 / (u[2] + 1.0)
    center = np.array([u[0], u[1]]) / (u[2] + 1.0)
    return center, r
