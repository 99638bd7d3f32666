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

Layout: the stacked kernels work coordinate-major.  m points are a
(3, m) array of x, y and z columns, and m triangles a (3, 3, m) array
indexed [coordinate, vertex, row], so the x's of one vertex are one
contiguous length-m array and each numpy operation runs one long loop
rather than a length-3 loop per row.  solve_columns, arc_columns and
hlength_columns take that layout; the public stacked functions take and
return the row-major shapes and only move axes in and out.  Each public
function, and solve_columns, rejects non-finite input with a ValueError
naming the first failing index; arc_columns and hlength_columns trust
their caller, as calibrate passes them solve_columns' output.
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
from .triangulation import NEXT, PREV, read_only

# Pairings and determinants up to this times the z coordinates' product are zero.
DEGENERATE_TOL = 1e-12

# Right-handed: any positive lambdas on these rays give det(u0,u1,u2) > 0.
DEFAULT_RAYS = read_only(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0]]))


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
    """Minkowski pairing of coordinate-major stacks: u[0] holds every x."""
    uv = u * v
    return uv[0] + uv[1] - uv[2]


def _first(bad):
    """(row, slot) of the first True entry of a check in row order, or None.

    bad has shape (m,), one entry per row (slot None), or (3, m), one per
    slot of each row.
    """
    if not np.count_nonzero(bad):  # cheaper than .any() on small stacks
        return None
    if bad.ndim == 1:
        return int(np.argmax(bad)), None
    return divmod(int(np.argmax(bad.T)), 3)


def _at(lead, row, slot=None) -> str:
    """Where a check failed, for error messages; '' when unstacked.

    lead is the row-major leading shape whose entries the m rows are;
    a slot, when given, is the last index.
    """
    index = (*np.unravel_index(row, lead), *(() if slot is None else (slot,)))
    if not index:
        return ""
    return f" at index {index[0] if len(index) == 1 else tuple(map(int, index))}"


def _finite(lead, *stacks):
    """ValueError naming the first row where coordinate-major stacks are not finite."""
    for a in stacks:
        ok = np.isfinite(a)
        if np.count_nonzero(ok) < ok.size:
            rows = [np.isfinite(b).reshape(-1, b.shape[-1]).all(axis=0) for b in stacks]
            row = int(np.argmin(np.logical_and.reduce(rows)))
            raise ValueError(f"points must be finite{_at(lead, row)}")


def _broadcast(u, v):
    """u and v as float arrays of one shape."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return (u, v) if u.shape == v.shape else np.broadcast_arrays(u, v)


def _columns(a, row):
    """A row-major stack of entries of shape row, coordinate-major: rows
    last, contiguous, so each operation runs one loop over the rows."""
    return np.ascontiguousarray(a.reshape((-1,) + row).T)


def _rows(c, lead):
    """Coordinate-major columns back to a row-major stack with leading shape lead."""
    return np.ascontiguousarray(c.T).reshape(lead + c.shape[-2::-1])


def _lambdas(u, v, lead):
    """lambda_pair on coordinate-major stacks."""
    s = -_pairing(u, v)
    zz = u[2] * v[2]
    bad = _first(s <= DEGENERATE_TOL * zz)
    if bad is not None:
        row, slot = bad
        at = (row,) if slot is None else (slot, row)
        raise CollinearRays(
            f"cone points are nearly proportional: -<u, v> / (z_u z_v) = "
            f"{s[at] / zz[at] + 0.0:.6g}, at most DEGENERATE_TOL = "
            f"{DEGENERATE_TOL:g}{_at(lead, row, slot)}"
        )
    return np.sqrt(s)


def lambda_pair(u, v):
    """Lambda length sqrt(-<u, v>) of two upper cone points.

    u and v may be stacks of points along leading axes; a single pair
    gives a float.
    """
    u, v = _broadcast(u, v)
    lead = u.shape[:-1]
    u, v = _columns(u, (3,)), _columns(v, (3,))
    _finite(lead, u, v)
    lam = _lambdas(u, v, lead)
    return float(lam[0]) if not lead else lam.reshape(lead)


def solve_columns(rays, lam, lead=None) -> np.ndarray:
    """solve_triangles on coordinate-major columns.

    rays is (3, 3, m), [coordinate, vertex, row], and lam (3, m),
    [opposite vertex, row]; returns the (3, 3, m) cone points.  The rays'
    z is not read: each is re-projected onto the cone.  lead is the
    leading shape whose indices errors name; by default the rows' (m,).
    """
    lead = lam.shape[1:] if lead is None else lead
    ok = np.isfinite(lam) & (lam > 0.0)
    if np.count_nonzero(ok) < ok.size:
        for what, bad in (("finite", ~np.isfinite(lam)), ("positive", lam <= 0.0)):
            if np.count_nonzero(bad):
                row = _first(bad)[0]
                got = tuple(lam[:, row].tolist())
                raise ValueError(f"lambdas must be {what}, got {got}{_at(lead, row)}")
    ok = np.isfinite(rays[:2])
    if np.count_nonzero(ok) < ok.size:
        raise ValueError(f"rays must be finite{_at(lead, _first(~ok.all(axis=0))[0])}")
    cone = rays.copy()
    np.hypot(cone[0], cone[1], out=cone[2])
    # slot k pairs the two rays opposite vertex k
    head, tail = cone.take(NEXT, axis=1), cone.take(PREV, axis=1)
    # head * tail per coordinate: g = -<head, tail> is zz - (xx + yy),
    # the bits of -(xx + yy - zz) bar a zero's sign, and a zero g fails
    prod = head * tail
    # det(cone) expanded along x; det / (z0 z1 z2) is the determinant of
    # the rays scaled to z = 1, so the test holds at any scale; a zero z
    # leaves a zero row and fails it
    det = (cone[0] * (head[1] * tail[2] - head[2] * tail[1])).sum(axis=0)
    floor = DEGENERATE_TOL * prod[2]
    bad = np.abs(det) <= cone[2, 0] * floor[0]
    if np.count_nonzero(bad):
        raise DegenerateRays(f"rays do not span R^3{_at(lead, _first(bad)[0])}")
    g = prod[2] - (prod[0] + prod[1])
    bad = g <= floor
    if np.count_nonzero(bad):
        row, k = _first(bad)
        raise CollinearRays(
            f"rays {(k + 1) % 3} and {(k + 2) % 3} are proportional{_at(lead, row)}"
        )
    # libm pow rather than x * x, which differs in the last bit for about
    # one lambda in a thousand: lifts match Python's float ** 2 exactly
    m = np.float_power(lam, 2) / g
    t = np.sqrt(m.take(NEXT, axis=0) * m.take(PREV, axis=0) / m)
    return t * cone


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
    lead = lambdas.shape[:-1]
    if rays.shape[-2:] != (3, 3) or lambdas.shape != rays.shape[:-1]:
        raise ValueError("need three rays and three lambdas per triangle")
    cone = solve_columns(_columns(rays, (3, 3)), _columns(lambdas, (3,)), lead)
    return _rows(cone, lead)


def solve_triangle(rays, lambdas) -> np.ndarray:
    """One triangle of solve_triangles: its (3, 3) lift."""
    rays = np.asarray(rays, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if rays.shape != (3, 3) or lambdas.shape != (3,):
        raise ValueError("need three rays and three lambdas per triangle")
    return solve_columns(rays.T[..., None], lambdas[:, None], ())[..., 0].T.copy()


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


def _edge_point(u, v, lead):
    """horocycle_edge_point on coordinate-major stacks."""
    lam_sq = -_pairing(u, v)
    bad = _first(lam_sq <= 0.0)
    if bad is not None:
        raise DegeneratePair(f"edge endpoints are proportional{_at(lead, *bad)}")
    return 0.5 * u + v / lam_sq


def horocycle_edge_point(u, v):
    """Where h(u) crosses the geodesic from u to v: u/2 + v/lambda^2.

    u and v may be stacks of points along leading axes.
    """
    u, v = _broadcast(u, v)
    lead = u.shape[:-1]
    u, v = _columns(u, (3,)), _columns(v, (3,))
    _finite(lead, u, v)
    return _rows(_edge_point(u, v, lead), lead)


def arc_columns(u, v, w, lead=None) -> np.ndarray:
    """Length along h(u) between the planes of the edges uv and uw.

    u, v and w are coordinate-major stacks (3, ...) of a corner's vertex
    and the next two counterclockwise.  The crossing points p, q with the
    flanking geodesics are closed-form, and two points of a level -1
    horocycle at arc distance L satisfy <p, q> = -1 - L^2/2, so the
    length needs no integration.
    """
    lead = u.shape[-1:] if lead is None else lead
    p = _edge_point(u, v, lead)
    q = _edge_point(u, w, lead)
    s = -2.0 * _pairing(p, q) - 2.0
    return np.sqrt(np.maximum(s, 0.0))


def hlength_columns(u, v, w, lead=None) -> np.ndarray:
    """Combinatorial h-length lambda(v, w) / (lambda(w, u) * lambda(u, v)) at u.

    u, v and w are as arc_columns takes them.
    """
    lead = u.shape[-1:] if lead is None else lead
    return _lambdas(v, w, lead) / (_lambdas(w, u, lead) * _lambdas(u, v, lead))


def horocycle_arcs(points) -> np.ndarray:
    """Length along h(u_i) between the triangle's two edge planes.

    points has shape (..., 3, 3), one cone point per row; returns the
    (..., 3) arcs at every corner, as arc_columns measures them.
    """
    points = np.asarray(points, dtype=float)
    lead = points.shape[:-2]
    p = _columns(points, (3, 3))
    _finite(lead, p)
    return _rows(arc_columns(p, p[:, NEXT], p[:, PREV], lead), lead)


def hlengths(points) -> np.ndarray:
    """Combinatorial h-lengths lambda_i / (lambda_j * lambda_k), every corner.

    points has shape (..., 3, 3); lambda_i is the lambda of the edge
    facing vertex i.  Returns shape (..., 3).
    """
    points = np.asarray(points, dtype=float)
    lead = points.shape[:-2]
    p = _columns(points, (3, 3))
    _finite(lead, p)
    return _rows(hlength_columns(p, p[:, NEXT], p[:, PREV], lead), lead)


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
