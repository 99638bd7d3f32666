"""Developing maps into the light cone, holonomy pairs, and cusp closure.

A developed lift of a face is the triple of light-cone positions of
its corners, one (x, y, z) per corner in ccw order.  Crossing an edge
keeps the shared two positions (swapped, since gluing reverses
orientation) and places the third at a fixed linear combination of the
near lift's corners, its coefficients set by the lambdas of the glued
pair's two faces alone (Penner's lambda-length calculus), read from
H.crossing_table.  The combination lands on the far side of the shared
chord, so every lift in a developed ball is positively oriented.

A developed ball is a set of read-only arrays: its unfolding tree's,
which say the ideal vertex at each node's corners, the (N + 2, 3) table
of those vertices' cone points, and per node the scale and drift.  Each
node adds one vertex, its fresh corner, and every node of a BFS level
crosses independently of the others, so develop fills the table one
level at a time.  It works in columns: the cone points are a (3, N + 2)
table with one contiguous row per coordinate, and a level is one gather
of its parents' apex, head and tail vertices (3, 3, m), multiply-adds
and the drift gate on (3, m) and (m,) rows, and the fresh vertices
written as one block of columns.  ball.vertices is that table's
transpose.  Node i's lift is vertices[corner[i]].  ball.nodes, the same
ball as DevelopedNode objects whose points are tuples of float tuples,
is a lazy view, DevelopedNodes: an index builds one node, iteration
builds them in one batch pass, and the ball keeps none of them.
deck_candidates reads a ball's base repeats off the same columns and
returns them as stacked arrays, DeckCandidates.  tile_separation keeps
each tile's Klein geometry by the identity of its lift.

A single path is a sequence of crossings, each the flat index 3f+s of
the near pair (f, s) it crosses.  _develop_along walks it scalar, one
crossing at a time in Python arithmetic on H.crossing_rows, the same
table as Python floats, with the crossing and its drift gate inline:
on one 3-vector a numpy call, or even a Python call, costs several
times the arithmetic it does.  DevelopedPaths walks each path it is
asked about once and solves each start face's lift once, so a corner
cycle serves both its cusp closure and its loop holonomy; its
holonomies check all loops in one pass, then stack every loop's start
and end frames for one inverse, one product and array passes for the
residuals.  path_holonomy is its one-loop case, cusp_closure_residual
its one-puncture case.

Broken structures develop by similarity, not isometry: each crossing
multiplies the running scale by the lambda ratio of the glued pair, and
closed paths come back as (matrix, scale) pairs satisfying
<Mu, Mv> = scale^2 <u, v>.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import minkowski
from .errors import NumericalBreakdown
from .hyperbolic import DecoratedBrokenHyperbolic
from .triangulation import (
    UnfoldedBall,
    ball_tree,
    check_indices,
    check_loops,
    read_only,
)

# A renormalized light-cone point should never wander this far off cone.
DRIFT_BOUND = 1e-10

# Lifts whose Klein geometry tile_separation keeps, first in first out:
# a depth-10 ball's worth.
TILE_CACHE_SIZE = 4096

_J = np.diag([1.0, 1.0, -1.0])


def _breakdown(drift: float, crossed: int) -> NumericalBreakdown:
    return NumericalBreakdown(f"light-cone drift {drift} crossing {divmod(crossed, 3)}")


def _start_lift(H: DecoratedBrokenHyperbolic, face: int) -> np.ndarray:
    """H.face_lift(face); NumericalBreakdown when it leaves float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        lift = H.face_lift(face)
    if not np.isfinite(lift).all():
        raise NumericalBreakdown(
            f"lift of face {face} is not finite at lambdas {H.lam[face].tolist()}"
        )
    return lift


@dataclass(frozen=True, slots=True)
class DevelopedNode:
    index: int
    face: int
    depth: int
    parent: int | None
    entry_slot: int | None
    points: tuple  # three (x, y, z) float tuples
    scale: float
    drift: float


@dataclass(frozen=True, eq=False)
class DevelopedBall(UnfoldedBall):
    """An unfolded ball developed into the light cone, as read-only arrays.

    Beside the tree's arrays: vertices[v] is ideal vertex v's cone point,
    numbered as the tree's corner, so vertices has shape (N + 2, 3);
    scale[i] is node i's homothety factor and drift[i] the relative
    light-cone drift of its fresh corner (0 at the root).
    """

    vertices: np.ndarray
    scale: np.ndarray
    drift: np.ndarray

    @cached_property
    def nodes(self) -> DevelopedNodes:
        """The ball as DevelopedNode objects: a lazy view, DevelopedNodes."""
        # the view reads a twin of this ball, the same arrays: holding the
        # ball itself would close a cycle that only the cyclic collector frees
        return DevelopedNodes(replace(self), range(len(self.face)))

    def max_drift(self) -> float:
        return float(self.drift.max())


class DevelopedNodes(Sequence):
    """A developed ball's nodes as DevelopedNode objects, built when read.

    A read-only sequence over a range of the ball's nodes that keeps no
    node: len() builds nothing, an index builds that one node from the
    vertices at its three corners, and a slice is a view over its range.
    Iteration builds the range's nodes in one pass over the columns, and
    nodes of one pass that meet at a vertex share its (x, y, z) tuple.
    The root has None for parent and entry slot.
    """

    __slots__ = ("_ball", "_span")

    def __init__(self, ball: DevelopedBall, span: range):
        self._ball, self._span = ball, span

    def __len__(self) -> int:
        return len(self._span)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return DevelopedNodes(self._ball, self._span[i])
        try:
            i = self._span[operator.index(i)]
        except IndexError:
            raise IndexError("node index out of range") from None
        b, root = self._ball, i == 0
        return DevelopedNode(
            i,
            b.face.item(i),
            int(b.levels.searchsorted(i, "right")) - 1,
            None if root else b.parent.item(i),
            None if root else b.entry_slot.item(i),
            tuple(map(tuple, b.vertices[b.corner[i]].tolist())),
            b.scale.item(i),
            b.drift.item(i),
        )

    def __iter__(self):
        b, span = self._ball, self._span
        idx = np.arange(span.start, span.stop, span.step)
        # one tuple per vertex the range meets, shared by its nodes
        used, at = np.unique(b.corner[idx], return_inverse=True)
        cone = np.fromiter(zip(*b.vertices[used].T.tolist()), object, len(used))
        lifts = map(tuple, cone[at.reshape(-1, 3)].tolist())
        parent, entry_slot = b.parent[idx].tolist(), b.entry_slot[idx].tolist()
        if 0 in span:
            root = span.index(0)
            parent[root] = entry_slot[root] = None
        depth = b.levels.searchsorted(idx, "right") - 1
        tree = (b.face[idx].tolist(), depth.tolist(), parent, entry_slot)
        geometry = (lifts, b.scale[idx].tolist(), b.drift[idx].tolist())
        return map(DevelopedNode, span, *tree, *geometry)


def develop(
    H: DecoratedBrokenHyperbolic, base: int = 0, depth: int = 2
) -> DevelopedBall:
    """Develop the combinatorial ball of the given depth around a face.

    One BFS level at a time, each node's lift from its parent's with the
    crossing arithmetic of _develop_along in the same order, so every
    float is the one a crossing-by-crossing walk gives.  The vertex
    table is filled as (3, N + 2) columns, one contiguous row per
    coordinate, and ball.vertices is its transpose.  A fresh corner
    whose drift is not within DRIFT_BOUND (NaN included) raises
    NumericalBreakdown naming the first such crossing in BFS order and
    its drift by renorm_lightcone, as the scalar walk does; so does a
    base lift out of float range.  A base or depth that is no int
    raises ValueError, as ball_tree does.
    """
    tree, near = ball_tree(H.T, base, depth)
    _, parent, _, crossed, levels, _ = tree
    n = len(parent)
    cols = np.empty((3, n + 2))
    scale = np.empty(n)
    drift = np.empty(n)
    cols[:, :3], scale[0], drift[0] = _start_lift(H, base).T, 1.0, 0.0
    # each node's crossing coefficients x, y, t and step; the root's are not read
    coef = H.crossing_table.take(crossed, axis=0).T
    # overflow, 0/0 and a zero z end up in a drift that fails the gate
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for a, b in zip(levels[1:-1].tolist(), levels[2:].tolist()):
            x, y, t, step = coef[:, a:b]
            apex, head, tail = cols.take(near[:, a:b], axis=1).swapaxes(0, 1)
            # x * tail + y * head + t * apex, in two buffers
            u, v = x * tail, y * head
            u += v
            u += np.multiply(t, apex, out=v)
            # |mform(u, u)| / uz^2, as renorm_lightcone has it
            sq = np.multiply(u, u, out=v)
            level_drift = np.abs(sq[0] + sq[1] - sq[2]) / np.float_power(u[2], 2)
            if not level_drift.max() <= DRIFT_BOUND:  # NaN fails too
                i = int(np.argmin(level_drift <= DRIFT_BOUND))
                bad = minkowski.renorm_lightcone(u[:, i])[1]
                raise _breakdown(bad, int(crossed[a + i]))
            u[2] = minkowski.hypots(u[0], u[1])
            cols[:, a + 2 : b + 2] = u
            scale[a:b] = scale[parent[a:b]] * step
            drift[a:b] = level_drift
    geometry = read_only(cols).T, read_only(scale), read_only(drift)
    return DevelopedBall(base, depth, *tree, *geometry)


def _develop_along(H: DecoratedBrokenHyperbolic, crossings, lifts: dict):
    """Develop face by face along a nonempty chain of crossings 3f+s.

    Returns (start lift, final points, final scale, final face): the
    first face's own (3, 3) lift, the developed lift of the face the
    last crossing enters, the running scale there and that face's index.
    lifts maps a face to its start lift and that lift's points as
    tuples; a face it lacks is solved and added.  The crossings are trusted: each must be in range and leave the face the
    previous one entered, as check_loops and T.cycle_crossings ensure.

    Crossing 3f+s glues to far = 3g+k2.  The fresh corner is the
    combination x*tail + y*head + t*apex of the near lift's corners,
    with the pair's coefficients and lambda ratio step read from
    H.crossing_rows; they hold at any common scale of the lift, so the
    lift's own homothety factor carries over and no lambda is read back
    from it.  The far triple is placed so the far face's own slot labels
    index it: gluing reverses the edge, so the near corner s+1 lands at
    the far corner k2+2 and vice versa.  The fresh corner goes back on
    the cone and its drift is gated as minkowski.renorm_lightcone
    computes them: a drift not within DRIFT_BOUND (NaN included) raises
    NumericalBreakdown naming the crossing.
    """
    face = crossings[0] // 3
    if face not in lifts:
        lift = _start_lift(H, face)
        lifts[face] = lift, tuple(map(tuple, lift.tolist()))
    lift, points = lifts[face]
    rows, hypot = H.crossing_rows, math.hypot
    scale = 1.0
    for c in crossings:
        far, x, y, t, step = rows[c]
        slot = c % 3
        if slot == 0:
            apex, head, tail = points
        elif slot == 1:
            tail, apex, head = points
        else:
            head, tail, apex = points
        (ux, uy, uz), (vx, vy, vz), (wx, wy, wz) = tail, head, apex
        X = x * ux + y * vx + t * wx
        Y = x * uy + y * vy + t * wy
        Z = x * uz + y * vz + t * wz
        try:
            drift = abs(X * X + Y * Y - Z * Z) / Z**2 if Z else math.inf
        except OverflowError:  # Z^2 out of float range
            drift = math.inf
        if not drift <= DRIFT_BOUND:  # NaN fails too
            raise _breakdown(drift, c)
        fresh = (X, Y, hypot(X, Y))
        k2 = far % 3
        if k2 == 0:
            points = (fresh, tail, head)
        elif k2 == 1:
            points = (head, fresh, tail)
        else:
            points = (tail, head, fresh)
        scale *= step
    return lift, points, scale, far // 3


def _squares(x) -> np.ndarray:
    """x ** 2 entry by entry in Python float arithmetic, as an array.

    numpy's ** 2 on an array is x * x, which can differ from pow(x, 2)
    in the last bit; squaring by pow gives a stack's residuals the bits
    of each path's own, computed in Python floats.
    """
    return np.reshape([v**2 for v in np.ravel(x).tolist()], np.shape(x))


@dataclass(frozen=True)
class PathHolonomy:
    """Linear part and scale of a developed closed path, or of a stack of them.

    One path has a (3, 3) matrix and a float scale, and its residuals are
    floats; n paths have an (n, 3, 3) matrix and an (n,) scale, and
    their residuals are (n,) arrays.
    """

    matrix: np.ndarray
    scale: float | np.ndarray

    @cached_property
    def _residuals(self):
        """max |M^T J M - scale^2 J| over scale^2 and over max |M|^2."""
        m = self.matrix
        square = _squares(self.scale)
        gram = m.swapaxes(-1, -2) @ _J @ m - square[..., None, None] * _J
        defect = np.abs(gram).max(axis=(-2, -1))
        lorentz = defect / square
        backward = defect / _squares(np.abs(m).max(axis=(-2, -1)))
        if lorentz.ndim:
            return lorentz, backward
        return float(lorentz), float(backward)

    def lorentz_residual(self):
        """How far matrix/scale is from the isometry group, max norm."""
        return self._residuals[0]

    def backward_residual(self):
        """The same defect relative to max |M|^2, the size of M^T J M.

        Rounding in a product of n crossings leaves a defect of about
        n * eps * max|M|^2, which can be far above scale^2 on a long
        loop; this ratio stays at rounding level when every crossing is
        exact.
        """
        return self._residuals[1]


class DevelopedPaths:
    """Closed paths of one structure, each developed at most once.

    A path asked about twice, as a corner cycle is when both its cusp
    closure and its loop holonomy are wanted, is walked once, and each
    start face's lift is solved once.
    """

    def __init__(self, H: DecoratedBrokenHyperbolic):
        self.H = H
        self._lifts = {}  # face: (start lift, its points as tuples)
        self._walks = {}  # crossings: what _develop_along returned

    def _walk(self, crossings: tuple):
        walk = self._walks.get(crossings)
        if walk is None:
            walk = self._walks[crossings] = _develop_along(self.H, crossings, self._lifts)
        return walk

    def holonomies(self, loops) -> PathHolonomy:
        """Holonomy pairs of closed dual paths, as one stacked PathHolonomy.

        Entry i is path_holonomy(H, loops[i]), bit for bit.  Every loop is
        checked, by check_loops, before any is walked.
        """
        walks = [self._walk(loop) for loop in check_loops(self.H.T, loops)]
        # the lifts' points as columns
        starts = np.array([w[0] for w in walks]).reshape(-1, 3, 3).swapaxes(1, 2)
        ends = np.array([w[1] for w in walks]).reshape(-1, 3, 3).swapaxes(1, 2)
        scale = np.array([w[2] for w in walks])
        return PathHolonomy(ends @ np.linalg.inv(starts), scale)

    def cusp_closure_residual(self, puncture: int) -> float:
        """|log| of the lambda ratio the puncture loop fails to close by.

        Developing once around the corner cycle re-lands on the start
        face.  The fresh copy of the edge entered last carries a definite
        lambda (its pair lambda under the final lift); for an unbroken
        structure it matches the structure's own, and the mismatch
        factor is exactly the loop's lambda-convention holonomy.
        """
        H = self.H
        (puncture,) = check_indices([puncture], H.T.num_punctures, "puncture")
        crossings = tuple(H.T.cycle_crossings[puncture].tolist())
        _, points, _, face = self._walk(crossings)
        assert face == crossings[0] // 3
        # the last crossing's entry slot; the fresh corner sits there
        k2 = int(H.T.partner.ravel()[crossings[-1]]) % 3
        fresh_slot = (k2 + 1) % 3  # edge joining fresh corner to corner k2+2
        lam_geo = minkowski.lambda_pair(points[k2], points[(k2 + 2) % 3])
        ratio = lam_geo / H.lam[face, fresh_slot]
        return abs(float(np.log(ratio)))


def path_holonomy(H: DecoratedBrokenHyperbolic, loop) -> PathHolonomy:
    """Holonomy pair of a closed dual path: end frame times inverse start frame.

    Composition is contravariant: the matrix of loop1 + loop2 is
    matrix(loop1) @ matrix(loop2), and the scales multiply.  The empty
    loop gives the identity; any other is DevelopedPaths(H).holonomies'
    one-loop case.
    """
    loop = tuple(loop)
    if not loop:
        return PathHolonomy(np.eye(3), 1.0)
    hol = DevelopedPaths(H).holonomies([loop])
    return PathHolonomy(hol.matrix[0], float(hol.scale[0]))


@dataclass(frozen=True, eq=False)
class DeckCandidates:
    """Holonomy pairs read off a ball's base repeats, as read-only arrays.

    nodes (k,) holds the repeats in node order, matrices (k, 3, 3) each
    repeat's frame times the inverse of the root's, scales (k,) each
    repeat's scale.  As a sequence it is the k triples (node, matrix,
    scale): an int, a (3, 3) array and a float.
    """

    nodes: np.ndarray
    matrices: np.ndarray
    scales: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, i) -> tuple:
        i = operator.index(i)
        return int(self.nodes[i]), self.matrices[i], float(self.scales[i])

    def __iter__(self):
        return zip(self.nodes.tolist(), self.matrices, self.scales.tolist())


def deck_candidates(H: DecoratedBrokenHyperbolic, ball: DevelopedBall) -> DeckCandidates:
    """Holonomy pairs read off repeats of the base face inside a ball.

    One (node, matrix, scale) triple per repeat of the base face, in node
    order: the repeat's frame times the inverse of the root's, and the
    repeat's scale, as path_holonomy gives them for the path to it.  They
    come as one DeckCandidates, the three stacked read-only arrays; the
    frames are gathered from the ball's vertex columns.
    """
    repeats = np.flatnonzero(ball.face == ball.base)  # the root first
    # the root's frame, then every repeat's, gathered from the vertex
    # columns: frames[:, r] has the lift's points as columns
    frames = ball.vertices.T.take(ball.corner.take(repeats, axis=0), axis=1)
    mats = frames[:, 1:].swapaxes(0, 1) @ np.linalg.inv(frames[:, 0])
    nodes = repeats[1:]
    return DeckCandidates(*map(read_only, (nodes, mats, ball.scale.take(nodes))))


def _tile_geometry(points):
    """One tile's Klein-disk geometry, shared by every pair it meets.

    Returns (vertices, axes): the flat (x0, y0, x1, y1, x2, y2) and, for
    each edge of nonzero length, (nx, ny, lo, hi): the edge's unit
    normal and the interval the tile itself projects onto it.
    """
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = points
    x0, y0, x1, y1, x2, y2 = x0 / z0, y0 / z0, x1 / z1, y1 / z1, x2 / z2, y2 / z2
    axes = []
    for ax, ay, bx, by in ((x0, y0, x1, y1), (x1, y1, x2, y2), (x2, y2, x0, y0)):
        nx, ny = ay - by, bx - ax
        norm = math.hypot(nx, ny)
        if norm > 0.0:
            nx, ny = nx / norm, ny / norm
            p0, p1, p2 = nx * x0 + ny * y0, nx * x1 + ny * y1, nx * x2 + ny * y2
            axes.append((nx, ny, min(p0, p1, p2), max(p0, p1, p2)))
    return (x0, y0, x1, y1, x2, y2), tuple(axes)


# id(points): (points, vertices, axes), at most TILE_CACHE_SIZE lifts, first
# in first out; an entry holds its lift, so no other object takes its id
_tiles = {}


def _tile(points):
    """The (points, vertices, axes) entry of a lift, computed and kept."""
    hash(points)  # an unhashable lift raises TypeError and is never kept
    entry = (points, *_tile_geometry(points))
    if len(_tiles) >= TILE_CACHE_SIZE:
        del _tiles[next(iter(_tiles))]
    _tiles[id(points)] = entry
    return entry


def tile_separation(points_a, points_b) -> float:
    """Separating-axis margin between two developed lifts.

    An ideal triangle is the straight-edge hull of its boundary points
    in the projective (Klein) disk, so two tiles have disjoint open
    interiors exactly when the flat triangles do.  Returns the smallest
    axis overlap: <= 0 means disjoint interiors (0 for tiles sharing an
    edge), > 0 means genuine overlap of that depth.  Edges of zero
    length give no axis.  Both lifts are developed lifts, tuples of three
    (x, y, z) float tuples like DevelopedNode.points.  The per-tile
    geometry is kept by the lift's identity, not its value, so a sweep
    over all pairs of n lifts builds it n times, not n^2; an equal but
    distinct lift builds it again, to the same bits.
    """
    a = _tiles.get(id(points_a))
    if a is None or a[0] is not points_a:
        a = _tile(points_a)
    b = _tiles.get(id(points_b))
    if b is None or b[0] is not points_b:
        b = _tile(points_b)
    _, (ax0, ay0, ax1, ay1, ax2, ay2), axes_a = a
    _, (bx0, by0, bx1, by1, bx2, by2), axes_b = b
    best = math.inf
    # tile a's own axes against tile b's three vertices
    for nx, ny, lo, hi in axes_a:
        p0, p1, p2 = nx * bx0 + ny * by0, nx * bx1 + ny * by1, nx * bx2 + ny * by2
        if p0 < p1:
            other_lo, other_hi = p0, p1
        else:
            other_lo, other_hi = p1, p0
        if p2 < other_lo:
            other_lo = p2
        elif p2 > other_hi:
            other_hi = p2
        overlap = (hi if hi < other_hi else other_hi) - (lo if lo > other_lo else other_lo)
        if overlap < best:
            best = overlap
    # then tile b's against tile a's
    for nx, ny, lo, hi in axes_b:
        p0, p1, p2 = nx * ax0 + ny * ay0, nx * ax1 + ny * ay1, nx * ax2 + ny * ay2
        if p0 < p1:
            other_lo, other_hi = p0, p1
        else:
            other_lo, other_hi = p1, p0
        if p2 < other_lo:
            other_lo = p2
        elif p2 > other_hi:
            other_hi = p2
        overlap = (hi if hi < other_hi else other_hi) - (lo if lo > other_lo else other_lo)
        if overlap < best:
            best = overlap
    return best


def cusp_closure_residual(H: DecoratedBrokenHyperbolic, puncture: int) -> float:
    """DevelopedPaths(H).cusp_closure_residual(puncture)."""
    return DevelopedPaths(H).cusp_closure_residual(puncture)
