"""Developing maps into the light cone, holonomy pairs, and cusp closure.

A developed lift of a face is the triple of light-cone positions of
its corners, each an (x, y, z) tuple of floats: per-node work is Python
arithmetic, which on 3-vectors is cheaper than numpy calls.
Crossing an edge keeps the shared two positions (swapped, since gluing
reverses orientation) and places the third at a fixed linear
combination of the near lift's corners, its coefficients set by the
lambdas of the glued pair's two faces alone (Penner's lambda-length
calculus).  The combination lands on the far side of the shared chord,
so every lift in a developed ball is positively oriented.

Broken structures develop by similarity, not isometry: each crossing
multiplies the running scale by the lambda ratio of the glued pair, and
closed paths come back as (matrix, scale) pairs satisfying
<Mu, Mv> = scale^2 <u, v>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import minkowski
from .errors import GeometryError, OpenPath
from .hyperbolic import DecoratedBrokenHyperbolic
from .triangulation import check_loop, unfold_ball

# A renormalized light-cone point should never wander this far off cone.
DRIFT_BOUND = 1e-10

_J = np.diag([1.0, 1.0, -1.0])


def _cross_edge(H: DecoratedBrokenHyperbolic, face: int, slot: int, points):
    """Develop across one glued edge; returns (far pair, far points, step, drift).

    The far triple is placed so the far face's own slot labels index it:
    gluing reverses the edge, so the near corner slot+1 lands at the far
    corner k2+2 and vice versa.  The fresh corner is the combination
    x*tail + y*head + t*apex of the near lift's corners, with the pair's
    coefficients and lambda ratio step read from H.crossing_rows; they
    hold at any common scale of the lift, so the lift's own homothety
    factor carries over and no lambda is read back from it.
    """
    far, x, y, t, step = H.crossing_rows[3 * face + slot]
    g, k2 = far
    apex = points[slot]
    head = points[(slot + 1) % 3]  # far corner k2 + 2
    tail = points[(slot + 2) % 3]  # far corner k2 + 1

    (ux, uy, uz), (vx, vy, vz), (wx, wy, wz) = tail, head, apex
    z, drift = minkowski.renorm_lightcone(
        (
            x * ux + y * vx + t * wx,
            x * uy + y * vy + t * wy,
            x * uz + y * vz + t * wz,
        )
    )
    if drift > DRIFT_BOUND:
        raise GeometryError(f"light-cone drift {drift} crossing {(face, slot)}")

    far_points = [None, None, None]
    far_points[k2] = z
    far_points[(k2 + 1) % 3] = tail
    far_points[(k2 + 2) % 3] = head
    return far, tuple(far_points), step, drift


@dataclass(frozen=True)
class DevelopedNode:
    index: int
    face: int
    depth: int
    parent: int | None
    entry_slot: int | None
    points: tuple  # three (x, y, z) float tuples
    scale: float
    drift: float


@dataclass(frozen=True)
class DevelopedBall:
    base: int
    depth: int
    nodes: tuple

    def max_drift(self) -> float:
        return max(n.drift for n in self.nodes)

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "depth": self.depth,
            "nodes": [
                {
                    "index": n.index,
                    "face": n.face,
                    "depth": n.depth,
                    "parent": n.parent,
                    "entry_slot": n.entry_slot,
                    "points": [list(p) for p in n.points],
                    "scale": n.scale,
                }
                for n in self.nodes
            ],
        }


def develop(
    H: DecoratedBrokenHyperbolic, base: int = 0, depth: int = 2
) -> DevelopedBall:
    """Develop the combinatorial ball of the given depth around a face."""
    ball = unfold_ball(H.T, base, depth)
    root = tuple(map(tuple, H.face_lift(base).tolist()))
    nodes: list[DevelopedNode] = [DevelopedNode(0, base, 0, None, None, root, 1.0, 0.0)]
    for bn in ball.nodes[1:]:
        parent = nodes[bn.parent]
        pf, pslot = bn.crossed_from
        far, pts, step, drift = _cross_edge(H, pf, pslot, parent.points)
        assert far == (bn.face, bn.entry_slot)
        nodes.append(
            DevelopedNode(
                bn.index,
                bn.face,
                bn.depth,
                bn.parent,
                bn.entry_slot,
                pts,
                parent.scale * step,
                drift,
            )
        )
    return DevelopedBall(base, depth, tuple(nodes))


def develop_along(H: DecoratedBrokenHyperbolic, crossings):
    """Develop face by face along a crossing sequence.

    Returns (start lift, final points, final scale, final face): the
    first face's own (3, 3) lift, the developed lift of the face the
    last crossing enters, the running scale there and that face's index.
    Consecutive crossings must chain: each one leaves the face the
    previous one entered.
    """
    crossings = tuple(crossings)
    if not crossings:
        raise OpenPath("need at least one crossing")
    face = crossings[0][0]
    lift = H.face_lift(face)
    points = tuple(map(tuple, lift.tolist()))
    scale = 1.0
    for f, s in crossings:
        if f != face:
            raise OpenPath(f"crossing {(f, s)} does not start on face {face}")
        (face, _), points, step, _ = _cross_edge(H, f, s, points)
        scale *= step
    return lift, points, scale, face


@dataclass(frozen=True)
class PathHolonomy:
    """Linear part and scale of a developed closed path."""

    matrix: np.ndarray
    scale: float

    @cached_property
    def _defect(self) -> float:
        """max |M^T J M - scale^2 J|, shared by both residuals."""
        m = self.matrix
        return float(np.max(np.abs(m.T @ _J @ m - self.scale**2 * _J)))

    def lorentz_residual(self) -> float:
        """How far matrix/scale is from the isometry group, max norm."""
        return self._defect / self.scale**2

    def backward_residual(self) -> float:
        """The same defect relative to max |M|^2, the size of M^T J M.

        Rounding in a product of n crossings leaves a defect of about
        n * eps * max|M|^2, which can be far above scale^2 on a long
        loop; this ratio stays at rounding level when every crossing is
        exact.
        """
        return self._defect / float(np.max(np.abs(self.matrix))) ** 2

    def apply(self, point) -> np.ndarray:
        return self.matrix @ np.asarray(point, dtype=float)

    def compose(self, other: "PathHolonomy") -> "PathHolonomy":
        return PathHolonomy(self.matrix @ other.matrix, self.scale * other.scale)


def path_holonomy(H: DecoratedBrokenHyperbolic, loop) -> PathHolonomy:
    """Holonomy pair of a closed dual path: end frame times inverse start frame.

    Composition is contravariant: the pair of loop1 + loop2 is
    holonomy(loop1) @ holonomy(loop2).
    """
    loop = tuple(loop)
    if not loop:
        return PathHolonomy(np.eye(3), 1.0)
    check_loop(H.T, loop)
    start, points, scale, _ = develop_along(H, loop)
    m_0, m_1 = np.array((start, points)).swapaxes(1, 2)  # points as columns
    return PathHolonomy(m_1 @ np.linalg.inv(m_0), scale)


def deck_candidates(H: DecoratedBrokenHyperbolic, ball: DevelopedBall):
    """Holonomy pairs read off repeats of the base face inside a ball."""
    repeats = [n for n in ball.nodes[1:] if n.face == ball.base]
    # the root's frame, then every repeat's, with the lift's points as columns
    frames = np.array([n.points for n in (ball.nodes[0], *repeats)]).swapaxes(1, 2)
    mats = frames[1:] @ np.linalg.inv(frames[0])
    return [
        (n.index, PathHolonomy(m, n.scale)) for n, m in zip(repeats, mats)
    ]


def tile_separation(points_a, points_b) -> float:
    """Separating-axis margin between two developed lifts (float triples).

    An ideal triangle is the straight-edge hull of its boundary points
    in the projective (Klein) disk, so two tiles have disjoint open
    interiors exactly when the flat triangles do.  Returns the smallest
    axis overlap: <= 0 means disjoint interiors (0 for tiles sharing an
    edge), > 0 means genuine overlap of that depth.
    """

    def flat(points):
        return [(x / z, y / z) for x, y, z in points]

    a, b = flat(points_a), flat(points_b)
    best = math.inf
    for tri in (a, b):
        for i in range(3):
            ex = tri[(i + 1) % 3][0] - tri[i][0]
            ey = tri[(i + 1) % 3][1] - tri[i][1]
            nx, ny = -ey, ex
            pa = [nx * x + ny * y for x, y in a]
            pb = [nx * x + ny * y for x, y in b]
            overlap = min(max(pa), max(pb)) - max(min(pa), min(pb))
            norm = math.hypot(nx, ny)
            if norm > 0.0:
                best = min(best, overlap / norm)
    return best


def cusp_closure_residual(
    H: DecoratedBrokenHyperbolic, puncture: int, base: int | None = None
) -> float:
    """|log| of the lambda ratio the puncture loop fails to close by.

    Developing once around the corner cycle re-lands on the start face.
    The fresh copy of the edge entered last carries a definite lambda
    (its pair lambda under the final lift); for an unbroken structure it
    matches the structure's own, and the mismatch factor is exactly the
    loop's lambda-convention holonomy.
    """
    crossings = H.T.corner_cycles[puncture].crossings
    if base is not None:
        starts = [i for i, (f, _) in enumerate(crossings) if f == base]
        if not starts:
            raise ValueError(f"face {base} does not meet puncture {puncture}")
        i = starts[0]
        crossings = crossings[i:] + crossings[:i]

    _, points, _, face = develop_along(H, crossings)
    assert face == crossings[0][0]
    k2 = H.T.gluing[crossings[-1]][1]  # entry slot; the fresh corner sits there
    fresh_slot = (k2 + 1) % 3  # edge joining fresh corner to corner k2+2
    lam_geo = minkowski.lambda_pair(points[k2], points[(k2 + 2) % 3])
    ratio = lam_geo / H.lam[(face, fresh_slot)]
    return abs(float(np.log(ratio)))
