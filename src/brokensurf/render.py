"""Poincare disk pictures of developed balls as standalone SVG.

Tiles are drawn by their geodesic sides: the circular arc through the
two boundary points, orthogonal to the unit circle (a diameter when the
points are antipodal).  Corner decorations become the horocycle circles
tangent to the boundary.  A developed ball is a tree of tiles, so each
side and each horocycle is drawn once, by the tile that introduces it.

The picture is written from the ball's arrays: every side's and every
horocycle's numbers in stacked IEEE operations, the same ones in the
same order as a side-by-side drawing takes, then one %-template per
element, all filled by one format operation.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .develop import DevelopedBall

# The antipodal test lives at the output precision.
ANTIPODAL_TOL = 1e-9

# Width and height of the picture, and the unit disk's radius and
# centre in it, in pixels.
SIZE = 600.0
SCALE = (SIZE - 2.0 * 10.0) / 2.0
MID = SIZE / 2.0


def fmt(x: float) -> str:
    return "%.9g" % (x + 0.0)  # +0.0 folds -0 into 0


_HEAD = "\n".join([
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(SIZE)}" '
    f'height="{fmt(SIZE)}" viewBox="0 0 {fmt(SIZE)} {fmt(SIZE)}">',
    "<style>",
    ".boundary { fill: none; stroke: #000; stroke-width: 1.5; }",
    ".edge { fill: none; stroke: #1f4e8c; stroke-width: 1; }",
    ".horocycle { fill: none; stroke: #b24a1b; stroke-width: 0.75; }",
    "</style>",
    f'<circle class="boundary" cx="{fmt(MID)}" cy="{fmt(MID)}" '
    f'r="{fmt(SCALE)}"/>',
])

# Element templates; every float is written as fmt writes it.
_LINE = '<line class="edge" x1="%.9g" y1="%.9g" x2="%.9g" y2="%.9g"/>'
_ARC = '<path class="edge" d="M %.9g %.9g A %.9g %.9g 0 0 %d %.9g %.9g"/>'
_HOROCYCLE = '<circle class="horocycle" cx="%.9g" cy="%.9g" r="%.9g"/>'


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """math.hypot per entry: np.hypot can differ from it in the last bit."""
    return np.array(list(map(math.hypot, x.tolist(), y.tolist())))


def _out(*columns: np.ndarray) -> list:
    """Each column as Python floats with -0 folded into 0, as fmt has it."""
    return [(c + 0.0).tolist() for c in columns]


def ball_svg(ball: DevelopedBall) -> str:
    """SVG document for a developed ball, each side and horocycle drawn once.

    A child tile shares its entry side, and the two corners on it, with
    its parent and with no other tile: the root draws its three sides and
    corners, every other tile its two other sides and its fresh corner,
    the one at its entry slot.  The corners so drawn are the ball's
    vertices, in their own order.
    """
    u, v, w = ball.vertices.T
    # each vertex's boundary point in the disk
    x, y = u / w, v / w
    norm = _hypot(x, y)
    ex, ey = x / norm, y / norm
    # the sides node by node, slot by slot: side i runs from corner i + 1
    # to corner i + 2; the root's entry slot is -1, so it draws all three
    slot = np.arange(3)
    drawn = slot != ball.entry_slot[:, None]
    a = ball.corner[:, (slot + 1) % 3][drawn]
    b = ball.corner[:, (slot + 2) % 3][drawn]
    e1x, e1y, e2x, e2y = ex[a], ey[a], ex[b], ey[b]
    x1, y1 = MID + SCALE * e1x, MID - SCALE * e1y
    x2, y2 = MID + SCALE * e2x, MID - SCALE * e2y
    dot = e1x * e2x + e1y * e2y
    line = 1.0 + dot <= ANTIPODAL_TOL
    with np.errstate(divide="ignore", invalid="ignore"):  # at lines only
        cx = (e1x + e2x) / (1.0 + dot)
        cy = (e1y + e2y) / (1.0 + dot)
        r = np.sqrt(np.maximum(cx * cx + cy * cy - 1.0, 0.0)) * SCALE
    pcx, pcy = MID + SCALE * cx, MID - SCALE * cy
    # (P2-P1) x (C-P1) equals (P1-C) x (P2-C); positive means the short
    # way around C runs in SVG's positive-angle direction.
    cross = (x2 - x1) * (pcy - y1) - (y2 - y1) * (pcx - x1)
    sweep = (cross > 0.0).astype(int).tolist()
    x1, y1, r, x2, y2 = _out(x1, y1, r, x2, y2)
    rows = list(zip(x1, y1, r, r, sweep, x2, y2))
    templates = [_ARC] * len(rows)
    for k in np.flatnonzero(line).tolist():
        rows[k] = (x1[k], y1[k], x2[k], y2[k])
        templates[k] = _LINE
    # each vertex's horocycle: centre and radius of h(u) projected to the
    # cone along z, as minkowski.horocycle_disk_circle has them
    z = _hypot(u, v)
    if (z <= 0.0).any():
        raise ValueError("cone ray must point up")
    lift = z + 1.0
    hx, hy = u / lift, v / lift
    rows.extend(zip(*_out(MID + SCALE * hx, MID - SCALE * hy, 1.0 / lift * SCALE)))
    templates.extend([_HOROCYCLE] * len(z))
    body = "\n".join(templates) % tuple(chain.from_iterable(rows))
    return f"{_HEAD}\n{body}\n</svg>\n"
