"""Poincare disk pictures of developed balls as standalone SVG.

Tiles are drawn by their geodesic sides: the circular arc through the
two boundary points, orthogonal to the unit circle (a diameter when the
points are antipodal).  Corner decorations become the horocycle circles
tangent to the boundary.  A developed ball is a tree of tiles, so each
side and each horocycle is drawn once, by the tile that introduces it.

The picture is written from the ball's arrays: every side's and every
horocycle's numbers in stacked IEEE operations, the same ones in the
same order as a side-by-side drawing takes, then one %-template per
element, all filled by one format operation.  A side's end points
depend only on its two vertices, so each vertex's pixel coordinates are
formatted once and gathered through the ball's corner table by the
sides that end there; each arc's radius is formatted once for both of
its radii.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .develop import DevelopedBall
from .minkowski import hypots

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

# Element templates.  A side's numbers come written by _written: each
# end as "x y", and an arc's radius once for both of its radii.  A
# horocycle's are written here, by the %.9g that fmt uses.
_LINE = '<line class="edge" x1="%s" y1="%s" x2="%s" y2="%s"/>'
_ARC = '<path class="edge" d="M %s A %s %s 0 0 %d %s"/>'
_HOROCYCLE = '<circle class="horocycle" cx="%.9g" cy="%.9g" r="%.9g"/>'


def _written(*columns: np.ndarray) -> np.ndarray:
    """Per entry, fmt of each column's value joined by spaces.

    An object array of strings, for sides to gather from.
    """
    row = " ".join(["%.9g"] * len(columns))
    values = (np.column_stack(columns) + 0.0).ravel().tolist()
    text = "\n".join([row] * len(columns[0])) % tuple(values)
    return np.array(text.split("\n"), dtype=object)


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
    norm = hypots(x, y)
    ex, ey = x / norm, y / norm
    # the sides node by node, slot by slot: side i runs from corner i + 1
    # to corner i + 2; the root's entry slot is -1, so it draws all three
    slot = np.arange(3)
    drawn = slot != ball.entry_slot[:, None]
    a = ball.corner[:, (slot + 1) % 3][drawn]
    b = ball.corner[:, (slot + 2) % 3][drawn]
    e1x, e1y, e2x, e2y = ex[a], ey[a], ex[b], ey[b]
    # a side's ends are its corners' pixels: the same floats gathered
    px, py = MID + SCALE * ex, MID - SCALE * ey
    x1, y1, x2, y2 = px[a], py[a], px[b], py[b]
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
    # each vertex's pixel written once, then gathered by the sides' corners
    pixel = _written(px, py)
    p1, p2, r = pixel[a].tolist(), pixel[b].tolist(), _written(r).tolist()
    rows = list(zip(p1, r, r, sweep, p2))
    templates = [_ARC] * len(rows)
    for k in np.flatnonzero(line).tolist():
        rows[k] = (*p1[k].split(), *p2[k].split())
        templates[k] = _LINE
    # each vertex's horocycle: centre and radius of h(u) projected to the
    # cone along z, as minkowski.horocycle_disk_circle has them
    z = hypots(u, v)
    if (z <= 0.0).any():
        raise ValueError("cone ray must point up")
    lift = z + 1.0
    hx, hy = u / lift, v / lift
    horocycles = (MID + SCALE * hx, MID - SCALE * hy, 1.0 / lift * SCALE)
    rows.extend(zip(*((c + 0.0).tolist() for c in horocycles)))
    templates.extend([_HOROCYCLE] * len(z))
    body = "\n".join(templates) % tuple(chain.from_iterable(rows))
    return f"{_HEAD}\n{body}\n</svg>\n"
