"""Poincare disk pictures of developed balls as standalone SVG.

Tiles are drawn by their geodesic sides: the circular arc through the
two boundary points, orthogonal to the unit circle (a diameter when the
points are antipodal).  Corner decorations become the horocycle circles
tangent to the boundary.  A developed ball is a tree of tiles, so each
side and each horocycle is drawn once, by the tile that introduces it.
"""

from __future__ import annotations

import math

from .develop import DevelopedBall
from .minkowski import horocycle_disk_circle

# The antipodal test lives at the output precision.
ANTIPODAL_TOL = 1e-9

# Width and height of the picture, and the unit disk's radius and
# centre in it, in pixels.
SIZE = 600.0
SCALE = (SIZE - 2.0 * 10.0) / 2.0
MID = SIZE / 2.0


def fmt(x: float) -> str:
    return "%.9g" % (x + 0.0)  # +0.0 folds -0 into 0


def _ray_point(u) -> tuple[float, float]:
    x, y = u[0] / u[2], u[1] / u[2]
    n = math.hypot(x, y)
    return x / n, y / n


def _pix(p) -> tuple[float, float]:
    """Disk coordinates to pixels, y flipped."""
    return MID + SCALE * p[0], MID - SCALE * p[1]


def _edge_element(e1, e2) -> str:
    x1, y1 = _pix(e1)
    x2, y2 = _pix(e2)
    dot = e1[0] * e2[0] + e1[1] * e2[1]
    if 1.0 + dot <= ANTIPODAL_TOL:
        return (
            f'<line class="edge" x1="{fmt(x1)}" y1="{fmt(y1)}" '
            f'x2="{fmt(x2)}" y2="{fmt(y2)}"/>'
        )
    cx = (e1[0] + e2[0]) / (1.0 + dot)
    cy = (e1[1] + e2[1]) / (1.0 + dot)
    r = math.sqrt(max(cx * cx + cy * cy - 1.0, 0.0)) * SCALE
    pcx, pcy = _pix((cx, cy))
    # (P2-P1) x (C-P1) equals (P1-C) x (P2-C); positive means the short
    # way around C runs in SVG's positive-angle direction.
    cross = (x2 - x1) * (pcy - y1) - (y2 - y1) * (pcx - x1)
    sweep = 1 if cross > 0.0 else 0
    return (
        f'<path class="edge" d="M {fmt(x1)} {fmt(y1)} '
        f'A {fmt(r)} {fmt(r)} 0 0 {sweep} {fmt(x2)} {fmt(y2)}"/>'
    )


def _horocycle_element(u) -> str:
    center, hr = horocycle_disk_circle(u)
    px, py = _pix((float(center[0]), float(center[1])))
    return (
        f'<circle class="horocycle" cx="{fmt(px)}" cy="{fmt(py)}" '
        f'r="{fmt(hr * SCALE)}"/>'
    )


def ball_svg(ball: DevelopedBall) -> str:
    """SVG document for a developed ball, each side and horocycle drawn once.

    A child tile shares its entry side, and the two corners on it, with
    its parent and with no other tile: the root draws its three sides and
    corners, every other tile its two other sides and its fresh corner,
    the one at its entry slot.  The corners so drawn are the ball's
    vertices, in their own order.
    """
    cone = ball.vertices.tolist()
    rays = [_ray_point(u) for u in cone]
    body = []
    for ids, entry in zip(ball.corner.tolist(), ball.entry_slot.tolist()):
        body.extend(
            _edge_element(rays[ids[(i + 1) % 3]], rays[ids[(i + 2) % 3]])
            for i in range(3)
            if i != entry
        )
    body.extend(_horocycle_element(u) for u in cone)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(SIZE)}" '
        f'height="{fmt(SIZE)}" viewBox="0 0 {fmt(SIZE)} {fmt(SIZE)}">',
        "<style>",
        ".boundary { fill: none; stroke: #000; stroke-width: 1.5; }",
        ".edge { fill: none; stroke: #1f4e8c; stroke-width: 1; }",
        ".horocycle { fill: none; stroke: #b24a1b; stroke-width: 0.75; }",
        "</style>",
        f'<circle class="boundary" cx="{fmt(MID)}" cy="{fmt(MID)}" '
        f'r="{fmt(SCALE)}"/>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, svg: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
