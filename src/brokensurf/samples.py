"""Seeded generators for structures, measures, and lifts.

Random valid structures come from a product ansatz: gap(f, e) is a
per-face factor times a per-edge factor, so every gap ratio around a
corner cycle telescopes and the holonomy closes up to rounding.  Random
measures start from nonnegative small weights, which satisfy the switch
conditions and triangle inequalities by construction.
"""

from __future__ import annotations

import math

import numpy as np

from . import forms, minkowski
from .foliation import BrokenMeasure, from_small_weights
from .hyperbolic import DecoratedBrokenHyperbolic, embed_unbroken
from .triangulation import IdealTriangulation

# random_boxed_structure and random_unbroken draw lambdas from this box;
# BOX_LOW^2 >= sqrt(2) * BOX_HIGH keeps every face valid, since the worst
# face inequality is lo * lo >= sqrt(2) * hi.
BOX_LOW, BOX_HIGH = 2.0, 2.8
# random_rays keeps each ray RAY_GAP inside its third of the circle.
RAY_GAP = 0.3
RAY_SCALES = (0.5, 2.0)
TRIANGLE_LAMBDAS = (0.5, 3.0)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_valid_structure(
    T: IdealTriangulation, gen: np.random.Generator
) -> DecoratedBrokenHyperbolic:
    """Valid structure with closed puncture holonomy, broken on every edge.

    forms.from_measure of gaps mu_f * beta_e: the beta cancels within each
    crossing and the mu's telescope around each corner cycle.
    """
    beta = gen.uniform(1.0, 1.9, size=T.num_edges)
    mu = gen.uniform(0.6, 1.7, size=T.faces)
    return forms.from_measure(BrokenMeasure(T, mu[:, None] * beta[T.edge_index]))


def random_boxed_structure(
    T: IdealTriangulation, gen: np.random.Generator
) -> DecoratedBrokenHyperbolic:
    """Structure with independent lambdas in the box that keeps faces valid.

    Holonomy is left to fall where it may, so on multi-puncture surfaces
    these are usually not closed.
    """
    lam = gen.uniform(BOX_LOW, BOX_HIGH, size=(T.faces, 3))
    return DecoratedBrokenHyperbolic(T, lam)


def random_unbroken(
    T: IdealTriangulation, gen: np.random.Generator
) -> DecoratedBrokenHyperbolic:
    """Unbroken structure: one boxed lambda per edge, equal on both sides."""
    return embed_unbroken(T, gen.uniform(BOX_LOW, BOX_HIGH, size=T.num_edges))


def random_measure(T: IdealTriangulation, gen: np.random.Generator) -> BrokenMeasure:
    return from_small_weights(T, gen.uniform(0.0, 1.0, size=(T.faces, 3)))


def random_rays(gen: np.random.Generator):
    """Three cone rays at angle-separated boundary directions."""
    base = gen.uniform(0.0, 2.0 * math.pi)
    jitter = gen.uniform(RAY_GAP, 2.0 * math.pi / 3.0 - RAY_GAP, size=3)
    angles = base + np.array([0.0, 1.0, 2.0]) * (2.0 * math.pi / 3.0) + jitter
    scales = gen.uniform(*RAY_SCALES, size=3)
    return [
        s * np.array([math.cos(a), math.sin(a), 1.0])
        for a, s in zip(angles, scales)
    ]


def random_triangle_lambdas(gen: np.random.Generator):
    return [float(gen.uniform(*TRIANGLE_LAMBDAS)) for _ in range(3)]


# One lift's uniforms in draw order: base angle, three angle jitters,
# three ray scales, three lambdas (random_rays then random_triangle_lambdas).
_LIFT_LOW, _LIFT_HIGH = np.repeat(
    [(0.0, 2.0 * math.pi), (RAY_GAP, 2.0 * math.pi / 3.0 - RAY_GAP),
     RAY_SCALES, TRIANGLE_LAMBDAS],
    (1, 3, 3, 3),
    axis=0,
).T
_LIFT_SPAN = _LIFT_HIGH - _LIFT_LOW
_THIRDS = np.array([0.0, 1.0, 2.0]) * (2.0 * math.pi / 3.0)
# _ROTATE[k, c] = (c + k) % 3: vertex k of a triangle rotated to start at c
_ROTATE = np.add.outer(np.arange(3), np.arange(3)) % 3


def _lift_columns(u: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """Solved lifts of the uniforms u (n, 10), coordinate-major (3, 3, n).

    Row r is rotated so that its drawn vertex corner[r] comes first; the
    solver is equivariant under that rotation, so each cone point keeps
    its bits.  cos and sin run on the contiguous (n, 3) angle array.
    """
    n = len(u)
    angles = u[:, :1] + _THIRDS + u[:, 1:4]
    # vertex k of row r is drawn vertex (corner[r] + k) % 3: the flat
    # indices of its angle in angles and of its scale in u, whose lambda
    # sits three entries after the scale
    k = _ROTATE.take(corner, axis=1)
    at_angle, at_scale = k + np.arange(0, 3 * n, 3), k + np.arange(4, 10 * n, 10)
    scales = u.take(at_scale)
    x = scales * np.cos(angles).take(at_angle)
    y = scales * np.sin(angles).take(at_angle)
    return minkowski.solve_columns(np.stack((x, y, scales)), u.take(at_scale + 3))


def _lift_uniforms(gen: np.random.Generator, n: int) -> np.ndarray:
    """n lifts' uniforms (n, 10): the draws and stream of
    gen.uniform(_LIFT_LOW, _LIFT_HIGH, (n, 10)), without its broadcast."""
    return _LIFT_LOW + _LIFT_SPAN * gen.random((n, 10))


def random_corner_lifts(gen: np.random.Generator, n: int) -> np.ndarray:
    """n random lifts, then one uniform corner of each, gen.integers(0, 3, n).

    The lifts draw the stream of n calls of random_lift.  Coordinate-major
    (3, 3, n), each lift rotated so that its sampled corner is vertex 0.
    """
    u = _lift_uniforms(gen, n)
    return _lift_columns(u, gen.integers(0, 3, size=n))


def random_lift(gen: np.random.Generator) -> np.ndarray:
    """solve_triangle(random_rays(gen), random_triangle_lambdas(gen)), bit for bit."""
    lift = _lift_columns(_lift_uniforms(gen, 1), np.zeros(1, dtype=int))
    return lift[..., 0].T.copy()
