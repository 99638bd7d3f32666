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


def random_lifts(gen: np.random.Generator, n: int) -> np.ndarray:
    """n random lifts as an (n, 3, 3) stack of cone points.

    Draws the same stream as n calls of random_lift.
    """
    u = gen.uniform(_LIFT_LOW, _LIFT_HIGH, size=(n, 10))
    base, jitter, scales, lambdas = u[:, :1], u[:, 1:4], u[:, 4:7], u[:, 7:]
    angles = base + np.array([0.0, 1.0, 2.0]) * (2.0 * math.pi / 3.0) + jitter
    rays = np.stack([np.cos(angles), np.sin(angles), np.ones_like(angles)], axis=-1)
    return minkowski.solve_triangles(scales[..., None] * rays, lambdas)


def random_lift(gen: np.random.Generator) -> np.ndarray:
    return random_lifts(gen, 1)[0]
