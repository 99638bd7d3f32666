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

from . import minkowski
from .foliation import BrokenMeasure, from_small_weights
from .hyperbolic import DecoratedBrokenHyperbolic
from .triangulation import IdealTriangulation


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_valid_structure(
    T: IdealTriangulation, gen: np.random.Generator
) -> DecoratedBrokenHyperbolic:
    """Valid structure with closed puncture holonomy, broken on every edge.

    gap(f, s) = mu_f * beta_e: the beta cancels within each crossing and
    the mu's telescope around each corner cycle.
    """
    beta = gen.uniform(1.0, 1.9, size=T.num_edges)
    mu = gen.uniform(0.6, 1.7, size=T.faces)
    gaps = mu[:, None] * beta[T.edge_index]
    lam = [math.sqrt(2.0 * math.exp(gap)) for gap in gaps.ravel().tolist()]
    return DecoratedBrokenHyperbolic(T, np.reshape(lam, (-1, 3)))


def random_boxed_structure(
    T: IdealTriangulation,
    gen: np.random.Generator,
    lo: float = 2.0,
    hi: float = 2.8,
) -> DecoratedBrokenHyperbolic:
    """Structure with independent lambdas in a box that keeps faces valid.

    Any box with lo^2 >= sqrt(2) * hi works: the worst face inequality
    is lo * lo >= sqrt(2) * hi.  Holonomy is left to fall where it may,
    so on multi-puncture surfaces these are usually not closed.
    """
    if lo * lo < math.sqrt(2.0) * hi:
        raise ValueError("box allows triangle inequality violations")
    return DecoratedBrokenHyperbolic(T, gen.uniform(lo, hi, size=(T.faces, 3)))


def random_unbroken(
    T: IdealTriangulation,
    gen: np.random.Generator,
    lo: float = 2.0,
    hi: float = 2.8,
) -> DecoratedBrokenHyperbolic:
    """Unbroken structure: one boxed lambda per edge, equal on both sides."""
    if lo * lo < math.sqrt(2.0) * hi:
        raise ValueError("box allows triangle inequality violations")
    per_edge = gen.uniform(lo, hi, size=T.num_edges)
    return DecoratedBrokenHyperbolic(T, per_edge[T.edge_index])


def random_measure(T: IdealTriangulation, gen: np.random.Generator) -> BrokenMeasure:
    return from_small_weights(T, gen.uniform(0.0, 1.0, size=(T.faces, 3)))


def random_rays(gen: np.random.Generator, min_gap: float = 0.3):
    """Three cone rays at angle-separated boundary directions."""
    base = gen.uniform(0.0, 2.0 * math.pi)
    jitter = gen.uniform(min_gap, 2.0 * math.pi / 3.0 - min_gap, size=3)
    angles = base + np.array([0.0, 1.0, 2.0]) * (2.0 * math.pi / 3.0) + jitter
    scales = gen.uniform(0.5, 2.0, size=3)
    return [
        s * np.array([math.cos(a), math.sin(a), 1.0])
        for a, s in zip(angles, scales)
    ]


def random_triangle_lambdas(gen: np.random.Generator):
    return [float(gen.uniform(0.5, 3.0)) for _ in range(3)]


# One lift's uniforms in draw order: base angle, three angle jitters,
# three ray scales, three lambdas (random_rays then random_triangle_lambdas).
_LIFT_LOW = np.array([0.0] + [0.3] * 3 + [0.5] * 3 + [0.5] * 3)
_LIFT_HIGH = np.array(
    [2.0 * math.pi] + [2.0 * math.pi / 3.0 - 0.3] * 3 + [2.0] * 3 + [3.0] * 3
)


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


def random_tangent(gen: np.random.Generator, n: int) -> np.ndarray:
    return gen.standard_normal(n)
