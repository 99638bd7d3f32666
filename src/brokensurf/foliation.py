"""Weight coordinates for broken measured foliations on the dual freeway.

A broken measure assigns a nonnegative weight to every large branch,
i.e. to every (face, slot) pair; the two sides of an edge may disagree.
Small-branch weights are determined per face by the corner equations
small(c) = (w(c+1) + w(c+2) - w(c)) / 2, whose nonnegativity is exactly
the triangle inequality, and they satisfy the switch condition
small(k+1) + small(k+2) = w(k) at the trivalent vertex of slot k.

On an edge, the measured segment between the two decoration crossings
carries total weight w(t, e) on side t; the singular leaf from t's
tripod hits it at distance small(t, tail corner) from the tail end,
tail and head taken along t's ccw boundary direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TriangleInequalityViolated
from .hyperbolic import EPS, ValidityReport
from .triangulation import NEXT, PREV, IdealTriangulation, read_only

# Switch conditions per face, w(k) = small(k+1) + small(k+2), as the map
# w = small @ LARGE_FROM_SMALL.T.  L @ L = L + 2I, so its inverse (L - I)/2,
# exact in floats, is the corner equations small(c) = (w(c+1) + w(c+2) - w(c))/2.
LARGE_FROM_SMALL = 1.0 - np.eye(3)
SMALL_FROM_LARGE = (LARGE_FROM_SMALL - np.eye(3)) / 2.0

# Small weights down to -DUST_TOL times the face scale are rounding dust,
# which small_weights clamps to 0; validate's default tolerance.
DUST_TOL = 1e-12


class BrokenMeasure:
    """Nonnegative large-branch weights on an ideal triangulation's freeway.

    w is a read-only (F, 3) float array indexed [face, slot], built like
    DecoratedBrokenHyperbolic.lam; since it cannot change, the small
    weights are computed on first use and kept on the measure.
    """

    def __init__(self, T: IdealTriangulation, w) -> None:
        self.T = T
        self.w = T.pair_table(w, "weight", positive=False)

    @cached_property
    def _smalls(self) -> np.ndarray:
        """Unclamped small weights, w @ SMALL_FROM_LARGE.T.

        Halving first is exact, so each value rounds as the corner equations'
        (neighbour sum - own weight) / 2 does, and no sum of two weights
        near the float maximum overflows.
        """
        half = 0.5 * self.w
        return half @ LARGE_FROM_SMALL.T - half

    @cached_property
    def _face_scale(self) -> np.ndarray:
        """max(1, |w|) over each face's three slots, shape (F, 1)."""
        return np.maximum(1.0, np.abs(self.w).max(axis=1, keepdims=True))

    def small_weights(self) -> np.ndarray:
        """Every small weight, dust clamped; TriangleInequalityViolated if negative."""
        bad = np.flatnonzero(self._smalls < -DUST_TOL * self._face_scale)
        if bad.size:
            f, c = divmod(int(bad[0]), 3)
            raise TriangleInequalityViolated(
                f"face {f} weights give small weight {float(self._smalls[f, c])}"
                f" at corner {c}"
            )
        return np.maximum(self._smalls, 0.0)

    @cached_property
    def homothety_factors(self) -> np.ndarray:
        """w(far) / w(near) per pair; NaN where w(near) is zero."""
        w = self.w
        nan = np.full_like(w, np.nan)
        return read_only(np.divide(w.ravel()[self.T.partner], w, out=nan, where=w != 0))

    def scale(self, r: float) -> "BrokenMeasure":
        if r < 0.0:
            raise ValueError("scaling factor must be nonnegative")
        return BrokenMeasure(self.T, r * self.w)

    def shifts(self) -> np.ndarray:
        """Signed offset of the far face's singular-leaf hit point, per pair.

        Positions along the edge are measured from the near face's
        tail-end crossing in its ccw boundary direction; the foreign hit
        point is rescaled by w(near)/w(far) through the edge gluing, so
        the shift is NaN on an edge with a zero weight.  Same sign
        convention as the hyperbolic shift, and equal to it through the
        gap chart.  Raises as small_weights() does.
        """
        far = self.T.partner
        smalls = self.small_weights()
        foreign = smalls[:, PREV].ravel()[far]  # far corner at our tail end
        near_over_far = self.homothety_factors.ravel()[far]  # NaN at w(far) = 0
        return foreign * np.where(self.w == 0, np.nan, near_over_far) - smalls[:, NEXT]

    def validate(self, tol: float = DUST_TOL) -> ValidityReport:
        """Nonnegativity, then triangle and switch checks on the face scale.

        A switch clamps at most tol * face scale, so it holds within tol + 4 eps.
        """
        report = ValidityReport(valid=True)
        w = self.w
        negative = self.T.pairs_where(w < 0.0)
        report.add(
            "weights_nonnegative",
            not negative,
            float(-w.min()) if negative else 0.0,
            f"negative weights at pairs: {negative}" if negative else "",
        )

        smalls, scale = self._smalls, self._face_scale
        short = smalls < -tol * scale
        bad_faces = [
            (f, c, value)
            for (f, c), value in zip(self.T.pairs_where(short), smalls[short].tolist())
        ]
        report.add(
            "triangle_inequalities",
            not bad_faces,
            max(0.0, -float((smalls / scale).min())),
            f"negative small weights at (face, corner, value): {bad_faces}"
            if bad_faces else "",
        )

        if not bad_faces and not negative:
            lhs = np.maximum(smalls, 0.0) @ LARGE_FROM_SMALL.T
            switch = float(np.max(np.abs(lhs - w) / scale))
            report.add("switch_conditions", switch <= tol + 4.0 * EPS, switch)
        return report

    def to_dict(self) -> dict:
        return {"triangulation": self.T.to_dict(), "w": self.T.pair_dict(self.w)}


def from_small_weights(T: IdealTriangulation, smalls) -> BrokenMeasure:
    """Rebuild large weights from small ones through the switch conditions.

    smalls is keyed by sector, as a mapping or an (F, 3) array.
    """
    table = T.pair_table(smalls, "small weight", positive=False)
    return BrokenMeasure(T, table @ LARGE_FROM_SMALL.T)


def _collar_weights(T: IdealTriangulation, collars) -> np.ndarray:
    """Weights of sum_i collars[i] * (puncture i's boundary loop), per pair.

    The loop around a puncture runs along both large branches of each
    edge it crosses, so a pair carries the collars of the punctures at
    its two ends, the corners k+1 and k+2 of its face.
    """
    c = np.asarray(collars, dtype=float)
    return c[T.puncture_of[:, NEXT]] + c[T.puncture_of[:, PREV]]


def puncture_loop_vector(T: IdealTriangulation, puncture: int) -> BrokenMeasure:
    """Counting measure of the boundary-parallel loop around a puncture.

    The loop runs along the small branch of each sector in the corner
    cycle and along both large branches of each crossed edge.
    """
    return BrokenMeasure(T, _collar_weights(T, np.arange(T.num_punctures) == puncture))


@dataclass(frozen=True)
class CollarSplit:
    """A measure's core and one collar weight per puncture.

    Together they are the paper's decorated foliation point; total()
    recombines them into the measure that was split.
    """

    core: BrokenMeasure
    collars: tuple

    def total(self) -> BrokenMeasure:
        """Recombine collars into the carried measure."""
        T = self.core.T
        return BrokenMeasure(T, self.core.w + _collar_weights(T, self.collars))


def split_collars(m: BrokenMeasure) -> CollarSplit:
    """Peel off each puncture's maximal collar.

    The collar weight of a puncture is the minimum small weight over its
    corner cycle; subtracting collar multiples of the boundary loop
    vectors leaves a core whose per-puncture minimum small weight is zero.
    """
    T = m.T
    collars = np.full(T.num_punctures, np.inf)
    np.minimum.at(collars, T.puncture_of.ravel(), m.small_weights().ravel())
    core = BrokenMeasure(T, m.w - _collar_weights(T, collars))
    return CollarSplit(core, tuple(collars.tolist()))
