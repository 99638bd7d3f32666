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

import math
from dataclasses import dataclass

from .errors import DegenerateEdge, TriangleInequalityViolated
from .hyperbolic import ValidityReport
from .triangulation import IdealTriangulation, Pair, Sector


class BrokenMeasure:
    """Nonnegative large-branch weights on an ideal triangulation's freeway."""

    def __init__(self, T: IdealTriangulation, w) -> None:
        self.T = T
        table = {}
        for pair in T.pairs:
            if pair not in w:
                raise ValueError(f"missing weight for pair {pair}")
            value = float(w[pair])
            if not math.isfinite(value):
                raise ValueError(f"weight at {pair} must be finite, got {value}")
            table[pair] = value
        extra = set(w) - set(T.pairs)
        if extra:
            raise ValueError(f"weights given for unknown pairs: {sorted(extra)}")
        self.w = table

    def small(self, sector: Sector, tol: float = 1e-12) -> float:
        """Small-branch weight at the sector's corner; clamps float dust."""
        f, c = sector
        value = 0.5 * (
            self.w[(f, (c + 1) % 3)] + self.w[(f, (c + 2) % 3)] - self.w[(f, c)]
        )
        scale = max(1.0, *(abs(self.w[(f, s)]) for s in (0, 1, 2)))
        if value < -tol * scale:
            raise TriangleInequalityViolated(
                f"face {f} weights give small weight {value} at corner {c}"
            )
        return max(value, 0.0)

    def small_weights(self) -> dict:
        return {sec: self.small(sec) for sec in self.T.sectors}

    def homothety_factor(self, pair: Pair) -> float:
        """w(far)/w(near) across the pair's edge."""
        far = self.T.gluing[pair]
        if self.w[pair] == 0.0:
            raise DegenerateEdge(f"zero weight at {pair} in a ratio denominator")
        return self.w[far] / self.w[pair]

    def scale(self, r: float) -> "BrokenMeasure":
        if r < 0.0:
            raise ValueError("scaling factor must be nonnegative")
        return BrokenMeasure(self.T, {p: r * v for p, v in self.w.items()})

    def shift(self, pair: Pair) -> float:
        """Signed offset of the far face's singular-leaf hit point.

        Positions along the edge are measured from the near face's
        tail-end crossing in its ccw boundary direction; the foreign hit
        point is rescaled by w(near)/w(far) through the edge gluing.
        Same sign convention as the hyperbolic shift, and equal to it
        through the gap chart.
        """
        far = self.T.gluing[pair]
        f, k = pair
        g, k2 = far
        if self.w[far] == 0.0 or self.w[pair] == 0.0:
            raise DegenerateEdge(f"zero weight on edge of {pair}; gluing unpinned")
        own = self.small((f, (k + 1) % 3))
        foreign = self.small((g, (k2 + 2) % 3))  # far corner at our tail end
        return foreign * (self.w[pair] / self.w[far]) - own

    def holonomy(self, loop) -> float:
        """Product of homothety factors along a closed dual path."""
        phi = 1.0
        for near in loop:
            phi *= self.homothety_factor(near)
        return phi

    def validate(self, tol: float = 1e-12) -> ValidityReport:
        report = ValidityReport(valid=True)
        negative = [p for p in self.T.pairs if self.w[p] < 0.0]
        report.add(
            "weights_nonnegative",
            not negative,
            max((-self.w[p] for p in negative), default=0.0),
            f"negative weights at pairs: {negative}" if negative else "",
        )

        bad_faces = []
        worst = 0.0
        for f in range(self.T.faces):
            ws = [self.w[(f, s)] for s in (0, 1, 2)]
            scale = max(1.0, *(abs(x) for x in ws))
            for c in range(3):
                value = 0.5 * (ws[(c + 1) % 3] + ws[(c + 2) % 3] - ws[c])
                worst = min(worst, value / scale)
                if value < -tol * scale:
                    bad_faces.append((f, c, value))
        report.add(
            "triangle_inequalities",
            not bad_faces,
            -worst,
            f"negative small weights at (face, corner, value): {bad_faces}"
            if bad_faces else "",
        )

        if not bad_faces and not negative:
            worst_switch = 0.0
            for f in range(self.T.faces):
                for k in range(3):
                    lhs = self.small((f, (k + 1) % 3)) + self.small((f, (k + 2) % 3))
                    scale = max(1.0, abs(self.w[(f, k)]))
                    worst_switch = max(
                        worst_switch, abs(lhs - self.w[(f, k)]) / scale
                    )
            report.add("switch_conditions", worst_switch <= tol, worst_switch)
        return report

    def to_dict(self) -> dict:
        return {
            "triangulation": self.T.to_dict(),
            "w": {f"{f}.{s}": self.w[(f, s)] for f, s in self.T.pairs},
        }


def from_small_weights(T: IdealTriangulation, smalls) -> BrokenMeasure:
    """Rebuild large weights from small ones through the switch conditions."""
    w = {}
    for f, k in T.pairs:
        w[(f, k)] = smalls[(f, (k + 1) % 3)] + smalls[(f, (k + 2) % 3)]
    return BrokenMeasure(T, w)


def puncture_loop_vector(T: IdealTriangulation, puncture: int) -> BrokenMeasure:
    """Counting measure of the boundary-parallel loop around a puncture.

    The loop runs along the small branch of each sector in the corner
    cycle and along both large branches of each crossed edge.
    """
    w = {p: 0.0 for p in T.pairs}
    for near in T.corner_cycles[puncture].crossings:
        w[near] += 1.0
        w[T.gluing[near]] += 1.0
    return BrokenMeasure(T, w)


@dataclass(frozen=True)
class DecoratedFoliationPoint:
    """A broken measure together with one collar weight per puncture."""

    measure: BrokenMeasure
    collars: tuple

    def total(self) -> BrokenMeasure:
        """Recombine collars into the carried measure."""
        T = self.measure.T
        w = dict(self.measure.w)
        for puncture, c in enumerate(self.collars):
            for near in T.corner_cycles[puncture].crossings:
                w[near] += c
                w[T.gluing[near]] += c
        return BrokenMeasure(T, w)


@dataclass(frozen=True)
class CollarSplit:
    """Result of peeling maximal boundary-parallel collars off a measure."""

    core: BrokenMeasure
    collars: tuple

    def point(self) -> DecoratedFoliationPoint:
        return DecoratedFoliationPoint(self.core, self.collars)


def split_collars(m: BrokenMeasure) -> CollarSplit:
    """Peel off each puncture's maximal collar.

    The collar weight of a puncture is the minimum small weight over its
    corner cycle; subtracting collar multiples of the boundary loop
    vectors leaves a core whose per-puncture minimum small weight is zero.
    """
    T = m.T
    smalls = m.small_weights()
    collars = []
    for cyc in T.corner_cycles:
        collars.append(min(smalls[sec] for sec in cyc.sectors))
    w = {}
    for f, k in T.pairs:
        w[(f, k)] = (
            m.w[(f, k)]
            - collars[T.puncture_of[(f, (k + 1) % 3)]]
            - collars[T.puncture_of[(f, (k + 2) % 3)]]
        )
    return CollarSplit(BrokenMeasure(T, w), tuple(collars))
