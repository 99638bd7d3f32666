"""Lambda-length charts for decorated broken hyperbolic structures.

A structure assigns a positive lambda to every (face, slot) pair; the two
sides of an edge may disagree, which is the brokenness.  The horocycle
gap of a pair is delta = log(lambda^2 / 2), the distance cut off on the
edge between the decoration horocycles at its two ends, measured in that
face's metric.  Edge gluings are pinned by the two decoration crossing
points, so the homothety factor across an edge is the gap ratio
delta(far)/delta(near) and vanishing gaps leave the gluing underdetermined.

Validity: per face, lambda_j * lambda_k >= sqrt(2) * lambda_i for each
slot i (equivalently the dual small weights are nonnegative), and the
gap-ratio product around every puncture is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import minkowski
from .errors import DegenerateEdge, InvalidDecoration
from .triangulation import IdealTriangulation, Pair, Sector

SQRT2 = math.sqrt(2.0)

# Gaps this close to zero count as exactly degenerate decoration.
GAP_FLOOR = 1e-12


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "detail": self.detail,
        }


@dataclass
class ValidityReport:
    valid: bool
    checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def add(self, name: str, passed: bool, residual: float, detail: str = "") -> None:
        """Record one check; a failed check makes the report invalid."""
        self.checks.append(CheckResult(name, passed, residual, detail))
        if not passed:
            self.valid = False

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "checks": [c.to_dict() for c in self.checks],
            "warnings": list(self.warnings),
        }


class DecoratedBrokenHyperbolic:
    """Per-pair lambda lengths on an ideal triangulation.

    Treat instances as immutable; derived structures are recomputed on
    demand (everything here is desk-scale).
    """

    def __init__(self, T: IdealTriangulation, lam) -> None:
        self.T = T
        table = {}
        for pair in T.pairs:
            if pair not in lam:
                raise ValueError(f"missing lambda for pair {pair}")
            value = float(lam[pair])
            if not value > 0.0 or not math.isfinite(value):
                raise ValueError(f"lambda at {pair} must be positive, got {value}")
            table[pair] = value
        extra = set(lam) - set(T.pairs)
        if extra:
            raise ValueError(f"lambdas given for unknown pairs: {sorted(extra)}")
        self.lam = table

    # --- local quantities --------------------------------------------

    def gap(self, pair: Pair) -> float:
        """Horocycle gap delta = log(lambda^2 / 2); zero at lambda = sqrt(2)."""
        d = math.log(self.lam[pair] ** 2 / 2.0)
        if d < -GAP_FLOOR:
            raise InvalidDecoration(
                f"lambda at {pair} is below sqrt(2): gap {d}"
            )
        return max(d, 0.0)

    def is_degenerate(self, pair: Pair) -> bool:
        return self.gap(pair) <= GAP_FLOOR

    def gap_ratio(self, pair: Pair) -> float:
        """Homothety factor across the pair's edge, near side to far side."""
        far = self.T.gluing[pair]
        denom = self.gap(pair)
        if denom <= GAP_FLOOR:
            raise DegenerateEdge(f"zero gap at {pair} pins no gluing scale")
        return self.gap(far) / denom

    def lambda_ratio(self, pair: Pair) -> float:
        """lambda(far)/lambda(near); the developing map's crossing scale."""
        far = self.T.gluing[pair]
        return self.lam[far] / self.lam[pair]

    def puncture_holonomy(self, puncture: int, convention: str = "gap") -> float:
        """Product of directed edge ratios around a corner cycle."""
        cycle = self.T.corner_cycles[puncture]
        ratio = {"gap": self.gap_ratio, "lambda": self.lambda_ratio}[convention]
        phi = 1.0
        for near in cycle.crossings:
            phi *= ratio(near)
        return phi

    def h_length(self, sector: Sector) -> float:
        """Horocyclic length coordinate lambda_i / (lambda_j * lambda_k)."""
        f, c = sector
        return self.lam[(f, c)] / (
            self.lam[(f, (c + 1) % 3)] * self.lam[(f, (c + 2) % 3)]
        )

    def face_lift(self, f: int) -> minkowski.TriangleLift:
        """Hyperboloid lift of one face on the default rays."""
        return minkowski.solve_triangle(
            minkowski.DEFAULT_RAYS,
            [self.lam[(f, 0)], self.lam[(f, 1)], self.lam[(f, 2)]],
        )

    def geometric_arc(self, sector: Sector) -> float:
        """Decoration horocycle arc cut off inside the sector's face.

        Computed on an explicit hyperboloid lift, not from h_length; the
        two stay proportional by the calibrated constant sqrt(2).
        """
        f, c = sector
        return minkowski.horocycle_arc(self.face_lift(f), c)

    def coupling_residual(self, pair: Pair) -> float:
        """h-length product mismatch across the pair's edge.

        The two sector h-lengths at the ends of an edge multiply to
        1/lambda(t, e)^2 within each face, so the residual vanishes
        exactly on unbroken structures.
        """
        far = self.T.gluing[pair]
        f, k = pair
        g, k2 = far
        own = self.h_length((f, (k + 1) % 3)) * self.h_length((f, (k + 2) % 3))
        other = self.h_length((g, (k2 + 1) % 3)) * self.h_length((g, (k2 + 2) % 3))
        return own - other

    # --- shift coordinates -------------------------------------------

    def _foot_positions(self, pair: Pair) -> tuple[float, float]:
        """Distinguished-point coordinates on the pair's edge.

        The edge is parametrized by arc length in the near face's metric,
        zero at the near face's tail-end decoration crossing, increasing
        along the near face's ccw boundary direction.  Returns (own foot,
        foreign foot), the foreign one transported through the gluing.
        """
        far = self.T.gluing[pair]
        f, k = pair
        g, k2 = far
        own_gap = self.gap(pair)
        far_gap = self.gap(far)
        if own_gap <= GAP_FLOOR or far_gap <= GAP_FLOOR:
            raise DegenerateEdge(f"zero gap on edge of {pair}; gluing unpinned")
        own = math.log(
            self.lam[(f, k)] * self.lam[(f, (k + 2) % 3)]
            / (SQRT2 * self.lam[(f, (k + 1) % 3)])
        )
        # Far face seen from the near side: its corner k2+2 sits at our
        # tail, its corner k2+1 at our head, so its own tail/head roles swap.
        foreign = math.log(
            self.lam[(g, k2)] * self.lam[(g, (k2 + 1) % 3)]
            / (SQRT2 * self.lam[(g, (k2 + 2) % 3)])
        )
        return own, foreign * (own_gap / far_gap)

    def shift(self, pair: Pair) -> float:
        """Signed offset between the two faces' feet of perpendiculars.

        Measured along the edge in the near face's metric, oriented by
        its ccw boundary direction, with the gluing pinned by the
        decoration crossings.  The two sides of a pair measure from
        opposite ends, so their shifts are not simple rescalings of each
        other; matching the weight-chart shift is the invariant checked
        in the tests.
        """
        own, foreign = self._foot_positions(pair)
        return foreign - own

    # --- global checks ------------------------------------------------

    def validate(self, tol: float = 1e-9) -> ValidityReport:
        report = ValidityReport(valid=True)
        worst = 0.0
        bad = []
        for f in range(self.T.faces):
            lams = [self.lam[(f, s)] for s in (0, 1, 2)]
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                margin = lams[j] * lams[k] - SQRT2 * lams[i]
                rel = margin / (lams[j] * lams[k])
                worst = min(worst, rel)
                if rel < -tol:
                    bad.append((f, i))
        report.add(
            "face_inequalities",
            not bad,
            -worst,
            f"violations at (face, slot): {bad}" if bad else "",
        )

        # Same predicate as gap(), so a structure that passes never makes
        # gap() raise.
        below = [
            p for p in self.T.pairs
            if math.log(self.lam[p] ** 2 / 2.0) < -GAP_FLOOR
        ]
        report.add(
            "gaps_nonnegative",
            not below,
            max((SQRT2 - self.lam[p]) / SQRT2 for p in self.T.pairs)
            if below else 0.0,
            f"lambda below sqrt(2) at pairs: {below}" if below else "",
        )

        degenerate = [
            p for p in self.T.pairs
            if abs(self.lam[p] - SQRT2) <= SQRT2 * tol
        ]
        if degenerate:
            report.warnings.append(
                f"degenerate decoration (zero horocycle gap) at pairs {degenerate}"
            )

        if degenerate or below:
            report.add(
                "puncture_holonomy",
                True,
                0.0,
                "skipped: gap ratios undefined on degenerate pairs",
            )
        else:
            worst_phi = 0.0
            bad_cycles = []
            for cyc in self.T.corner_cycles:
                phi = self.puncture_holonomy(cyc.index, "gap")
                err = abs(phi - 1.0)
                worst_phi = max(worst_phi, err)
                if err > tol:
                    bad_cycles.append((cyc.index, phi))
            report.add(
                "puncture_holonomy",
                not bad_cycles,
                worst_phi,
                f"nontrivial at punctures: {bad_cycles}" if bad_cycles else "",
            )
        return report

    def is_unbroken(self, tol: float = 0.0) -> bool:
        return all(
            abs(self.lam[p] - self.lam[q]) <= tol * self.lam[p]
            for p, q in self.T.edges
        )

    def to_dict(self) -> dict:
        return {
            "triangulation": self.T.to_dict(),
            "lambda": {f"{f}.{s}": self.lam[(f, s)] for f, s in self.T.pairs},
        }


def embed_unbroken(T: IdealTriangulation, edge_lambdas) -> DecoratedBrokenHyperbolic:
    """Structure with equal lambdas on both sides of every edge.

    edge_lambdas maps edge index to lambda, or is a sequence in edge order.
    """
    if not isinstance(edge_lambdas, dict):
        edge_lambdas = dict(enumerate(edge_lambdas))
    lam = {}
    for i, (p, q) in enumerate(T.edges):
        value = float(edge_lambdas[i])
        lam[p] = value
        lam[q] = value
    return DecoratedBrokenHyperbolic(T, lam)


def constant_structure(T: IdealTriangulation, value: float = SQRT2):
    """All pairs equal; value sqrt(2) is the fully symmetric boundary case."""
    return DecoratedBrokenHyperbolic(T, {p: value for p in T.pairs})
