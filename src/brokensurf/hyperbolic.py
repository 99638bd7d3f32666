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
from functools import cached_property

import numpy as np

from . import minkowski
from .errors import DegenerateEdge, InvalidDecoration
from .triangulation import NEXT, PREV, IdealTriangulation, Pair, Sector

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

    lam is a read-only (F, 3) float array indexed [face, slot], built
    from a pair-keyed mapping or an (F, 3) array; H.lam[(f, s)] reads
    one pair.  Because lam cannot change, the signed gap table and the
    per-pair crossing coefficients of the developing map are computed
    on first use and kept on the structure.
    """

    def __init__(self, T: IdealTriangulation, lam) -> None:
        self.T = T
        self.lam = T.pair_table(lam, "lambda", positive=True)

    # --- local quantities --------------------------------------------

    @cached_property
    def _gaps(self) -> np.ndarray:
        """Signed gaps log(lambda^2 / 2), unclamped, one per pair."""
        # float_power squares through libm pow, as Python's float ** 2 does
        return np.log(np.float_power(self.lam, 2) / 2.0)

    def gap(self, pair: Pair) -> float:
        """Horocycle gap delta = log(lambda^2 / 2); zero at lambda = sqrt(2)."""
        d = float(self._gaps[pair])
        if d < -GAP_FLOOR:
            raise InvalidDecoration(
                f"lambda at {pair} is below sqrt(2): gap {d}"
            )
        return max(d, 0.0)

    def gaps(self) -> np.ndarray:
        """Every pair's gap as an (F, 3) array; raises as gap() does."""
        below = np.flatnonzero(self._gaps < -GAP_FLOOR)
        if below.size:
            self.gap(self.T.pairs[below[0]])
        return np.maximum(self._gaps, 0.0)

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
        return float(self.lam[far] / self.lam[pair])

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
        lam = self.lam[f].tolist()
        return lam[c] / (lam[(c + 1) % 3] * lam[(c + 2) % 3])

    def face_lift(self, f: int) -> minkowski.TriangleLift:
        """Hyperboloid lift of one face on the default rays."""
        return minkowski.solve_triangle(minkowski.DEFAULT_RAYS, self.lam[f])

    @cached_property
    def crossing_rows(self) -> list:
        """Row 3 * f + s: (far pair, x, y, t, step) for crossing pair (f, s).

        Developing places the fresh far corner at z = x*tail + y*head +
        t*apex of the near lift's corners.  With l, a, b the near face's
        lambdas of head-tail, apex-head and apex-tail, and p, q the far
        face's lambdas to tail and head rescaled by step = l / lambda(far),
        <z, tail> = -p^2, <z, head> = -q^2 and <z, z> = 0 give
        y*l^2 + t*b^2 = p^2, x*l^2 + t*a^2 = q^2 and t = -pq/(ab) (+1 is
        the apex itself).  These hold at any common scale of the lift, so
        they depend on the glued pair alone (Penner's lambda-length
        calculus); step is the factor the crossing puts on the scale.
        """
        lam = self.lam
        flat = lam.ravel()
        far = self.T.partner
        far_face = far - far % 3
        ell, a, b = lam, lam[:, PREV], lam[:, NEXT]
        step = ell / flat[far]
        p = step * flat[far_face + (far + 2) % 3]
        q = step * flat[far_face + (far + 1) % 3]
        t = -p * q / (a * b)
        x = q * (q + p * a / b) / (ell * ell)
        y = p * (p + q * b / a) / (ell * ell)
        return list(zip(
            map(self.T.gluing.__getitem__, self.T.pairs),
            *(v.ravel().tolist() for v in (x, y, t, step)),
        ))

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

    def shift(self, pair: Pair) -> float:
        """Signed offset between the two faces' feet of perpendiculars.

        Measured along the edge by arc length in the near face's metric,
        from the near face's tail-end decoration crossing along its ccw
        boundary direction; the foreign foot is transported through the
        gluing, which the decoration crossings pin.  The two sides of a
        pair measure from opposite ends, so their shifts are not simple
        rescalings of each other; matching the weight-chart shift is the
        invariant checked in the tests.
        """
        far = self.T.gluing[pair]
        f, k = pair
        g, k2 = far
        own_gap = self.gap(pair)
        far_gap = self.gap(far)
        if own_gap <= GAP_FLOOR or far_gap <= GAP_FLOOR:
            raise DegenerateEdge(f"zero gap on edge of {pair}; gluing unpinned")
        mine, theirs = self.lam[f].tolist(), self.lam[g].tolist()
        own = math.log(
            mine[k] * mine[(k + 2) % 3] / (SQRT2 * mine[(k + 1) % 3])
        )
        # Far face seen from the near side: its corner k2+2 sits at our
        # tail, its corner k2+1 at our head, so its own tail/head roles swap.
        foreign = math.log(
            theirs[k2] * theirs[(k2 + 1) % 3] / (SQRT2 * theirs[(k2 + 2) % 3])
        )
        return foreign * (own_gap / far_gap) - own

    # --- global checks ------------------------------------------------

    def validate(self, tol: float = 1e-9) -> ValidityReport:
        report = ValidityReport(valid=True)
        lam = self.lam
        # slot i: lambda_j * lambda_k >= sqrt(2) * lambda_i, relative margin
        both = lam[:, NEXT] * lam[:, PREV]
        rel = (both - SQRT2 * lam) / both
        bad = self.T.pairs_where(rel < -tol)
        report.add(
            "face_inequalities",
            not bad,
            -min(0.0, float(rel.min())),
            f"violations at (face, slot): {bad}" if bad else "",
        )

        # Same predicate as gap(), so a structure that passes never makes
        # gap() raise.
        below = self.T.pairs_where(self._gaps < -GAP_FLOOR)
        report.add(
            "gaps_nonnegative",
            not below,
            float(np.max((SQRT2 - lam) / SQRT2)) if below else 0.0,
            f"lambda below sqrt(2) at pairs: {below}" if below else "",
        )

        degenerate = self.T.pairs_where(np.abs(lam - SQRT2) <= SQRT2 * tol)
        if degenerate:
            report.warnings.append(
                f"degenerate decoration (zero horocycle gap) at pairs {degenerate}"
            )

        if degenerate or below:
            skipped = "skipped: gap ratios undefined on degenerate pairs"
            report.add("puncture_holonomy", True, 0.0, skipped)
        else:
            phis = [self.puncture_holonomy(i) for i in range(self.T.num_punctures)]
            errs = [abs(phi - 1.0) for phi in phis]
            bad_cycles = [(i, phis[i]) for i, err in enumerate(errs) if err > tol]
            report.add(
                "puncture_holonomy",
                not bad_cycles,
                max(0.0, *errs),
                f"nontrivial at punctures: {bad_cycles}" if bad_cycles else "",
            )
        return report

    def is_unbroken(self, tol: float = 0.0) -> bool:
        """Both sides of every edge agree within tol, relative to the side p < q."""
        lam = self.lam.ravel()
        far = self.T.partner.ravel()
        near = np.flatnonzero(np.arange(far.size) < far)
        return bool(np.all(np.abs(lam[near] - lam[far[near]]) <= tol * lam[near]))

    def to_dict(self) -> dict:
        return {"triangulation": self.T.to_dict(), "lambda": self.T.pair_dict(self.lam)}


def embed_unbroken(T: IdealTriangulation, edge_lambdas) -> DecoratedBrokenHyperbolic:
    """Structure with equal lambdas on both sides of every edge.

    edge_lambdas maps edge index to lambda, or is a sequence in edge order.
    """
    values = np.array([edge_lambdas[i] for i in range(T.num_edges)], dtype=float)
    return DecoratedBrokenHyperbolic(T, values[T.edge_index])


def constant_structure(T: IdealTriangulation, value: float = SQRT2):
    """All pairs equal; value sqrt(2) is the fully symmetric boundary case."""
    return DecoratedBrokenHyperbolic(T, np.full((T.faces, 3), value))
