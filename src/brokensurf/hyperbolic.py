"""Lambda-length charts for decorated broken hyperbolic structures.

A structure assigns a positive lambda to every (face, slot) pair; the two
sides of an edge may disagree, which is the brokenness.  The horocycle
gap of a pair is delta = 2 log(lambda) - log(2), finite for any finite
lambda, the distance cut off on the edge between the decoration
horocycles at its two ends, measured in that face's metric.  Edge
gluings are pinned by the two decoration crossing points, so the
homothety factor across an edge is the gap ratio delta(far)/delta(near)
and vanishing gaps leave the gluing underdetermined.

Validity: per face, lambda_j * lambda_k >= sqrt(2) * lambda_i for each
slot i, checked as its log (delta_j + delta_k - delta_i) / 2 >= 0, the
gap measure's small weight; and the gap-ratio product around every
puncture is 1 up to its gaps' rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import minkowski
from .errors import DegenerateEdge, InvalidDecoration
from .triangulation import NEXT, PREV, IdealTriangulation, check_indices, read_only

SQRT2 = math.sqrt(2.0)
LOG2 = math.log(2.0)
EPS = float(np.finfo(float).eps)

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
    one pair.  Because lam cannot change, the signed gap table, the
    zero-gap and below-sqrt(2) masks, the far/near ratio tables and the
    per-pair crossing coefficients of the developing map are computed on
    first use and kept on the structure.  Every per-pair quantity is
    served as an (F, 3) table indexed like lam, with NaN where a zero gap
    leaves an entry undefined.
    """

    def __init__(self, T: IdealTriangulation, lam) -> None:
        self.T = T
        self.lam = T.pair_table(lam, "lambda", positive=True)

    # --- per-pair tables ----------------------------------------------

    @cached_property
    def _gaps(self) -> np.ndarray:
        """Signed gaps 2 log(lambda) - log(2), unclamped, one per pair."""
        return 2.0 * np.log(self.lam) - LOG2

    def gaps(self) -> np.ndarray:
        """Every pair's gap, finite for any lambda; InvalidDecoration below sqrt(2)."""
        below = np.flatnonzero(self.below_sqrt2)
        if below.size:
            pair = self.T.pairs[below[0]]
            raise InvalidDecoration(
                f"lambda at {pair} is below sqrt(2): gap {float(self._gaps[pair])}"
            )
        return np.maximum(self._gaps, 0.0)

    @cached_property
    def zero_gap(self) -> np.ndarray:
        """Pairs with |2 log(lambda) - log(2)| <= GAP_FLOOR: the one zero-gap test.

        A zero gap on either side of an edge leaves its gluing unpinned.
        """
        return read_only(np.abs(self._gaps) <= GAP_FLOOR)

    @cached_property
    def below_sqrt2(self) -> np.ndarray:
        """Pairs whose gap is below -GAP_FLOOR: the one below-sqrt(2) test."""
        return read_only(self._gaps < -GAP_FLOOR)

    @cached_property
    def lambda_ratios(self) -> np.ndarray:
        """lambda(far) / lambda(near) per pair: the developing map's crossing scale."""
        return read_only(self.lam.ravel()[self.T.partner] / self.lam)

    @cached_property
    def gap_ratios(self) -> np.ndarray:
        """gap(far) / gap(near) per pair: the homothety factor across its edge.

        NaN on an edge with a zero gap on either side, whose gluing scale
        no decoration pins.
        """
        gaps = self.gaps()
        far = self.T.partner
        dead = self.zero_gap | self.zero_gap.ravel()[far]
        nan = np.full_like(gaps, np.nan)
        return read_only(np.divide(gaps.ravel()[far], gaps, out=nan, where=~dead))

    def puncture_holonomy(self, puncture: int, convention: str = "gap") -> float:
        """Product of the far/near ratios of a corner cycle's crossings, in order.

        Under the gap convention a cycle that meets a zero gap on either
        side of a crossing raises DegenerateEdge.
        """
        (puncture,) = check_indices([puncture], self.T.num_punctures, "puncture")
        table = {"gap": "gap_ratios", "lambda": "lambda_ratios"}[convention]
        ratios = getattr(self, table)
        phi = math.prod(ratios.ravel()[self.T.cycle_crossings[puncture]].tolist())
        if math.isnan(phi):
            raise DegenerateEdge(f"puncture {puncture} meets a zero gap")
        return phi

    def h_lengths(self) -> np.ndarray:
        """Horocyclic length lambda_i / (lambda_j * lambda_k) of every sector."""
        return self.lam / (self.lam[:, NEXT] * self.lam[:, PREV])

    def face_lift(self, f: int) -> np.ndarray:
        """Hyperboloid lift of one face on the default rays, as a (3, 3) array."""
        return minkowski.solve_triangle(minkowski.DEFAULT_RAYS, self.lam[f])

    def geometric_arcs(self) -> np.ndarray:
        """Decoration horocycle arc cut off inside every sector's face.

        Computed on face_lift's hyperboloid lifts, not from h_lengths; the
        two stay proportional by the calibrated constant sqrt(2).
        """
        rays = np.broadcast_to(minkowski.DEFAULT_RAYS.T[..., None], (3, 3, self.T.faces))
        lift = minkowski.solve_columns(rays, self.lam.T)
        minkowski._finite((self.T.faces,), lift)  # a lift past float range has no arc
        return minkowski.arc_columns(lift, lift[:, NEXT], lift[:, PREV]).T

    def coupling_residuals(self) -> np.ndarray:
        """h-length product mismatch across every pair's edge.

        The two sector h-lengths at the ends of an edge multiply to
        1/lambda(t, e)^2 within each face, so the residuals vanish
        exactly on unbroken structures.
        """
        h = self.h_lengths()
        ends = h[:, NEXT] * h[:, PREV]
        return ends - ends.ravel()[self.T.partner]

    @cached_property
    def crossing_table(self) -> np.ndarray:
        """Row 3 * f + s: (x, y, t, step) for crossing pair (f, s), read-only.

        Developing places the fresh far corner at z = x*tail + y*head +
        t*apex of the near lift's corners.  With l, a, b the near face's
        lambdas of head-tail, apex-head and apex-tail, and p, q the far
        face's lambdas to tail and head rescaled by step = l / lambda(far),
        <z, tail> = -p^2, <z, head> = -q^2 and <z, z> = 0 give
        y*l^2 + t*b^2 = p^2, x*l^2 + t*a^2 = q^2 and t = -pq/(ab) (+1 is
        the apex itself).  These hold at any common scale of the lift, so
        they depend on the glued pair alone (Penner's lambda-length
        calculus); step is the factor the crossing puts on the scale.
        A pair whose coefficients leave float range holds inf or NaN, with
        no warning: the drift gate of the walk that crosses it reports it.
        """
        lam = self.lam
        flat = lam.ravel()
        far = self.T.partner
        far_face = far - far % 3
        ell, a, b = lam, lam[:, PREV], lam[:, NEXT]
        with np.errstate(over="ignore", invalid="ignore"):
            step = ell / flat[far]
            p = step * flat[far_face + (far + 2) % 3]
            q = step * flat[far_face + (far + 1) % 3]
            t = -p * q / (a * b)
            x = q * (q + p * a / b) / (ell * ell)
            y = p * (p + q * b / a) / (ell * ell)
        return read_only(np.stack([v.ravel() for v in (x, y, t, step)], axis=1))

    @cached_property
    def crossing_rows(self) -> list:
        """crossing_table as Python values for one crossing at a time.

        Row c = 3 * f + s is (far, x, y, t, step) for crossing (f, s),
        with far the flat index of the pair glued to (f, s).
        """
        far = self.T.partner.ravel().tolist()
        return list(zip(far, *self.crossing_table.T.tolist()))

    def shifts(self) -> np.ndarray:
        """Signed offset between the two faces' feet of perpendiculars, per pair.

        Measured along the edge by arc length in the near face's metric,
        from the near face's tail-end decoration crossing along its ccw
        boundary direction; the foreign foot is transported through the
        gluing, which the decoration crossings pin, so the shift is NaN
        on an edge with a zero gap.  The two sides of a pair measure from
        opposite ends, so their shifts are not simple rescalings of each
        other; they match the weight-chart shifts instead.
        """
        lam = self.lam
        far = self.T.partner
        own = np.log(lam * lam[:, PREV] / (SQRT2 * lam[:, NEXT]))
        # Far face seen from the near side: its corner k2+2 sits at our
        # tail, its corner k2+1 at our head, so its own tail/head roles swap.
        foreign = np.log(lam * lam[:, NEXT] / (SQRT2 * lam[:, PREV])).ravel()[far]
        return foreign * self.gap_ratios.ravel()[far] - own

    # --- global checks ------------------------------------------------

    def validate(self, tol: float = 1e-9) -> ValidityReport:
        report = ValidityReport(valid=True)
        # slot i's small weight log(lambda_j * lambda_k / (sqrt(2) * lambda_i))
        g = self._gaps
        small = (g[:, NEXT] + g[:, PREV] - g) / 2
        bad = self.T.pairs_where(small < -tol)
        report.add(
            "face_inequalities",
            not bad,
            max(0.0, -float(small.min())),
            f"violations at (face, slot): {bad}" if bad else "",
        )

        below = self.T.pairs_where(self.below_sqrt2)
        report.add(
            "gaps_nonnegative",
            not below,
            float(-self._gaps.min()) if below else 0.0,
            f"lambda below sqrt(2) at pairs: {below}" if below else "",
        )

        degenerate = self.T.pairs_where(self.zero_gap)
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
            # a gap g carries about eps of rounding, so a ratio across it
            # is good to about eps / g; allow for that on every crossing
            inv = 1.0 / self.gaps()
            spread = (inv + inv.ravel()[self.T.partner]).ravel()
            near = self.T.puncture_of[:, PREV].ravel()  # puncture crossing each pair
            rounding = np.bincount(near, spread, self.T.num_punctures)
            cap = (tol + 4.0 * EPS * rounding).tolist()
            bad_cycles = [(i, phis[i]) for i, err in enumerate(errs) if err > cap[i]]
            report.add(
                "puncture_holonomy",
                not bad_cycles,
                max(0.0, *errs),
                f"nontrivial at punctures: {bad_cycles}" if bad_cycles else "",
            )
        return report

    def is_unbroken(self) -> bool:
        """Both sides of every edge carry the same lambda."""
        return bool(np.all(self.lam == self.lam.ravel()[self.T.partner]))

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
