"""Extended Weil-Petersson and Thurston two-forms, and the chart between them.

Both forms are face-block-diagonal with one constant 3x3 block per face,
so a form is stored as that block over a labelled chart (canonical
coordinate order: pair index 3*face + slot; same for sectors).  Per face
with slot coordinates (a, b, c) in ccw order:

    wp train:   -2 (dla^dlb + dlb^dlc + dlc^dla)   in log-lambda coords,
    thurston:  -1/2 (dwa^dwb + dwb^dwc + dwc^dwa)  in small weights.

The chart between structures and measures sends lambda to the gap
w = 2 log(lambda) + log(1/2); its Jacobian is twice the identity, so the
large-weight Thurston form pulls back to exactly the wp form.  The
large-weight block is produced by transporting the small-weight one
through the corner equations, not written down by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartMismatch, InvalidDecoration
from .foliation import SMALL_FROM_LARGE, BrokenMeasure
from .hyperbolic import DecoratedBrokenHyperbolic
from .triangulation import NEXT, PREV, IdealTriangulation

CHART_LOG_LAMBDA = "log_lambda"
CHART_LARGE = "large_weight"
CHART_SMALL = "small_weight"

_CYCLIC = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
WP_BLOCK = -2.0 * _CYCLIC
THURSTON_BLOCK = -0.5 * _CYCLIC

# Singular values at most this fraction of a scale count as zero: the
# matrix's largest singular value, or the form's norm for its restrictions.
RANK_CUTOFF = 1e-8


@dataclass(frozen=True)
class TwoForm:
    """Face-block-diagonal antisymmetric form: one 3x3 block per face."""

    chart: str
    labels: tuple
    block: np.ndarray

    @property
    def faces(self) -> int:
        return len(self.labels) // 3

    @property
    def matrix(self) -> np.ndarray:
        """Dense 3F x 3F view, for tests and small surfaces."""
        return np.kron(np.eye(self.faces), self.block)

    def evaluate(self, u, v, chart: str | None = None) -> float:
        if chart is not None and chart != self.chart:
            raise ChartMismatch(f"form lives in {self.chart}, not {chart}")
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        n = len(self.labels)
        if u.shape != (n,) or v.shape != (n,):
            raise ChartMismatch(
                f"form expects vectors of length {n}, got {u.shape} and {v.shape}"
            )
        return float(
            np.einsum("fi,ij,fj->", u.reshape(-1, 3), self.block, v.reshape(-1, 3))
        )

    def singular_values(self) -> np.ndarray:
        return np.repeat(np.linalg.svd(self.block, compute_uv=False), self.faces)

    def rank(self) -> int:
        return self.faces * matrix_rank(self.block)


def _rank(sv: np.ndarray, scale: float) -> int:
    """Number of singular values above RANK_CUTOFF times scale."""
    return int(np.sum(sv > RANK_CUTOFF * scale))


def matrix_rank(m: np.ndarray) -> int:
    sv = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    return _rank(sv, sv.max(initial=0.0))


def _norm(form: TwoForm) -> float:
    """Spectral norm of the form, the scale its restrictions are ranked on.

    A restriction that vanishes comes out as rounding noise, which its
    own largest singular value would count as full rank.
    """
    return float(np.linalg.norm(form.block, 2))


def wp_form(T: IdealTriangulation) -> TwoForm:
    """Extended Weil-Petersson form in log-lambda coordinates."""
    return TwoForm(CHART_LOG_LAMBDA, T.pairs, WP_BLOCK)


def thurston_form(T: IdealTriangulation, chart: str = CHART_SMALL) -> TwoForm:
    """Extended Thurston form, natively in small weights.

    The large-weight version is the pullback through the corner
    equations; all entries stay dyadic, so the transport is exact.
    """
    if chart == CHART_SMALL:
        return TwoForm(CHART_SMALL, T.sectors, THURSTON_BLOCK)
    if chart == CHART_LARGE:
        large = SMALL_FROM_LARGE.T @ THURSTON_BLOCK @ SMALL_FROM_LARGE
        return TwoForm(CHART_LARGE, T.pairs, large)
    raise ChartMismatch(f"no Thurston form in chart {chart!r}")


# --- the chart between structures and measures ----------------------------


def to_measure(H: DecoratedBrokenHyperbolic) -> BrokenMeasure:
    """Gap chart: large weight of each pair is its horocycle gap."""
    return BrokenMeasure(H.T, H.gaps())


def from_measure(m: BrokenMeasure) -> DecoratedBrokenHyperbolic:
    """Inverse gap chart: lambda = sqrt(2 e^w), defined for w >= 0."""
    negative = np.flatnonzero(m.w < -1e-12)
    if negative.size:
        p = m.T.pairs[negative[0]]
        raise InvalidDecoration(f"negative weight {float(m.w[p])} at {p} has no lambda")
    return DecoratedBrokenHyperbolic(m.T, np.sqrt(2.0 * np.exp(np.maximum(m.w, 0.0))))


def pullback_residual(T: IdealTriangulation) -> float:
    """Max-norm gap between the pulled-back Thurston and wp blocks.

    The gap chart's Jacobian is 2I on log-lambda coordinates, so the
    pullback of the large-weight form is 4 times its block.  Every face
    carries the same two blocks, so one block pair decides the check.
    """
    omega = wp_form(T).block
    iota = thurston_form(T, CHART_LARGE).block
    jac = 2.0 * np.eye(3)
    return float(np.max(np.abs(jac.T @ iota @ jac - omega)))


def scaled_image(H: DecoratedBrokenHyperbolic, x: float) -> BrokenMeasure:
    """Weights x * gap(H); the degeneration family's measure image."""
    if x < 0.0:
        raise ValueError("scale must be nonnegative")
    return to_measure(H).scale(x)


def scale_lambdas(
    H: DecoratedBrokenHyperbolic, factor: float
) -> DecoratedBrokenHyperbolic:
    """Structure with every lambda multiplied by the same factor."""
    if factor <= 0.0:
        raise ValueError("factor must be positive")
    return DecoratedBrokenHyperbolic(H.T, factor * H.lam)


def ray_measure(H: DecoratedBrokenHyperbolic, n: float) -> BrokenMeasure:
    """Measure image of the degeneration ray at parameter n, scale 1/n.

    The ray multiplies every lambda by e^{n/2}, which adds n to every
    gap; the image weights (n + gap)/n are formed directly, so large n
    never materializes the overflowing lambdas.
    """
    if n <= 0.0:
        raise ValueError("ray parameter must be positive")
    return BrokenMeasure(H.T, 1.0 + H.gaps() / n)


def scaling_identity_residual(H, x: float, u, v) -> float:
    """|iota(D(x * chart) u, D(x * chart) v) - x^2 * wp(u, v)|.

    The differential of the scaled chart is 2x times the identity, so
    the residual is exactly zero in exact arithmetic.
    """
    omega = wp_form(H.T)
    iota = thurston_form(H.T, CHART_LARGE)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    lhs = iota.evaluate(2.0 * x * u, 2.0 * x * v)
    rhs = x * x * omega.evaluate(u, v)
    return abs(lhs - rhs)


# --- rank reporting --------------------------------------------------------


@dataclass(frozen=True)
class RankReport:
    chart: str
    dim: int
    rank: int
    singular_values: tuple
    constrained: bool = False
    num_constraints: int = 0
    tangent_dim: int | None = None
    subspace: str = ""

    def to_dict(self) -> dict:
        out = {
            "chart": self.chart,
            "dim": self.dim,
            "rank": self.rank,
            "singular_values": list(self.singular_values),
            "constrained": self.constrained,
        }
        if self.constrained:
            out["num_constraints"] = self.num_constraints
            out["tangent_dim"] = self.tangent_dim
        if self.subspace:
            out["subspace"] = self.subspace
        return out


def _holonomy_jacobian(H: DecoratedBrokenHyperbolic) -> np.ndarray:
    """d log(puncture holonomy) / d log-lambda, one row per puncture.

    The holonomy's log is the sum of log gap(far) - log gap(near) over
    the puncture's crossings, and gap = 2 ell - log 2 gives
    d log gap / d ell = 2 / gap, which needs every gap nondegenerate.
    Pair (f, k) is crossed out of its face around the puncture at its
    corner k+2 and into it around the puncture at its corner k+1.
    """
    T = H.T
    gaps = H.gaps()
    if H.zero_gap.any():
        raise InvalidDecoration("constrained rank needs every gap above GAP_FLOOR")
    slope = (2.0 / gaps).ravel()
    pairs = np.arange(slope.size)
    jac = np.zeros((T.num_punctures, slope.size))
    jac[T.puncture_of[:, NEXT].ravel(), pairs] += slope
    jac[T.puncture_of[:, PREV].ravel(), pairs] -= slope
    return jac


def _null_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel of r independent rows, shape (n, n - r).

    The last n - r columns of the orthogonal factor of a Householder QR
    of rows.T, formed by applying its r reflectors to those columns of
    the identity, so no n x n array appears.  In numpy's raw mode row k
    of h holds reflector k below its implicit leading 1.
    """
    r, n = rows.shape
    h, tau = np.linalg.qr(rows.T, mode="raw")
    basis = np.eye(n, n - r, -r)
    for k in reversed(range(r)):
        v = np.concatenate(([1.0], h[k, k + 1:]))
        basis[k:] -= tau[k] * np.outer(v, v @ basis[k:])
    return basis


def rank_report(
    T: IdealTriangulation,
    H: DecoratedBrokenHyperbolic | None = None,
    constrained: bool = False,
) -> RankReport:
    """Rank of the wp form, optionally restricted to the holonomy level set.

    The constrained variant needs a valid nondegenerate structure: the
    form is restricted to the null space of the closed-form constraint
    Jacobian in log-lambda coordinates.
    """
    form = wp_form(T)
    n = 3 * T.faces
    if not constrained:
        return RankReport(form.chart, n, form.rank(), tuple(form.singular_values()))
    if H is None:
        raise ValueError("constrained rank needs a structure to linearize at")
    _, sv_j, vt = np.linalg.svd(_holonomy_jacobian(H), full_matrices=False)
    jac_rank = _rank(sv_j, sv_j.max(initial=0.0))
    basis = _null_basis(vt[:jac_rank])
    # the form's matrix times the basis, one block per face
    moved = np.einsum("ij,fjk->fik", form.block, basis.reshape(T.faces, 3, -1))
    sv = np.linalg.svd(basis.T @ moved.reshape(basis.shape), compute_uv=False)
    return RankReport(
        form.chart,
        n,
        _rank(sv, _norm(form)),
        tuple(sv),
        constrained=True,
        num_constraints=jac_rank,
        tangent_dim=n - jac_rank,
    )


def unbroken_rank_report(T: IdealTriangulation) -> RankReport:
    """Rank of the wp form pulled back to the edge-equal subspace.

    Both sides of an edge share one coordinate, so each face's block
    lands on the E x E matrix at its three edge indices.
    """
    form = wp_form(T)
    edge = T.edge_index
    restricted = np.zeros((T.num_edges, T.num_edges))
    np.add.at(restricted, (edge[:, :, None], edge[:, None, :]), form.block)
    sv = np.linalg.svd(restricted, compute_uv=False)
    return RankReport(
        form.chart, T.num_edges, _rank(sv, _norm(form)), tuple(sv), subspace="unbroken"
    )
