"""Extended Weil-Petersson and Thurston two-forms, and the chart between them.

Both forms are face-block-diagonal with one constant 3x3 block per face,
so a form is stored as that block, its chart and its face count
(coordinate order: pair index 3*face + slot; same for sectors).  Per face
with slot coordinates (a, b, c) in ccw order:

    wp train:   -2 (dla^dlb + dlb^dlc + dlc^dla)   in log-lambda coords,
    thurston:  -1/2 (dwa^dwb + dwb^dwc + dwc^dwa)  in small weights.

The chart between structures and measures sends lambda to the gap
w = 2 log(lambda) + log(1/2); its Jacobian is twice the identity, so the
large-weight Thurston form pulls back to exactly the wp form.  The
large-weight block is produced by transporting the small-weight one
through the corner equations, not written down by hand.

Restricted to the puncture-holonomy level set, the wp form keeps its
block structure away from the r constraint rows: its spectrum there is
2F - rank(Omega|U) copies of the block's norm 2*sqrt(3), the singular
values of the form on U minus the rows, and F - dim U + rank(Omega|U)
zeros, for the Omega-invariant span U of the rows (dim U <= 3r); see
rank_report.  A rank report lists no singular values: it gives the rank
and a floor that every value it counts clears.

Restricted to unbroken structures (both sides of every edge equal), the
wp form is Penner's, of rank 6g - 6 + 2s on the E edge coordinates.  Its
kernel is spanned by the s horocycle scalings, an integer matrix whose
product with the restriction is checked to be exactly zero; the other
E - s singular values are certified to clear a floor by one Cholesky
test of the restriction's Gram matrix, built edge by edge, with the
kernel shifted away, factored in place in column panels; see
unbroken_rank_report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartMismatch,
    DegenerateEdge,
    InvalidDecoration,
    MatrixTooLarge,
    NumericalBreakdown,
)
from .foliation import SMALL_FROM_LARGE, BrokenMeasure
from .hyperbolic import EPS, GAP_FLOOR, LOG2, DecoratedBrokenHyperbolic
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

# The unbroken rank certificate scatters the E x E Gram matrix densely and
# factors it in that one E x E float array; past this many edges the
# array would take more than 1 GiB, so it is never allocated.
MAX_GRAM_EDGES = math.isqrt((1 << 30) // 8)

# The certificate's Cholesky runs in column panels of equal width, at
# most this many, but for the last, which takes the last two widths.
# Narrow panels leave most flops to one matrix product per panel and keep
# the diagonal blocks below 128 columns, where OpenBLAS 0.3's Cholesky of
# a 120-column block took 70 us and of a 128-column one 200 us (2 cores).
# The last panel needs no solve, and in the benchmark's call order one
# Cholesky of twice the width cost less than a solve and two of one
# width.  E = 300, 600 and 3000 run in 2, 4 and 24 panels.
GRAM_PANEL = 120


@dataclass(frozen=True)
class TwoForm:
    """Face-block-diagonal antisymmetric form: one 3x3 block per face."""

    chart: str
    faces: int
    block: np.ndarray

    def evaluate(self, u, v) -> float:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        n = 3 * self.faces
        if u.shape != (n,) or v.shape != (n,):
            raise ChartMismatch(
                f"form expects vectors of length {n}, got {u.shape} and {v.shape}"
            )
        return float(
            np.einsum("fi,ij,fj->", u.reshape(-1, 3), self.block, v.reshape(-1, 3))
        )

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
    return float(np.linalg.svd(form.block, compute_uv=False)[0])


def wp_form(T: IdealTriangulation) -> TwoForm:
    """Extended Weil-Petersson form in log-lambda coordinates."""
    return TwoForm(CHART_LOG_LAMBDA, T.faces, WP_BLOCK)


def thurston_form(T: IdealTriangulation, chart: str = CHART_SMALL) -> TwoForm:
    """Extended Thurston form, natively in small weights.

    The large-weight version is the pullback through the corner
    equations; all entries stay dyadic, so the transport is exact.
    """
    if chart == CHART_SMALL:
        return TwoForm(CHART_SMALL, T.faces, THURSTON_BLOCK)
    if chart == CHART_LARGE:
        large = SMALL_FROM_LARGE.T @ THURSTON_BLOCK @ SMALL_FROM_LARGE
        return TwoForm(CHART_LARGE, T.faces, large)
    raise ChartMismatch(f"no Thurston form in chart {chart!r}")


# --- the chart between structures and measures ----------------------------


def to_measure(H: DecoratedBrokenHyperbolic) -> BrokenMeasure:
    """Gap chart: large weight of each pair is its horocycle gap."""
    return BrokenMeasure(H.T, H.gaps())


def from_measure(m: BrokenMeasure) -> DecoratedBrokenHyperbolic:
    """Inverse gap chart lambda = exp((w + log 2) / 2), the package's only one.

    InvalidDecoration below -GAP_FLOOR; NumericalBreakdown past 1418.
    """
    negative = np.flatnonzero(m.w < -GAP_FLOOR)
    if negative.size:
        p = m.T.pairs[negative[0]]
        raise InvalidDecoration(f"negative weight {float(m.w[p])} at {p} has no lambda")
    with np.errstate(over="ignore"):
        lam = np.exp((np.maximum(m.w, 0.0) + LOG2) / 2)
    huge = np.flatnonzero(np.isinf(lam))
    if huge.size:
        p = m.T.pairs[huge[0]]
        raise NumericalBreakdown(f"lambda at {p} overflows at weight {float(m.w[p])}")
    return DecoratedBrokenHyperbolic(m.T, lam)


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


def ray_measure(H: DecoratedBrokenHyperbolic, n: float) -> BrokenMeasure:
    """Measure image of the degeneration ray at parameter n, scale 1/n.

    The ray multiplies every lambda by e^{n/2}, which adds n to every
    gap; the image weights (n + gap)/n are formed directly, so large n
    never materializes the overflowing lambdas; a tiny n can still
    overflow a weight, which raises ValueError.
    """
    if n <= 0.0:
        raise ValueError("ray parameter must be positive")
    with np.errstate(over="ignore"):  # pair_table names an overflowed weight
        w = 1.0 + H.gaps() / n
    try:
        return BrokenMeasure(H.T, w)
    except ValueError as exc:
        raise ValueError(f"(n + gap) / n at n = {n!r}: {exc}") from None


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
    """A rank, and a floor that every singular value it counts clears.

    The floor is None, written null, when nothing is counted.
    """

    chart: str
    dim: int
    rank: int
    singular_value_floor: float | None
    constrained: bool = False
    num_constraints: int = 0
    tangent_dim: int | None = None
    subspace: str = ""

    def to_dict(self) -> dict:
        out = {
            "chart": self.chart,
            "dim": self.dim,
            "rank": self.rank,
            "constrained": self.constrained,
            "singular_value_floor": self.singular_value_floor,
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
    d log gap / d ell = 2 / gap, undefined at a zero gap (DegenerateEdge).  Pair
    (f, k) is crossed out of its face around the puncture at its corner
    k+2 and into it around the puncture at its corner k+1.
    """
    T = H.T
    gaps = H.gaps()
    if H.zero_gap.any():
        raise DegenerateEdge("constrained rank needs every gap above GAP_FLOOR")
    slope = (2.0 / gaps).ravel()
    pairs = np.arange(slope.size)
    jac = np.zeros((T.num_punctures, slope.size))
    jac[T.puncture_of[:, NEXT].ravel(), pairs] += slope
    jac[T.puncture_of[:, PREV].ravel(), pairs] -= slope
    return jac


def _apply(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The form's matrix times each row, one block per face."""
    return (rows.reshape(-1, 3) @ block.T).reshape(rows.shape)


def rank_report(
    T: IdealTriangulation,
    H: DecoratedBrokenHyperbolic | None = None,
    constrained: bool = False,
) -> RankReport:
    """Rank of the wp form, optionally restricted to the holonomy level set.

    The constrained variant needs a structure on T's gluing (ChartMismatch
    otherwise), no lambda below sqrt(2) (InvalidDecoration) and no zero gap
    (DegenerateEdge).  The form is restricted to the tangent space K, the
    kernel of the r orthonormal rows N of the constraint Jacobian in
    log-lambda coordinates.  Omega squared is -12 on each face's
    (1,1,1)-complement and 0 on (1,1,1), so with P the per-face mean,
    U = span(N, Omega N, P N) is Omega-invariant.  Its complement lies in
    K and Omega acts there unchanged, so the
    restricted spectrum has three parts:

        2F - rank(Omega|U) copies of the block's norm,
        the singular values of Omega on U minus N (at most 2r),
        F - dim U + rank(Omega|U) zeros.

    The rank counts the first part and the middle values above the
    cutoff, and the floor is the smallest value counted.  Nothing larger
    than 3F x 3r is formed, and the first and last parts are exact where
    a dense decomposition would print rounding noise.  Unconstrained,
    the rank is 2F and the floor the block's norm.
    """
    form = wp_form(T)
    n = 3 * T.faces
    norm = _norm(form)
    if not constrained:
        return RankReport(form.chart, n, form.rank(), norm)
    if H is None:
        raise ValueError("constrained rank needs a structure to linearize at")
    if H.T is not T and not np.array_equal(H.T.partner, T.partner):
        raise ChartMismatch("constrained rank needs a structure on the same gluing")
    _, sv_j, vt = np.linalg.svd(_holonomy_jacobian(H), full_matrices=False)
    jac_rank = _rank(sv_j, sv_j.max(initial=0.0))
    rows = vt[:jac_rank]
    means = rows.reshape(jac_rank, T.faces, 3).mean(axis=2)
    span = np.vstack((rows, _apply(form.block, rows), np.repeat(means, 3, axis=1)))
    _, sv_s, basis = np.linalg.svd(span, full_matrices=False)
    basis = basis[: _rank(sv_s, sv_s.max(initial=0.0))]
    # Omega on the span, in the span's orthonormal basis
    on_span = basis @ _apply(form.block, basis).T
    rank_span = _rank(np.linalg.svd(on_span, compute_uv=False), norm)
    # the part of the span orthogonal to the constraint rows, in span coordinates
    beyond = np.linalg.svd(rows @ basis.T)[2][jac_rank:]
    full = 2 * T.faces - rank_span  # copies of the norm
    middle = np.linalg.svd(beyond @ on_span @ beyond.T, compute_uv=False)
    middle = middle[: _rank(middle, norm)].tolist()  # those counted, descending
    return RankReport(
        form.chart,
        n,
        full + len(middle),
        min([norm] * (full > 0) + middle, default=None),
        constrained=True,
        num_constraints=jac_rank,
        tangent_dim=n - jac_rank,
    )


def horocycle_kernel(T: IdealTriangulation) -> np.ndarray:
    """Penner's horocycle scalings: V[e, i] counts the ends of edge e at puncture i.

    Growing the horocycle at puncture i adds 1 to log lambda once per end
    of an edge at i, a direction in which the unbroken restriction of the
    wp form vanishes.  Both sides of an edge name its two ends, so the
    count over sides is halved.
    """
    ends = np.zeros((T.num_edges, T.num_punctures), dtype=int)
    for corner in (NEXT, PREV):
        np.add.at(ends, (T.edge_index, T.puncture_of[:, corner]), 1)
    return ends // 2


def unbroken_rank_report(T: IdealTriangulation) -> RankReport:
    """Rank of the wp form pulled back to the edge-equal subspace.

    Both sides of an edge share one coordinate, so the restriction A is
    E x E and its row e is the sum of the block rows of e's two sides
    T.edge_sides[e], each at its face's three edge indices.  The
    horocycle kernel V certifies A's kernel: A V == 0 exactly and
    rank V = s.  The Gram matrix G = A^T A, scattered from those rows
    without forming A, certifies the rest: every eigenvalue of G off V
    must clear floor = max(cutoff^2, E eps b), with b = (max row sum of
    |A|)^2 >= |A|_2^2, which one Cholesky test decides (see
    _clears_floor_beyond); otherwise NumericalBreakdown names the floor.
    The rank is then E - s = 6g - 6 + 2s, and each of A's nonzero
    singular values clears singular_value_floor = sqrt(floor) up to the
    factorisation's rounding, of order E^2 eps b a priori, as the
    eigensolve this replaces decided the same test up to its own.  G is
    the only E x E array: the shift and the factorisation run in its
    storage.  Past MAX_GRAM_EDGES edges it is never built: MatrixTooLarge.
    """
    form = wp_form(T)
    E, s = T.num_edges, T.num_punctures
    if E > MAX_GRAM_EDGES:
        raise MatrixTooLarge(
            f"unbroken Gram matrix of {E} edges needs {8 * E * E} bytes; "
            f"the limit is {MAX_GRAM_EDGES} edges"
        )
    cols = T.edge_index[T.edge_sides // 3].reshape(E, 6)
    vals = form.block[T.edge_sides % 3].reshape(E, 6)
    kernel = horocycle_kernel(T)
    # one SVD gives V's rank, by np.linalg.matrix_rank's tolerance, and an
    # orthonormal basis of its span
    basis, sv, _ = np.linalg.svd(kernel, full_matrices=False)
    if np.einsum("ej,ejs->es", vals, kernel[cols]).any() or not (
        sv[-1] > sv[0] * E * EPS
    ):
        raise AssertionError("horocycle scalings are not an s-dimensional kernel")
    gram = np.bincount(
        (cols[:, :, None] * E + cols[:, None, :]).ravel(),
        (vals[:, :, None] * vals[:, None, :]).ravel(),
        E * E,
    ).reshape(E, E)
    cutoff = RANK_CUTOFF * _norm(form)
    # A is a pulled-back antisymmetric form, so antisymmetric: its row
    # sums bound its column sums too, and |A|_2^2 <= |A|_1 |A|_inf <= bound
    bound = float(np.abs(vals).sum(axis=1).max()) ** 2
    floor = max(cutoff * cutoff, E * EPS * bound)
    if s < E:
        _clears_floor_beyond(basis, gram, bound, floor)
    return RankReport(
        form.chart,
        E,
        E - s,
        math.sqrt(floor),
        subspace="unbroken",
    )


def _clears_floor_beyond(q, gram, bound: float, floor: float) -> None:
    """Check that gram's eigenvalues off span(q) exceed floor, overwriting gram.

    q is an orthonormal basis of the span of an exact kernel of gram, so
    the span's orthogonal complement is invariant.  The matrix
    M = gram + bound q q^T - floor I has eigenvalues bound - floor > 0 on
    the span and gram's others less floor off it, so M is positive
    definite exactly when those clear the floor (Sylvester's law of
    inertia).  Cholesky decides that without eigenvalues, left-looking
    and in place: gram's lower triangle becomes M's factor L one panel of
    columns K = k:end at a time.  The panel takes its columns of
    bound q q^T (the floor is already off the diagonal) and loses the
    earlier panels' L[k:, :k] L[K, :k]^T; its diagonal block is factored,
    and the rows below are solved against that factor (np.linalg.solve:
    numpy has no triangular solve).  Nothing wider than one panel is
    allocated beside gram, and gram above its diagonal blocks is never
    read.
    """
    E = len(gram)
    panels = -(-E // GRAM_PANEL)  # ceiling divisions
    nb = -(-E // panels)
    edges = [*range(0, max(E - nb, 1), nb), E]  # the last panel up to 2 nb wide
    bq = bound * q
    gram.flat[:: E + 1] -= floor
    try:
        for k, end in zip(edges, edges[1:]):
            panel = gram[k:, k:end]
            panel += bq[k:] @ q[k:end].T
            if k:
                panel -= gram[k:, :k] @ gram[k:end, :k].T
            w = end - k
            panel[:w] = factor = np.linalg.cholesky(panel[:w])
            if end < E:
                panel[w:] = np.linalg.solve(factor, panel[w:].T).T
    except np.linalg.LinAlgError:
        raise NumericalBreakdown(
            f"unbroken Gram matrix less its floor {floor} is not positive "
            "definite beyond the horocycle kernel"
        ) from None
