import math

import numpy as np
import pytest

from conftest import glued, oracle_table, random_triangulation, table_structures

from brokensurf import forms, minkowski, samples
from brokensurf.errors import DegenerateEdge, InvalidDecoration
from brokensurf.foliation import BrokenMeasure
from brokensurf.hyperbolic import (
    GAP_FLOOR,
    SQRT2,
    DecoratedBrokenHyperbolic,
    constant_structure,
    embed_unbroken,
)
from brokensurf.minkowski import lambda_pair
from brokensurf.triangulation import NEXT, PREV


def boxed(T, seed=0):
    return samples.random_boxed_structure(T, samples.rng(seed))


def test_gap_definition(torus):
    H = constant_structure(torus, 2.0)
    assert H.gaps() == pytest.approx(np.full((2, 3), math.log(2.0)), abs=1e-15)
    H2 = constant_structure(torus)  # all sqrt2: gaps at rounding level
    assert np.all(np.abs(H2.gaps()) <= 1e-15)
    assert np.all(H2.gaps() <= GAP_FLOOR)


def test_gaps_are_finite_on_the_whole_float_range(torus):
    # 2 log(lambda) - log(2) never squares lambda, so neither end overflows
    huge = embed_unbroken(torus, [1e300, 2e300, 1.5e300])
    want = 2.0 * math.log(1e300) - math.log(2.0)
    assert huge.gaps()[0, 0] == pytest.approx(want, rel=1e-15)
    report = huge.validate()
    assert report.valid and not report.warnings
    tiny = constant_structure(torus, 5e-324)
    assert np.isfinite(tiny._gaps).all()
    checks = {c.name: c for c in tiny.validate().checks}
    assert not checks["gaps_nonnegative"].passed
    assert checks["face_inequalities"].residual == pytest.approx(-tiny._gaps[0, 0] / 2)


def test_face_check_is_the_gap_measures_triangle_inequality(torus, gen):
    # (g_j + g_k - g_i) / 2 = log(lambda_j lambda_k / (sqrt2 lambda_i)): the
    # face inequality's log margin is the small weight of the gap measure
    for _ in range(100):
        lam = np.exp(gen.uniform(math.log(SQRT2), 3.0, size=(2, 3)))
        H = DecoratedBrokenHyperbolic(torus, lam)
        check = {c.name: c for c in H.validate().checks}["face_inequalities"]
        margin = np.log(lam[:, NEXT] * lam[:, PREV] / (SQRT2 * lam))
        assert check.residual == pytest.approx(max(0.0, -margin.min()), abs=1e-14)
        assert check.passed == (margin.min() >= -1e-9)
        m = forms.to_measure(H)
        assert m._smalls == pytest.approx(margin, abs=1e-14)
        assert m.validate().valid == check.passed


def test_gap_rejects_short_lambda(torus):
    lam = {p: 2.0 for p in torus.pairs}
    lam[(0, 1)] = 1.0
    lam[(1, 0)] = 1.1
    H = DecoratedBrokenHyperbolic(torus, lam)
    # every table built on the gaps names the first short pair
    for table in (H.gaps, lambda: H.gap_ratios, H.shifts):
        with pytest.raises(InvalidDecoration, match=r"lambda at \(0, 1\)"):
            table()


def test_constructor_rejects_bad_tables(torus):
    with pytest.raises(ValueError):
        DecoratedBrokenHyperbolic(torus, {p: -1.0 for p in torus.pairs})
    with pytest.raises(ValueError):
        DecoratedBrokenHyperbolic(torus, {(0, 0): 2.0})
    # structures and measures share one read-only (F, 3) table contract
    values = {p: 2.0 + 0.1 * (3 * p[0] + p[1]) for p in torus.pairs}
    array = np.array([[values[(f, s)] for s in range(3)] for f in range(2)])
    for cls, noun, table_of in (
        (DecoratedBrokenHyperbolic, "lambda", lambda H: H.lam),
        (BrokenMeasure, "weight", lambda m: m.w),
    ):
        table = table_of(cls(torus, values))
        assert table.shape == (2, 3)
        assert table[(1, 2)] == values[(1, 2)]
        with pytest.raises(ValueError):
            table[0, 0] = 3.0
        assert np.array_equal(table_of(cls(torus, array)), table)
        with pytest.raises(ValueError, match="shape"):
            cls(torus, np.ones((3, 3)))
        with pytest.raises(ValueError, match=rf"missing {noun} for pair \(0, 1\)"):
            cls(torus, {p: v for p, v in values.items() if p != (0, 1)})
        with pytest.raises(ValueError, match=rf"{noun}s given for unknown pairs"):
            cls(torus, {**values, (2, 0): 1.0})
        with pytest.raises(ValueError, match=rf"{noun} at \(1, 0\) must be"):
            cls(torus, {**values, (1, 0): math.inf})


def test_ratio_conventions(sphere):
    H = boxed(sphere)
    far = sphere.partner
    gaps = H.gaps()
    assert H.gap_ratios == pytest.approx(gaps.ravel()[far] / gaps, rel=1e-14)
    assert H.lambda_ratios == pytest.approx(H.lam.ravel()[far] / H.lam, rel=1e-14)
    both = H.gap_ratios * H.gap_ratios.ravel()[far]
    assert both == pytest.approx(np.ones((2, 3)), rel=1e-13)
    for table in (H.gap_ratios, H.lambda_ratios):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_gap_ratio_degenerate(torus):
    H = constant_structure(torus)
    assert np.isnan(H.gap_ratios).all()


def test_sample_box_keeps_faces_valid():
    # the worst face inequality of a boxed face is lo * lo >= sqrt(2) * hi
    assert samples.BOX_LOW**2 >= math.sqrt(2.0) * samples.BOX_HIGH


def test_unbroken_detection(torus, gen):
    assert samples.random_unbroken(torus, gen).is_unbroken()
    assert not boxed(torus).is_unbroken()


def test_puncture_holonomy_single_cusp_any_lambdas(torus):
    # one cycle visits every pair once as near and once as far, so the
    # product cancels no matter the decoration
    for seed in range(20):
        H = boxed(torus, seed)
        assert H.puncture_holonomy(0, "gap") == pytest.approx(1.0, abs=1e-12)
        assert H.puncture_holonomy(0, "lambda") == pytest.approx(1.0, abs=1e-12)


def test_puncture_holonomy_closed_ansatz(sphere, gen):
    H = samples.random_valid_structure(sphere, gen)
    for i in range(sphere.num_punctures):
        assert H.puncture_holonomy(i, "gap") == pytest.approx(1.0, abs=1e-12)


def test_holonomy_product_over_punctures(sphere):
    # individually nontrivial, jointly telescoping
    H = boxed(sphere, 3)
    phis = [H.puncture_holonomy(i, "gap") for i in range(3)]
    assert max(abs(phi - 1.0) for phi in phis) > 1e-3
    total = phis[0] * phis[1] * phis[2]
    assert total == pytest.approx(1.0, rel=1e-12)


def sequential_holonomy(H, puncture, convention):
    """The far/near ratio product, taken crossing by crossing."""
    table = H.gaps() if convention == "gap" else H.lam
    phi = 1.0
    for c in H.T.cycle_crossings[puncture].tolist():
        near = divmod(c, 3)
        phi *= float(table[glued(H.T)[near]] / table[near])
    return phi


@pytest.mark.parametrize("faces", [None, 2, 20, 200, 2000])
def test_puncture_holonomy_is_the_sequential_product(torus, sphere, faces):
    if faces is None:
        surfaces = [torus, sphere]
    else:
        surfaces = [random_triangulation(faces, faces)]
    for T in surfaces:
        for H in (samples.random_valid_structure(T, samples.rng(1)), boxed(T)):
            for i in range(T.num_punctures):
                for convention in ("gap", "lambda"):
                    want = sequential_holonomy(H, i, convention)
                    assert H.puncture_holonomy(i, convention) == want


def test_zero_gap_voids_every_puncture_it_meets(sphere):
    # the zero gap at (0, 0) is crossed into around one end of its edge
    # and out of around the other: both ends' holonomies are undefined
    lam = np.full((2, 3), 2.0)
    lam[0, 0] = SQRT2
    H = DecoratedBrokenHyperbolic(sphere, lam)
    assert H.puncture_holonomy(0, "gap") == 1.0
    for i in (1, 2):
        with pytest.raises(DegenerateEdge):
            H.puncture_holonomy(i, "gap")
    assert H.T.pairs_where(np.isnan(H.gap_ratios)) == [(0, 0), (1, 0)]
    assert [H.puncture_holonomy(i, "lambda") for i in range(3)] == [
        sequential_holonomy(H, i, "lambda") for i in range(3)
    ]


def test_puncture_holonomy_rejects_short_lambda(torus):
    lam = np.full((2, 3), 2.0)
    lam[1, 2] = 1.2
    H = DecoratedBrokenHyperbolic(torus, lam)
    with pytest.raises(InvalidDecoration):
        H.puncture_holonomy(0, "gap")


def test_validate_valid(sphere, gen):
    rep = samples.random_valid_structure(sphere, gen).validate()
    assert rep.valid
    assert {c.name for c in rep.checks} >= {
        "face_inequalities", "gaps_nonnegative", "puncture_holonomy"
    }


def test_validate_flags_face_inequality(torus):
    lam = {p: 2.0 for p in torus.pairs}
    lam[(0, 0)] = 2.9  # 2 * 2 < sqrt2 * 2.9
    H = DecoratedBrokenHyperbolic(torus, lam)
    rep = H.validate()
    assert not rep.valid
    names = {c.name: c for c in rep.checks}
    assert not names["face_inequalities"].passed
    # the residual is the log margin log(sqrt2 lambda_i / (lambda_j lambda_k))
    want = math.log(SQRT2 * 2.9 / 4.0)
    assert names["face_inequalities"].residual == pytest.approx(want, rel=1e-13)


def test_validate_flags_short_lambda_without_raising(torus):
    lam = {p: 2.0 for p in torus.pairs}
    lam[(1, 2)] = 1.2
    rep = DecoratedBrokenHyperbolic(torus, lam).validate()
    assert not rep.valid
    names = {c.name: c for c in rep.checks}
    assert not names["gaps_nonnegative"].passed
    # in the gap units of its predicate: the most negative gap, negated
    want = math.log(2.0) - 2.0 * math.log(1.2)
    assert names["gaps_nonnegative"].residual == pytest.approx(want, rel=1e-15)


def test_validate_degenerate_warns(torus):
    rep = constant_structure(torus).validate()
    assert rep.valid
    assert rep.warnings


def test_validate_flags_open_holonomy(sphere):
    H = boxed(sphere, 3)
    rep = H.validate()
    assert not rep.valid
    names = {c.name: c for c in rep.checks}
    assert names["face_inequalities"].passed
    assert not names["puncture_holonomy"].passed


def test_h_length_and_geometric_arc_agree(sphere, gen):
    H = samples.random_valid_structure(sphere, gen)
    assert H.geometric_arcs() == pytest.approx(SQRT2 * H.h_lengths(), rel=1e-11)


@pytest.mark.parametrize("lam", [1e200, 1e-200])
def test_geometric_arcs_reject_a_lift_past_float_range(torus, lam):
    # valid lambdas whose lift leaves float range give no arc, not NaN
    H = constant_structure(torus, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^points must be finite at index 0$"):
            H.geometric_arcs()


def test_face_lift_realizes_lambdas(sphere, gen):
    H = samples.random_valid_structure(sphere, gen)
    for f in range(sphere.faces):
        lift = H.face_lift(f)
        assert np.linalg.det(lift) > 0.0
        for k in range(3):
            assert lambda_pair(lift[k - 2], lift[k - 1]) == pytest.approx(
                H.lam[(f, k)], rel=1e-12
            )


def test_coupling_residual_unbroken_zero(torus, sphere, gen):
    for T in (torus, sphere):
        H = samples.random_unbroken(T, gen)
        assert np.abs(H.coupling_residuals()).max() <= 1e-12


def test_coupling_residual_definition(sphere):
    # h-length product at the ends of the edge is 1/lambda^2 within a
    # face, so the residual is the difference of the two sides' 1/lambda^2
    H = boxed(sphere, 7)
    inverse_square = 1.0 / H.lam**2
    expected = inverse_square - inverse_square.ravel()[sphere.partner]
    assert H.coupling_residuals() == pytest.approx(expected, abs=1e-15)


def test_embed_unbroken_by_edge_values(torus):
    H = embed_unbroken(torus, [2.0, 2.2, 2.4])
    for p in torus.pairs:
        assert H.lam[p] == H.lam[glued(torus)[p]]
    assert H.is_unbroken()


def test_shift_zero_when_symmetric(torus):
    H = constant_structure(torus, 2.0)
    assert np.abs(H.shifts()).max() <= 1e-14


def test_shift_needs_positive_gaps(torus):
    assert np.isnan(constant_structure(torus).shifts()).all()
    # a zero gap voids the shifts of its edge's two pairs and no others
    lam = np.full((2, 3), 2.0)
    lam[0, 0] = SQRT2
    shifts = DecoratedBrokenHyperbolic(torus, lam).shifts()
    assert torus.pairs_where(np.isnan(shifts)) == [(0, 0), (1, 1)]


# --- scalar oracles ---------------------------------------------------
# One pair or sector at a time, as the per-pair accessors computed them;
# NaN stands where those raised DegenerateEdge.


def oracle_gap_ratio(H, pair) -> float:
    far = glued(H.T)[pair]
    if H.zero_gap[pair] or H.zero_gap[far]:
        return math.nan
    gaps = H.gaps()
    return float(gaps[far]) / float(gaps[pair])


def oracle_h_length(H, sector) -> float:
    f, c = sector
    lam = H.lam[f].tolist()
    return lam[c] / (lam[(c + 1) % 3] * lam[(c + 2) % 3])


def oracle_coupling_residual(H, pair) -> float:
    (f, k), (g, k2) = pair, glued(H.T)[pair]
    h = oracle_h_length
    own = h(H, (f, (k + 1) % 3)) * h(H, (f, (k + 2) % 3))
    other = h(H, (g, (k2 + 1) % 3)) * h(H, (g, (k2 + 2) % 3))
    return own - other


def oracle_shift(H, pair) -> float:
    (f, k), (g, k2) = pair, glued(H.T)[pair]
    own_over_far = oracle_gap_ratio(H, (g, k2))
    mine, theirs = H.lam[f].tolist(), H.lam[g].tolist()
    own = math.log(mine[k] * mine[(k + 2) % 3] / (SQRT2 * mine[(k + 1) % 3]))
    foreign = math.log(
        theirs[k2] * theirs[(k2 + 1) % 3] / (SQRT2 * theirs[(k2 + 2) % 3])
    )
    return foreign * own_over_far - own


def test_tables_match_scalar_oracles(table_surface):
    T = table_surface
    for H in table_structures(T):
        gap_ratios = oracle_table(T, lambda p: oracle_gap_ratio(H, p))
        assert np.array_equal(H.gap_ratios, gap_ratios, equal_nan=True)
        lambda_ratios = oracle_table(T, lambda p: float(H.lam[glued(T)[p]] / H.lam[p]))
        assert np.array_equal(H.lambda_ratios, lambda_ratios)
        h_lengths = oracle_table(T, lambda s: oracle_h_length(H, s))
        assert np.array_equal(H.h_lengths(), h_lengths)
        lifts = [H.face_lift(f) for f in range(T.faces)]
        arcs = oracle_table(T, lambda s: minkowski.horocycle_arc(lifts[s[0]], s[1]))
        assert np.array_equal(H.geometric_arcs(), arcs)
        residuals = oracle_table(T, lambda p: oracle_coupling_residual(H, p))
        assert np.array_equal(H.coupling_residuals(), residuals)
        # np.log and math.log may round one value differently
        want, got = oracle_table(T, lambda p: oracle_shift(H, p)), H.shifts()
        assert np.array_equal(np.isnan(got), np.isnan(want))
        defined = ~np.isnan(want)
        slack = 4.4e-16 * np.maximum(1.0, np.abs(want[defined]))
        assert np.all(np.abs(got[defined] - want[defined]) <= slack)
    assert np.isnan(H.gap_ratios).any()  # the zero gaps void some entries
