import math

import numpy as np
import pytest

from conftest import random_triangulation

from brokensurf import samples
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


def boxed(T, seed=0):
    return samples.random_boxed_structure(T, samples.rng(seed))


def test_gap_definition(torus):
    H = constant_structure(torus, 2.0)
    for p in torus.pairs:
        assert H.gap(p) == pytest.approx(math.log(2.0), abs=1e-15)
    H2 = constant_structure(torus)  # all sqrt2: gaps at rounding level
    assert all(abs(H2.gap(p)) <= 1e-15 for p in torus.pairs)
    assert np.all(H2.gaps() <= GAP_FLOOR)


def test_gap_rejects_short_lambda(torus):
    lam = {p: 2.0 for p in torus.pairs}
    lam[(0, 1)] = 1.0
    H = DecoratedBrokenHyperbolic(torus, lam)
    with pytest.raises(InvalidDecoration):
        H.gap((0, 1))


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
    for p in sphere.pairs:
        q = sphere.gluing[p]
        assert H.gap_ratio(p) == pytest.approx(H.gap(q) / H.gap(p), rel=1e-14)
        assert H.lambda_ratio(p) == pytest.approx(H.lam[q] / H.lam[p], rel=1e-14)
        assert H.gap_ratio(p) * H.gap_ratio(q) == pytest.approx(1.0, rel=1e-13)


def test_gap_ratio_degenerate(torus):
    H = constant_structure(torus)
    with pytest.raises(DegenerateEdge):
        H.gap_ratio((0, 0))


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
    phi = 1.0
    for near in H.T.corner_cycles[puncture].crossings:
        far = H.T.gluing[near]
        if convention == "gap":
            phi *= H.gap(far) / H.gap(near)
        else:
            phi *= float(H.lam[far] / H.lam[near])
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
    for p in ((0, 0), (1, 0)):
        with pytest.raises(DegenerateEdge):
            H.gap_ratio(p)
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
    lam[(0, 0)] = 2.9  # 2 * 2 < sqrt2 * 2.9 * ... no wait: 4 > 4.1
    H = DecoratedBrokenHyperbolic(torus, lam)
    rep = H.validate()
    assert not rep.valid
    names = {c.name: c for c in rep.checks}
    assert not names["face_inequalities"].passed


def test_validate_flags_short_lambda_without_raising(torus):
    lam = {p: 2.0 for p in torus.pairs}
    lam[(1, 2)] = 1.2
    rep = DecoratedBrokenHyperbolic(torus, lam).validate()
    assert not rep.valid
    names = {c.name: c for c in rep.checks}
    assert not names["gaps_nonnegative"].passed


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
    for f, c in sphere.sectors:
        geom = H.geometric_arc((f, c))
        assert geom == pytest.approx(SQRT2 * H.h_length((f, c)), rel=1e-11)


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
        for p in T.pairs:
            assert H.coupling_residual(p) == pytest.approx(0.0, abs=1e-12)


def test_coupling_residual_definition(sphere):
    # h-length product at the ends of the edge is 1/lambda^2 within a
    # face, so the residual is the difference of the two sides' 1/lambda^2
    H = boxed(sphere, 7)
    for p in sphere.pairs:
        q = sphere.gluing[p]
        expected = 1.0 / H.lam[p] ** 2 - 1.0 / H.lam[q] ** 2
        assert H.coupling_residual(p) == pytest.approx(expected, abs=1e-15)


def test_embed_unbroken_by_edge_values(torus):
    H = embed_unbroken(torus, [2.0, 2.2, 2.4])
    for p in torus.pairs:
        assert H.lam[p] == H.lam[torus.gluing[p]]
    assert H.is_unbroken()


def test_shift_zero_when_symmetric(torus):
    H = constant_structure(torus, 2.0)
    for p in torus.pairs:
        assert H.shift(p) == pytest.approx(0.0, abs=1e-14)


def test_shift_needs_positive_gaps(torus):
    H = constant_structure(torus)
    with pytest.raises(DegenerateEdge):
        H.shift((0, 0))
