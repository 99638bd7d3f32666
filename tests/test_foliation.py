import math

import numpy as np
import pytest
from conftest import (
    glued,
    mixed_scale_measure,
    oracle_table,
    random_triangulation,
    table_structures,
)

from brokensurf import forms, samples
from brokensurf.errors import TriangleInequalityViolated
from brokensurf.foliation import (
    BrokenMeasure,
    from_small_weights,
    puncture_loop_vector,
    split_collars,
)
from brokensurf.hyperbolic import EPS
from brokensurf.triangulation import NEXT, PREV


def measure_345(T):
    return BrokenMeasure(
        T, {(f, s): float(w) for f in range(T.faces)
            for s, w in enumerate((3.0, 4.0, 5.0))}
    )


def test_small_weights_345(torus):
    m = measure_345(torus)
    # small at corner c: half of (w(c+1) + w(c+2) - w(c))
    assert m.small_weights()[0].tolist() == pytest.approx([3.0, 2.0, 1.0])


def test_switch_conditions(torus, sphere, gen):
    for T in (torus, sphere):
        m = samples.random_measure(T, gen)
        smalls = m.small_weights()
        assert smalls[:, NEXT] + smalls[:, PREV] == pytest.approx(m.w, rel=1e-14)


def test_small_weights_near_float_max(torus):
    # halving before summing keeps two weights near the max in range
    m = BrokenMeasure(torus, np.full((2, 3), 1e308))
    assert np.all(m.small_weights() == 5e307)


def test_small_weights_halve_first_without_moving_a_bit(gen):
    # halving is exact, so (sum - own) / 2 and sum / 2 - own / 2 agree
    T = random_triangulation(200, 3)
    L = np.ones((3, 3)) - np.eye(3)
    for exponent in range(-300, 301, 25):
        w = gen.uniform(0.0, 1.0, size=(200, 3)) * 10.0**exponent
        old = 0.5 * (w @ L.T - w)
        assert np.array_equal(BrokenMeasure(T, w)._smalls, old)


def test_small_weight_roundtrip(torus, gen):
    m = samples.random_measure(torus, gen)
    rebuilt = from_small_weights(torus, m.small_weights())
    for p in torus.pairs:
        assert rebuilt.w[p] == pytest.approx(m.w[p], abs=1e-15)


def test_triangle_inequality_violation(torus):
    w = {p: 1.0 for p in torus.pairs}
    w[(0, 0)] = 5.0  # 1 + 1 < 5
    m = BrokenMeasure(torus, w)
    with pytest.raises(TriangleInequalityViolated, match="face 0 .* corner 0$"):
        m.small_weights()
    with pytest.raises(TriangleInequalityViolated):
        m.shifts()
    rep = m.validate()
    assert not rep.valid


@pytest.mark.parametrize("factor", [1.0, 1e-6, 1e-300, 1e290])
@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
def test_validate_is_scale_invariant_on_mixed_scales(torus, factor, tol):
    report = mixed_scale_measure(torus).scale(factor).validate(tol)
    assert report.valid, report.to_dict()


def test_switch_defect_is_rounding_at_every_scale(gen):
    # nonnegative small weights mixing 1e8 within a face, at 1e-300..1e300
    T = random_triangulation(20, 2)
    for exponent in range(-300, 301, 50):
        smalls = 10.0 ** (exponent + gen.uniform(-8.0, 0.0, size=(T.faces, 3)))
        report = from_small_weights(T, smalls).validate()
        assert report.valid, (exponent, report.to_dict())
        switch = {c.name: c.residual for c in report.checks}["switch_conditions"]
        assert switch <= 4.0 * EPS


def test_switch_check_catches_a_wrong_recomputation(torus):
    # one recomputed small weight off by 1e-9 of its face's scale: the
    # triangle check still passes, the switch check must not
    m = mixed_scale_measure(torus)
    wrong = m._smalls.copy()
    wrong[1, 2] += 1e-9 * m._face_scale[1, 0]
    m.__dict__["_smalls"] = wrong  # the cached table validate reads
    passed = {c.name: c.passed for c in m.validate().checks}
    assert passed == {
        "weights_nonnegative": True,
        "triangle_inequalities": True,
        "switch_conditions": False,
    }


def test_validate_random_measures(torus, sphere, gen):
    for T in (torus, sphere):
        assert samples.random_measure(T, gen).validate().valid


def test_scale(torus, gen):
    m = samples.random_measure(torus, gen)
    m2 = m.scale(2.5)
    for p in torus.pairs:
        assert m2.w[p] == pytest.approx(2.5 * m.w[p], rel=1e-15)
    with pytest.raises(ValueError):
        m.scale(-1.0)


def test_homothety_factor(sphere, gen):
    m = samples.random_measure(sphere, gen)
    want = m.w.ravel()[sphere.partner] / m.w
    assert m.homothety_factors == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        m.homothety_factors[0, 0] = 1.0


def test_gap_measure_homothety_factors_are_gap_ratios(table_surface):
    # the gap chart carries each edge's homothety factor over unchanged
    for H in table_structures(table_surface):
        defined = ~np.isnan(H.gap_ratios)
        factors = forms.to_measure(H).homothety_factors
        assert np.array_equal(factors[defined], H.gap_ratios[defined])


def test_measure_shift_scaling(sphere, gen):
    # the shift converts the far side's small weight into near-side units
    m = samples.random_measure(sphere, gen)
    want = oracle_table(sphere, lambda p: oracle_shift(m, p))
    assert np.array_equal(m.shifts(), want)


def test_shift_degenerate_edge(torus):
    w = {p: 1.0 for p in torus.pairs}
    w[(0, 0)] = 0.0
    shifts = BrokenMeasure(torus, w).shifts()
    assert torus.pairs_where(np.isnan(shifts)) == [(0, 0), (1, 1)]


# --- scalar oracles ---------------------------------------------------
# One pair or sector at a time, as the per-pair accessors computed them;
# NaN stands where those raised DegenerateEdge.


def oracle_small(m, sector) -> float:
    f, c = sector
    w = m.w[f].tolist()
    return max((w[(c + 1) % 3] + w[(c + 2) % 3] - w[c]) / 2.0, 0.0)


def oracle_homothety_factor(m, pair) -> float:
    if m.w[pair] == 0.0:
        return math.nan
    return float(m.w[glued(m.T)[pair]] / m.w[pair])


def oracle_shift(m, pair) -> float:
    (f, k), (g, k2) = pair, glued(m.T)[pair]
    if m.w[(g, k2)] == 0.0 or m.w[pair] == 0.0:
        return math.nan
    own = oracle_small(m, (f, (k + 1) % 3))
    foreign = oracle_small(m, (g, (k2 + 2) % 3))  # far corner at our tail end
    return float(foreign * (m.w[pair] / m.w[(g, k2)]) - own)


def table_measures(T):
    """Gap measures of valid, boxed and unbroken structures, a random
    measure, and one whose zero small weights leave zero large weights."""
    gen = samples.rng(T.faces)
    measures = [forms.to_measure(H) for H in table_structures(T)[:3]]
    smalls = gen.uniform(0.0, 1.0, size=(T.faces, 3))
    smalls[::3, 1:] = 0.0  # w(f, 0) = small(f, 1) + small(f, 2) = 0
    return measures + [
        samples.random_measure(T, gen),
        from_small_weights(T, smalls),
    ]


def test_measure_tables_match_scalar_oracles(table_surface):
    for m in table_measures(table_surface):
        smalls = oracle_table(m.T, lambda s: oracle_small(m, s))
        assert np.array_equal(m.small_weights(), smalls)
        factors = oracle_table(m.T, lambda p: oracle_homothety_factor(m, p))
        assert np.array_equal(m.homothety_factors, factors, equal_nan=True)
        shifts = oracle_table(m.T, lambda p: oracle_shift(m, p))
        assert np.array_equal(m.shifts(), shifts, equal_nan=True)
    assert np.isnan(m.shifts()).any()  # the zero weights void some entries


def test_puncture_loop_vector_torus(torus):
    vec = puncture_loop_vector(torus, 0)
    # the single cycle has every pair once as near and once as far
    assert all(vec.w[p] == 2.0 for p in torus.pairs)
    assert vec.validate().valid
    assert vec.small_weights().ravel().tolist() == pytest.approx([1.0] * 6)


def test_puncture_loop_vectors_sum(sphere):
    # summed over punctures: near counts and far counts each hit every
    # pair exactly once
    total = {p: 0.0 for p in sphere.pairs}
    for i in range(sphere.num_punctures):
        vec = puncture_loop_vector(sphere, i)
        for p in sphere.pairs:
            total[p] += vec.w[p]
    assert all(v == 2.0 for v in total.values())


def test_split_collars_345(torus):
    split = split_collars(measure_345(torus))
    assert split.collars == (1.0,)
    assert np.unique(split.core.w).tolist() == [1.0, 2.0, 3.0]


def test_split_collars_recombines(torus, sphere, gen):
    for T in (torus, sphere):
        m = samples.random_measure(T, gen)
        split = split_collars(m)
        back = split.total()
        for p in T.pairs:
            assert back.w[p] == pytest.approx(m.w[p], abs=1e-12)


def test_split_collars_idempotent(torus, sphere):
    for T in (torus, sphere):
        for seed in range(20):
            m = samples.random_measure(T, samples.rng(seed))
            split = split_collars(m)
            again = split_collars(split.core)
            assert all(abs(c) <= 1e-12 for c in again.collars)
            for p in T.pairs:
                assert again.core.w[p] == pytest.approx(
                    split.core.w[p], abs=1e-12
                )


def test_core_has_zero_small_per_puncture(sphere, gen):
    m = samples.random_measure(sphere, gen)
    core = split_collars(m).core
    smalls = core.small_weights()
    for puncture in range(sphere.num_punctures):
        least = smalls[sphere.puncture_of == puncture].min()
        assert least == pytest.approx(0.0, abs=1e-12)
