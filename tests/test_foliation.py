import numpy as np
import pytest

from brokensurf import samples
from brokensurf.errors import DegenerateEdge, TriangleInequalityViolated
from brokensurf.foliation import (
    BrokenMeasure,
    from_small_weights,
    puncture_loop_vector,
    split_collars,
)


def measure_345(T):
    return BrokenMeasure(
        T, {(f, s): float(w) for f in range(T.faces)
            for s, w in enumerate((3.0, 4.0, 5.0))}
    )


def test_small_weights_345(torus):
    m = measure_345(torus)
    # small at corner c: half of (w(c+1) + w(c+2) - w(c))
    assert m.small((0, 0)) == pytest.approx(3.0)
    assert m.small((0, 1)) == pytest.approx(2.0)
    assert m.small((0, 2)) == pytest.approx(1.0)


def test_switch_conditions(torus, sphere, gen):
    for T in (torus, sphere):
        m = samples.random_measure(T, gen)
        for f, k in T.pairs:
            lhs = m.small((f, (k + 1) % 3)) + m.small((f, (k + 2) % 3))
            assert lhs == pytest.approx(m.w[(f, k)], rel=1e-14)


def test_small_weight_roundtrip(torus, gen):
    m = samples.random_measure(torus, gen)
    rebuilt = from_small_weights(torus, m.small_weights())
    for p in torus.pairs:
        assert rebuilt.w[p] == pytest.approx(m.w[p], abs=1e-15)


def test_triangle_inequality_violation(torus):
    w = {p: 1.0 for p in torus.pairs}
    w[(0, 0)] = 5.0  # 1 + 1 < 5
    m = BrokenMeasure(torus, w)
    with pytest.raises(TriangleInequalityViolated):
        m.small((0, 0))
    rep = m.validate()
    assert not rep.valid


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
    for p in sphere.pairs:
        q = sphere.gluing[p]
        assert m.homothety_factor(p) == pytest.approx(
            m.w[q] / m.w[p], rel=1e-14
        )


def test_holonomy_is_cycle_product(torus, sphere, gen):
    for T in (torus, sphere):
        m = samples.random_measure(T, gen)
        for cyc in T.corner_cycles:
            expected = 1.0
            for near in cyc.crossings:
                expected *= m.w[T.gluing[near]] / m.w[near]
            assert m.holonomy(cyc.crossings) == pytest.approx(expected, rel=1e-12)


def test_measure_shift_scaling(sphere, gen):
    # the shift converts the far side's small weight into near-side units
    m = samples.random_measure(sphere, gen)
    for p in sphere.pairs:
        f, k = p
        g, k2 = sphere.gluing[p]
        own = m.small((f, (k + 1) % 3))
        foreign = m.small((g, (k2 + 2) % 3))
        expected = foreign * (m.w[p] / m.w[sphere.gluing[p]]) - own
        assert m.shift(p) == pytest.approx(expected, abs=1e-14)


def test_shift_degenerate_edge(torus):
    w = {p: 1.0 for p in torus.pairs}
    w[(0, 0)] = 0.0
    m = BrokenMeasure(torus, w)
    with pytest.raises(DegenerateEdge):
        m.shift((0, 0))


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
    for cyc in sphere.corner_cycles:
        least = min(core.small(sec) for sec in cyc.sectors)
        assert least == pytest.approx(0.0, abs=1e-12)
