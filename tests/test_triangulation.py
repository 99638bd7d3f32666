from functools import partial

import pytest
from conftest import random_triangulation

from brokensurf.errors import Disconnected, NonOrientable, OpenPath, SlotReused
from brokensurf.triangulation import (
    build_triangulation,
    check_loop,
    dual_loops,
    sphere_fixture,
    torus_fixture,
    unfold_ball,
)


def test_torus_census(torus):
    assert torus.faces == 2
    assert torus.num_edges == 3
    assert torus.num_punctures == 1
    assert torus.genus == 1
    assert torus.euler_characteristic() == -1
    assert [len(c.sectors) for c in torus.corner_cycles] == [6]


def test_sphere_census(sphere):
    assert sphere.faces == 2
    assert sphere.num_edges == 3
    assert sphere.num_punctures == 3
    assert sphere.genus == 0
    assert sphere.euler_characteristic() == -1
    assert [len(c.sectors) for c in sphere.corner_cycles] == [2, 2, 2]


SURFACES = {
    "torus": torus_fixture,
    "sphere": sphere_fixture,
    **{f"random-{F}": partial(random_triangulation, F, F) for F in (2, 20, 200)},
}


@pytest.mark.parametrize("surface", SURFACES)
def test_corner_cycles_partition_sectors(surface):
    T = SURFACES[surface]()
    seen = [sec for cyc in T.corner_cycles for sec in cyc.sectors]
    assert sorted(seen) == sorted(T.sectors)
    # puncture i is the cycle through the i-th smallest cycle start
    starts = [cyc.sectors[0] for cyc in T.corner_cycles]
    assert starts == sorted(starts)
    for i, cyc in enumerate(T.corner_cycles):
        assert cyc.index == i
        assert cyc.sectors[0] == min(cyc.sectors)
        assert len(cyc.crossings) == len(cyc.sectors)
        for j, (f, c) in enumerate(cyc.sectors):
            assert cyc.crossings[j] == (f, (c + 1) % 3)
            g, k = T.gluing[cyc.crossings[j]]
            assert cyc.sectors[(j + 1) % len(cyc)] == (g, (k + 1) % 3)
            assert T.puncture_of[(f, c)] == i
    assert T.edges == tuple(sorted({tuple(sorted((p, T.gluing[p]))) for p in T.pairs}))


def test_gluing_is_involution(torus, sphere):
    for T in (torus, sphere):
        for p in T.pairs:
            assert T.gluing[T.gluing[p]] == p


def test_self_gluing_rejected():
    with pytest.raises(NonOrientable):
        build_triangulation(2, [((0, 0), (0, 0)), ((0, 1), (1, 1)),
                                ((0, 2), (1, 2)), ((1, 0), (0, 0))])


def test_reused_slot_rejected():
    with pytest.raises(SlotReused):
        build_triangulation(2, [((0, 0), (1, 0)), ((0, 0), (1, 1)),
                                ((0, 1), (1, 2)), ((0, 2), (1, 1))])


def test_disconnected_rejected():
    # two tori that never touch
    pairs = []
    for base in (0, 2):
        for k in range(3):
            pairs.append(((base, k), (base + 1, (k + 1) % 3)))
    with pytest.raises(Disconnected):
        build_triangulation(4, pairs)


def test_malformed_pairs_rejected():
    with pytest.raises(ValueError):
        build_triangulation(2, [((0, 0), (1, 3)), ((0, 1), (1, 2)),
                                ((0, 2), (1, 1)), ((1, 0), (0, 0))])
    with pytest.raises(ValueError):
        build_triangulation(2, [((0, 0), (2, 0)), ((0, 1), (1, 2)),
                                ((0, 2), (1, 1)), ((1, 0), (0, 0))])


def test_roundtrip_dict(torus, sphere):
    for T in (torus, sphere):
        d = T.to_dict()
        T2 = build_triangulation(d["faces"], [(tuple(p), tuple(q))
                                              for p, q in d["gluing"]])
        assert T2.to_dict() == d


def test_puncture_loops_close(torus, sphere):
    for T in (torus, sphere):
        for loop in dual_loops(T, which="punctures"):
            assert check_loop(T, loop) == tuple(loop)


def test_basis_loops_close_and_count(torus, sphere):
    # dual graph has E - F + 1 independent cycles
    for T in (torus, sphere):
        basis = dual_loops(T, which="basis")
        assert len(basis) == T.num_edges - T.faces + 1
        for loop in basis:
            check_loop(T, loop)


def test_open_path_rejected(torus):
    with pytest.raises(OpenPath):
        check_loop(torus, [(0, 0), (0, 1)])
    with pytest.raises(OpenPath):
        check_loop(torus, [])


def test_unfold_ball_counts(torus, sphere):
    for T in (torus, sphere):
        for depth in range(5):
            ball = unfold_ball(T, 0, depth)
            expected = 1 if depth == 0 else 3 * 2**depth - 2
            assert len(ball.face) == expected
            assert max(ball.depths) == depth


def test_unfold_ball_parents_consistent(torus):
    ball = unfold_ball(torus, 1, 3)
    depths = ball.depths
    for i in range(1, len(ball.face)):
        parent = ball.parent[i]
        crossed_from = divmod(int(ball.crossed[i]), 3)
        assert torus.gluing[crossed_from] == (ball.face[i], ball.entry_slot[i])
        assert crossed_from[0] == ball.face[parent]
        assert depths[i] == depths[parent] + 1
