import re
from collections import namedtuple
from enum import IntEnum
from functools import partial

import numpy as np
import pytest
from conftest import (
    glued,
    oracle_cycle_basis,
    oracle_triangulation,
    random_gluing,
    random_triangulation,
)

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
    assert [len(c) for c in torus.cycle_crossings] == [6]


def test_sphere_census(sphere):
    assert sphere.faces == 2
    assert sphere.num_edges == 3
    assert sphere.num_punctures == 3
    assert sphere.genus == 0
    assert sphere.euler_characteristic() == -1
    assert [len(c) for c in sphere.cycle_crossings] == [2, 2, 2]


SURFACES = {
    "torus": torus_fixture,
    "sphere": sphere_fixture,
    **{f"random-{F}": partial(random_triangulation, F, F) for F in (2, 20, 200)},
}


@pytest.mark.parametrize("faces", [2, 20, 200])
def test_edge_sides_agree_with_edges_and_edge_index(faces):
    T = random_triangulation(faces, faces)
    sides = T.edge_sides
    assert sides.shape == (T.num_edges, 2) and not sides.flags.writeable
    assert [tuple(map(divmod, e, (3, 3))) for e in sides.tolist()] == list(T.edges)
    assert (T.edge_index.ravel()[sides] == np.arange(T.num_edges)[:, None]).all()
    assert (T.partner.ravel()[sides[:, 0]] == sides[:, 1]).all()


@pytest.mark.parametrize("surface", SURFACES)
def test_corner_cycles_partition_sectors(surface):
    T = SURFACES[surface]()
    gluing = glued(T)
    # crossing (f, s) leaves the sector at corner s - 1 of face f
    cycles = [[divmod(c, 3) for c in crossed.tolist()] for crossed in T.cycle_crossings]
    sectors = [[(f, (s + 2) % 3) for f, s in cyc] for cyc in cycles]
    seen = [sec for secs in sectors for sec in secs]
    assert sorted(seen) == sorted(T.pairs)
    # puncture i is the cycle through the i-th smallest cycle start
    starts = [secs[0] for secs in sectors]
    assert starts == sorted(starts)
    for i, (cyc, secs) in enumerate(zip(cycles, sectors)):
        assert secs[0] == min(secs)
        for j, (f, c) in enumerate(secs):
            g, k = gluing[cyc[j]]
            assert secs[(j + 1) % len(secs)] == (g, (k + 1) % 3)
            assert T.puncture_of[(f, c)] == i
    assert T.edges == tuple(sorted({tuple(sorted((p, gluing[p]))) for p in T.pairs}))


def test_gluing_is_involution(torus, sphere):
    for T in (torus, sphere):
        partner = T.partner.ravel()
        assert (partner[partner] == np.arange(partner.size)).all()


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


LOOP_SURFACES = {
    "torus": torus_fixture,
    "sphere": sphere_fixture,
    **{
        f"random-{F}-seed{seed}": partial(random_triangulation, F, seed)
        for F in (20, 200)
        for seed in range(4)
    },
}


@pytest.mark.parametrize("surface", LOOP_SURFACES)
def test_dual_loops_match_oracle(surface):
    T = LOOP_SURFACES[surface]()
    oracle = oracle_triangulation(T.faces, T.edges)
    want = {
        "punctures": [cyc.crossings for cyc in oracle.corner_cycles],
        "basis": oracle_cycle_basis(T),
    }
    for which, loops in want.items():
        got = dual_loops(T, which)
        assert {type(c) for loop in got for c in loop} == {int}
        assert [tuple(divmod(c, 3) for c in loop) for loop in got] == loops


def test_open_path_rejected(torus):
    # crossing 0 = (0, 0) lands on face 1, but crossing 1 starts at face 0
    with pytest.raises(OpenPath, match=re.escape("crossing (0, 0) lands on face 1")):
        check_loop(torus, [0, 1])
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
        assert glued(torus)[crossed_from] == (ball.face[i], ball.entry_slot[i])
        assert crossed_from[0] == ball.face[parent]
        assert depths[i] == depths[parent] + 1


TORUS_GLUING = [((0, k), (1, (k + 1) % 3)) for k in range(3)]
SPHERE_GLUING = [((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))]


def assert_same_triangulation(T, want):
    """Every attribute oracle_triangulation builds, arrays with dtype and shape.

    T names crossings by flat index alone, so the oracle's corner_cycles
    are compared as cycle_crossings.
    """
    for name, expected in vars(want).items():
        if name == "corner_cycles":
            continue
        got = getattr(T, name)
        if name == "cycle_crossings":
            assert len(got) == len(expected)
            pairs = zip(got, expected)
        elif isinstance(expected, np.ndarray):
            pairs = [(got, expected)]
        else:
            assert got == expected, name
            continue
        for g, e in pairs:
            assert (g.dtype, g.shape) == (e.dtype, e.shape), name
            assert (g == e).all(), name


@pytest.mark.parametrize(
    "fixture, gluing",
    [(torus_fixture, TORUS_GLUING), (sphere_fixture, SPHERE_GLUING)],
    ids=["torus", "sphere"],
)
def test_fixtures_match_oracle(fixture, gluing):
    assert_same_triangulation(fixture(), oracle_triangulation(2, gluing))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("faces", [2, 20, 200, 2000])
def test_random_triangulations_match_oracle(faces, seed):
    pairs = random_gluing(faces, seed)
    assert_same_triangulation(
        build_triangulation(faces, pairs), oracle_triangulation(faces, pairs)
    )


class Index(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


Slot = namedtuple("Slot", "face slot")
Entry = namedtuple("Entry", "near far")

ACCEPTED = {
    "list-entries": [[list(p), list(q)] for p, q in TORUS_GLUING],
    "namedtuple-pairs": [(Slot(*p), Slot(*q)) for p, q in TORUS_GLUING],
    "namedtuple-entries": [Entry(p, q) for p, q in TORUS_GLUING],
    "intenum-indices": [
        (tuple(map(Index, p)), tuple(map(Index, q))) for p, q in TORUS_GLUING
    ],
}


@pytest.mark.parametrize("entries", ACCEPTED.values(), ids=ACCEPTED)
def test_accepted_gluing_matches_oracle(entries):
    assert_same_triangulation(
        build_triangulation(2, entries), oracle_triangulation(2, entries)
    )


def test_gluing_may_be_any_iterable():
    assert_same_triangulation(
        build_triangulation(2, iter(TORUS_GLUING)),
        oracle_triangulation(2, TORUS_GLUING),
    )


REST = TORUS_GLUING[1:]
TWO_TORI = [((b, k), (b + 1, (k + 1) % 3)) for b in (0, 2) for k in range(3)]

MALFORMED = {
    "bool-index": (2, [((0, 0), (True, 1)), *REST]),
    "float-slot": (2, [((0, 0.0), (1, 1)), *REST]),
    "numpy-int": (2, [((np.int64(0), 0), (1, 1)), *REST]),
    "three-element-entry": (2, [((0, 0), (1, 1), (0, 1)), *REST]),
    "three-element-pair": (2, [((0, 0, 0), (1, 1)), *REST]),
    "string-entry": (2, ["ab", *REST]),
    "int-pair": (2, [((0, 0), 5), *REST]),
    "face-out-of-range": (2, [((0, 0), (2, 1)), *REST]),
    "negative-face": (2, [((-1, 0), (1, 1)), *REST]),
    "face-beyond-int64": (2, [((2**70, 0), (1, 1)), *REST]),
    "slot-out-of-range": (2, [((0, 0), (1, 3)), *REST]),
    "slot-aliasing-next-face": (2, [*TORUS_GLUING[:2], ((0, 2), (0, 3))]),
    "self-glued": (2, [((0, 0), (0, 0)), *REST]),
    "reused": (2, [*TORUS_GLUING, ((0, 0), (1, 1))]),
    "reused-before-malformed": (
        2, [*TORUS_GLUING[:2], ((0, 0), (1, 2)), ((0, 2), "x")]
    ),
    "malformed-last": (2, [*TORUS_GLUING[:2], ((0, 2), (1, 0.0))]),
    "unglued": (2, TORUS_GLUING[:2]),
    "empty": (2, []),
    "odd-faces": (1, [((0, 0), (0, 1))]),
    "disconnected": (4, TWO_TORI),
    "zero-faces": (0, []),
    "bool-faces": (True, TORUS_GLUING),
    "float-faces": (2.0, TORUS_GLUING),
}


@pytest.mark.parametrize("faces, entries", MALFORMED.values(), ids=MALFORMED)
def test_malformed_gluing_raises_as_oracle(faces, entries):
    with pytest.raises(Exception) as want:
        oracle_triangulation(faces, entries)
    with pytest.raises(Exception) as got:
        build_triangulation(faces, entries)
    assert type(got.value) is want.type
    assert str(got.value) == str(want.value)
