import dataclasses
import gc
import importlib
import json
import math
import re
import time
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from conftest import (
    drift_overflow_torus,
    exact_traces,
    json_text,
    mixed_scale_torus,
    oracle_ball_dict,
    oracle_cross_edge,
    oracle_deck,
    oracle_develop,
    oracle_develop_along,
    oracle_path_holonomy,
    oracle_residuals,
    oracle_svg_body,
    random_triangulation,
)

from brokensurf import fileio, minkowski, render, samples
from brokensurf.develop import (
    DRIFT_BOUND,
    DevelopedBall,
    DevelopedLift,
    DevelopedNodes,
    DevelopedPaths,
    PathHolonomy,
    _develop_along,
    cusp_closure_residual,
    deck_candidates,
    develop,
    path_holonomy,
    tile_separation,
)
from brokensurf.errors import GeometryError, NumericalBreakdown, OpenPath
from brokensurf.hyperbolic import EPS, constant_structure, embed_unbroken
from brokensurf.triangulation import check_loop, check_loops, dual_loops, unfold_ball


def bits(x) -> str:
    """repr: it spells distinct floats (0.0 and -0.0 too) and int types apart."""
    return repr(x)


def node_fields(nodes):
    """Every field of every node: the others as they are, the floats' bits.

    The float fields must be Python floats, each point a tuple in a
    DevelopedLift or (the oracle's) a plain tuple; the others Python
    ints or None.
    """
    rest = [(n.index, n.face, n.depth, n.parent, n.entry_slot) for n in nodes]
    assert {type(v) for row in rest for v in row} <= {int, type(None)}
    floats = [(*(c for p in n.points for c in p), n.scale, n.drift) for n in nodes]
    assert {type(n.points) for n in nodes} <= {DevelopedLift, tuple}
    assert {type(p) for n in nodes for p in n.points} <= {tuple}
    assert {type(v) for row in floats for v in row} == {float}
    return rest, np.array(floats).view(np.int64).tolist()


def compact_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False)


def surface(request, name):
    """A fixture by name, or random_triangulation(F, F) for an int F."""
    if isinstance(name, str):
        return request.getfixturevalue(name)
    return random_triangulation(name, name)


def test_ball_population(torus, gen):
    H = samples.random_boxed_structure(torus, gen)
    ball = develop(H, base=0, depth=3)
    assert len(ball.nodes) == 3 * 2**3 - 2
    assert ball.nodes[0].scale == 1.0
    assert ball.max_drift() <= DRIFT_BOUND
    for node in ball.nodes:
        assert np.linalg.det(np.array(node.points)) > 0.0


def test_crossing_matches_extend_across(torus, sphere, gen):
    # the closed-form far corner against the quadratic solve, with the
    # target lambdas rescaled by the lift's own shared-edge lambda
    for T in (torus, sphere):
        for _ in range(5):
            H = samples.random_boxed_structure(T, gen)
            near = H.face_lift(0).tolist()
            for s in range(3):
                glued, far, _, _ = oracle_cross_edge(H, s, near)
                g, k2 = divmod(glued, 3)
                apex, head, tail = near[s], near[(s + 1) % 3], near[(s + 2) % 3]
                factor = minkowski.lambda_pair(head, tail) / H.lam[(g, k2)]
                # the far corner lies on the other side of the chord from the apex
                apex_side = np.linalg.det(np.column_stack([tail, head, apex]))
                want = minkowski.extend_across(
                    tail,
                    head,
                    factor * H.lam[(g, (k2 + 2) % 3)],
                    factor * H.lam[(g, (k2 + 1) % 3)],
                    side=-1 if apex_side > 0 else 1,
                )
                got = far[k2]
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("seed", range(1, 11))
def test_broken_torus_develops_deep(torus, seed):
    H = samples.random_valid_structure(torus, samples.rng(seed))
    ball = develop(H, 0, 12)
    assert len(ball.nodes) == 3 * 2**12 - 2
    # rows are a lift's points; the transpose has the same determinant
    dets = np.linalg.det(np.array([node.points for node in ball.nodes]))
    assert np.all(dets > 0.0)
    assert ball.max_drift() <= DRIFT_BOUND


@pytest.mark.parametrize("make", ["unbroken", "broken"])
def test_ball_beyond_determinant_resolution(torus, make):
    # depth 16: on the broken torus 100 of the lifts have det <= 0 (the
    # determinant is z^3 * chord^3, below the rounding of z), yet every
    # tile keeps its boundary angles in ccw cyclic order and realises its
    # scaled lambdas to within 4 eps of the terms that cancel
    if make == "unbroken":
        H = constant_structure(torus, 2.0)
    else:
        H = samples.random_valid_structure(torus, samples.rng(1))
    ball = develop(H, 0, 16)
    assert len(ball.face) == 196606
    x, y, _ = ball.vertices.T
    angle = np.arctan2(y, x)[ball.corner]
    turn1 = (angle[:, 1] - angle[:, 0]) % (2 * math.pi)
    turn2 = (angle[:, 2] - angle[:, 0]) % (2 * math.pi)
    assert np.all((0.0 < turn1) & (turn1 < turn2))
    points = ball.vertices[ball.corner]
    lam = H.lam[ball.face]
    for k in range(3):
        u, v = points[:, (k + 1) % 3], points[:, (k + 2) % 3]
        pairing = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] - u[:, 2] * v[:, 2]
        residual = np.abs(-pairing - ball.scale**2 * lam[:, k] ** 2) / (u[:, 2] * v[:, 2])
        assert residual.max() <= 4 * EPS


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 8])
def test_deep_broken_nodes_realize_scaled_lambdas(torus, seed):
    H = samples.random_valid_structure(torus, samples.rng(seed))
    for node in develop(H, 0, 8).nodes:
        for k in range(3):
            got = minkowski.lambda_pair(
                node.points[(k + 1) % 3], node.points[(k + 2) % 3]
            )
            want = node.scale * H.lam[(node.face, k)]
            assert got == pytest.approx(want, rel=1e-6)


def test_every_node_realizes_scaled_lambdas(sphere, gen):
    # each developed copy carries its own homothety factor; the lift's
    # pair values must be the structure's, scaled by exactly that
    H = samples.random_boxed_structure(sphere, gen)
    ball = develop(H, base=1, depth=3)
    for node in ball.nodes:
        for k in range(3):
            got = minkowski.lambda_pair(
                node.points[(k + 1) % 3], node.points[(k + 2) % 3]
            )
            want = node.scale * H.lam[(node.face, k)]
            assert got == pytest.approx(want, rel=1e-9)


def test_unbroken_ball_keeps_unit_scale(torus):
    H = constant_structure(torus, 2.0)
    ball = develop(H, depth=4)
    assert all(n.scale == 1.0 for n in ball.nodes)


def test_develop_along_chains(torus, gen):
    H = samples.random_boxed_structure(torus, gen)
    loop = dual_loops(torus, "punctures")[0]
    lift, points, scale, face = _develop_along(H, loop, {})
    assert face == loop[0] // 3
    for got, want in zip(lift, H.face_lift(face)):
        assert np.array_equal(got, want)
    assert len(points) == 3
    assert scale > 0.0


NOT_INTS = {"negative": -1, "bool": True, "float": 1.0, "numpy-int": np.int64(0)}
BAD_PATHS = {
    **{name: [value] for name, value in NOT_INTS.items()},
    "past-the-end": [6],
    # a closed loop on the sphere in the (face, slot) form
    "face-slot-pairs": [(0, 0), (1, 1)],
}
BAD_PUNCTURES = {**NOT_INTS, "past-the-end": 3, "tuple": (0,)}


@pytest.mark.parametrize("path", BAD_PATHS.values(), ids=BAD_PATHS)
def test_paths_reject_what_is_no_crossing(sphere, path):
    # a crossing is a flat index 3f+s in range(6) on the sphere; -1 used
    # to wrap to the last pair and 6 to raise a bare IndexError
    H = samples.random_valid_structure(sphere, samples.rng(1))
    message = re.escape(f"crossing {path[0]!r} is not an int in range(6)")
    closed = dual_loops(sphere, "basis")[0]
    calls = (
        (partial(check_loop, sphere), path),
        (partial(path_holonomy, H), path),
        # the batched check names the loop check_loop rejects
        (partial(check_loops, sphere), [closed, path]),
        (DevelopedPaths(H).holonomies, [closed, path]),
    )
    for call, arg in calls:
        with pytest.raises(ValueError, match=message):
            call(arg)


# on the sphere crossing 0 = (0, 0) lands on face 1
OPEN_PATHS = {"empty": [], "open": [0], "open-twice": [0, 0], "open-late": [0, 3, 1]}


@pytest.mark.parametrize(
    "second", [*OPEN_PATHS.values(), *BAD_PATHS.values()], ids=[*OPEN_PATHS, *BAD_PATHS]
)
def test_batched_check_raises_what_check_loop_raises(sphere, second):
    # a list whose second loop is rejected raises check_loop's error for
    # it, type and text, though the third is open too; an open first
    # loop is named before a second that is no crossing
    H = samples.random_valid_structure(sphere, samples.rng(1))
    closed = dual_loops(sphere, "basis")[0]
    with pytest.raises((ValueError, OpenPath)) as want:
        check_loop(sphere, second)
    for call in (partial(check_loops, sphere), DevelopedPaths(H).holonomies):
        with pytest.raises((ValueError, OpenPath)) as got:
            call([closed, second, [0]])
        assert (type(got.value), str(got.value)) == (want.type, str(want.value))
        with pytest.raises(OpenPath, match=re.escape("crossing (0, 0) lands on face 1")):
            call([[0], second])


def test_batched_check_passes_closed_loops(sphere):
    loops = [*dual_loops(sphere, "punctures"), *dual_loops(sphere, "basis")]
    assert check_loops(sphere, loops) == [check_loop(sphere, loop) for loop in loops]
    assert check_loops(sphere, map(list, loops)) == loops
    assert check_loops(sphere, []) == []


def random_walk(T, gen, length: int) -> list:
    """A chain of crossings from a random face, each leaving by a random slot."""
    partner = T.partner.ravel()
    path = [3 * int(gen.integers(T.faces)) + int(gen.integers(3))]
    while len(path) < length:
        path.append(3 * (int(partner[path[-1]]) // 3) + int(gen.integers(3)))
    return path


def walk_outcomes(H, path) -> tuple:
    """The inline and the oracle walk: each start lift's bytes and the bits of the rest, or its error."""

    def outcome(walk):
        try:
            lift, *rest = walk()
        except GeometryError as exc:
            return type(exc), str(exc)
        return lift.tobytes(), bits(rest)

    return outcome(lambda: _develop_along(H, path, {})), outcome(lambda: oracle_develop_along(H, path))


@pytest.mark.parametrize("name", ["torus", "sphere", 20])
@pytest.mark.parametrize("kind", ["broken", "unbroken"])
def test_inline_walk_matches_crossing_oracle(request, name, kind):
    # the inlined crossings against one oracle_cross_edge call per
    # crossing: points, scale and final face bit for bit, over every
    # loop and random chains through every slot
    T = surface(request, name)
    make = samples.random_valid_structure if kind == "broken" else samples.random_unbroken
    H = make(T, samples.rng(14))
    gen = samples.rng(15)
    chains = [random_walk(T, gen, n) for n in (1, 2, 3, 40, 40, 40, 200)]
    for path in [*dual_loops(T, "punctures"), *dual_loops(T, "basis"), *chains]:
        got, want = walk_outcomes(H, path)
        assert got == want
        assert got[0] is not NumericalBreakdown


@pytest.mark.parametrize(
    "make, message",
    [
        (mixed_scale_torus, "light-cone drift nan crossing (1, 1)"),
        (drift_overflow_torus, "light-cone drift inf crossing (1, 1)"),
        (lambda torus: huge_torus(torus), "lift of face 0 is not finite"),
    ],
    ids=["drift-nan", "drift-inf", "lift-not-finite"],
)
def test_inline_walk_breaks_down_as_the_oracle(torus, make, message):
    H = make(torus)
    loop = dual_loops(torus, "punctures")[0]
    for path in (loop, loop[:3], [1, 4], [4]):
        got, want = walk_outcomes(H, path)
        assert got == want
    assert message in walk_outcomes(H, loop)[0][1]


def holonomy_fields(hols) -> list:
    """Every float of each holonomy pair, as bits: matrix, scale, both residuals."""
    assert {type(h.scale) for h in hols} | {
        type(f()) for h in hols for f in (h.lorentz_residual, h.backward_residual)
    } <= {float}
    return [
        (h.matrix.tobytes(), bits(h.scale), bits(h.lorentz_residual()), bits(h.backward_residual()))
        for h in hols
    ]


@pytest.mark.parametrize("name", ["torus", "sphere", 20, 200])
@pytest.mark.parametrize("kind", ["broken", "unbroken"])
def test_loop_holonomies_match_path_holonomy(request, name, kind):
    # the stacked finish against one-loop path_holonomy and the
    # loop-by-loop oracle, bit for bit; a loop that breaks down makes the
    # batch raise the first such loop's error
    T = surface(request, name)
    make = samples.random_valid_structure if kind == "broken" else samples.random_unbroken
    H = make(T, samples.rng(16))
    for which in ("punctures", "basis"):
        loops = dual_loops(T, which)
        singles, failures = {}, []
        for loop in loops:
            try:
                singles[loop] = path_holonomy(H, loop)
            except GeometryError as exc:
                failures.append(exc)
        if failures:
            with pytest.raises(type(failures[0]), match=re.escape(str(failures[0]))):
                DevelopedPaths(H).holonomies(loops)
        good = list(singles)
        hol = DevelopedPaths(H).holonomies(good)
        assert DevelopedPaths(H).holonomies([]).matrix.shape == (0, 3, 3)
        assert hol.matrix.shape == (len(good), 3, 3)
        stacked = [
            PathHolonomy(m, s)
            for m, s in zip(hol.matrix, hol.scale.tolist())
        ]
        want = holonomy_fields(singles.values())
        assert holonomy_fields(stacked) == want
        assert [bits(r) for r in hol.lorentz_residual().tolist()] == [w[2] for w in want]
        assert [bits(r) for r in hol.backward_residual().tolist()] == [w[3] for w in want]
        oracle = [oracle_path_holonomy(H, loop) for loop in good]
        assert [(m.tobytes(), *map(bits, rest)) for m, *rest in oracle] == want


def test_stacked_residuals_square_by_pow():
    # pow(x, 2), the one-loop formula's square, and numpy's x * x differ
    # in the last bit for about one float in 1200; 2 x 5000 squares here
    gen = samples.rng(19)
    m = gen.normal(size=(5000, 3, 3))
    scale = gen.uniform(0.5, 2.0, 5000)
    hol = PathHolonomy(m, scale)
    got = zip(hol.lorentz_residual().tolist(), hol.backward_residual().tolist())
    want = [oracle_residuals(mi, s) for mi, s in zip(m, scale.tolist())]
    assert bits(list(got)) == bits(want)
    one = PathHolonomy(m[0], float(scale[0]))
    assert bits((one.lorentz_residual(), one.backward_residual())) == bits(want[0])


def test_corner_cycles_are_walked_once(sphere, monkeypatch):
    # a corner cycle's cusp closure and its loop holonomy share one walk,
    # and every walk from a face shares its start lift
    develop_module = importlib.import_module("brokensurf.develop")  # not the function
    counts = {"walks": 0, "lifts": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    H = samples.random_valid_structure(sphere, samples.rng(17))
    loops = dual_loops(sphere, "punctures")
    want = [cusp_closure_residual(H, p) for p in range(sphere.num_punctures)]
    want_hol = DevelopedPaths(H).holonomies(loops)
    monkeypatch.setattr(develop_module, "_develop_along", counted("walks", _develop_along))
    monkeypatch.setattr(develop_module, "_start_lift", counted("lifts", develop_module._start_lift))
    paths = DevelopedPaths(H)
    got = [paths.cusp_closure_residual(p) for p in range(sphere.num_punctures)]
    hol = paths.holonomies(loops)
    assert counts == {"walks": len(loops), "lifts": len({loop[0] // 3 for loop in loops})}
    assert bits(got) == bits(want)
    assert hol.matrix.tobytes() == want_hol.matrix.tobytes()
    assert hol.scale.tobytes() == want_hol.scale.tobytes()


@pytest.mark.parametrize("bad", BAD_PUNCTURES.values(), ids=BAD_PUNCTURES)
def test_punctures_reject_what_is_no_puncture(sphere, bad):
    # -1 used to name the last puncture and 3 to raise a bare IndexError
    H = samples.random_valid_structure(sphere, samples.rng(1))
    message = re.escape(f"puncture {bad!r} is not an int in range(3)")
    with pytest.raises(ValueError, match=message):
        cusp_closure_residual(H, bad)
    for convention in ("gap", "lambda"):
        with pytest.raises(ValueError, match=message):
            H.puncture_holonomy(bad, convention)


def test_paths_build_no_tuple_view():
    # loops, holonomies and cusp closures read the flat arrays alone
    T = random_triangulation(20, 3)
    H = constant_structure(T, 2.0)
    for which in ("punctures", "basis"):
        for loop in dual_loops(T, which):
            path_holonomy(H, loop)
    for puncture in range(T.num_punctures):
        cusp_closure_residual(H, puncture)
    assert not {"pairs", "edges", "gluing"} & set(vars(T))


def test_empty_loop_is_identity(torus, gen):
    H = samples.random_boxed_structure(torus, gen)
    hol = path_holonomy(H, [])
    assert np.array_equal(hol.matrix, np.eye(3))
    assert hol.scale == 1.0
    assert hol.lorentz_residual() == 0.0


def test_unbroken_loop_scale_is_exactly_one(torus, gen):
    H = samples.random_unbroken(torus, gen)
    loop = dual_loops(torus, "punctures")[0]
    hol = path_holonomy(H, loop)
    assert hol.scale == 1.0
    assert hol.lorentz_residual() <= 1e-11


def test_loop_scale_inverts_lambda_holonomy(torus, gen):
    # each crossing multiplies by near/far, the holonomy convention by
    # far/near, so the two products are reciprocal
    H = samples.random_boxed_structure(torus, gen)
    loop = dual_loops(torus, "punctures")[0]
    hol = path_holonomy(H, loop)
    phi = H.puncture_holonomy(0, convention="lambda")
    assert hol.scale * phi == pytest.approx(1.0, rel=1e-12)


def test_holonomy_scales_the_form(sphere, gen):
    H = samples.random_boxed_structure(sphere, gen)
    for loop in dual_loops(sphere, "punctures"):
        hol = path_holonomy(H, loop)
        assert hol.lorentz_residual() <= 1e-9
        u, v = samples.random_lift(gen)[:2]
        lhs = minkowski.mform(hol.matrix @ u, hol.matrix @ v)
        rhs = hol.scale**2 * minkowski.mform(u, v)
        assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1])
def test_backward_residual_on_long_loops(seed):
    # lorentz_residual divides by scale^2 only and grows with loop length
    # here; scaled by max|M|^2 the defect stays at rounding level
    T = random_triangulation(200, seed)
    H = samples.random_valid_structure(T, samples.rng(seed))
    developed = 0
    for loop in dual_loops(T, which="punctures"):
        try:
            hol = path_holonomy(H, loop)
        except GeometryError:
            continue
        developed += 1
        assert hol.backward_residual() <= 1e-14
    assert developed > 0


def test_composition_order(torus, gen):
    H = samples.random_boxed_structure(torus, gen)
    loop = dual_loops(torus, "punctures")[0]
    twice = path_holonomy(H, loop + loop)
    once = path_holonomy(H, loop)
    assert twice.scale == pytest.approx(once.scale**2, rel=1e-12)
    assert np.allclose(twice.matrix, once.matrix @ once.matrix, rtol=1e-9, atol=1e-9)


def test_deck_candidates_unbroken(torus):
    H = constant_structure(torus, 2.0)
    ball = develop(H, depth=4)
    cands = deck_candidates(H, ball)
    assert cands
    root_inv = np.linalg.inv(np.column_stack(ball.nodes[0].points))
    for index, matrix, scale in cands:
        assert ball.nodes[index].face == 0
        assert scale == 1.0
        assert PathHolonomy(matrix, scale).lorentz_residual() <= 1e-9
        # end frame times inverse start frame, one node at a time
        want = np.column_stack(ball.nodes[index].points) @ root_inv
        assert np.allclose(matrix, want, rtol=1e-12, atol=0.0)


def triple_bits(triple) -> tuple:
    """A deck triple's node, matrix bytes and scale bits, its types checked."""
    node, matrix, scale = triple
    assert type(node) is int and type(scale) is float and matrix.shape == (3, 3)
    return node, matrix.tobytes(), bits(scale)


@pytest.mark.parametrize("name", ["torus", "sphere", 20])
def test_deck_candidates_are_stacked_triples(request, name):
    # a read-only sequence of (node, matrix, scale) triples, bit for bit
    # the node oracle's, over three stacked read-only arrays
    T = surface(request, name)
    H = samples.random_valid_structure(T, samples.rng(14))
    for depth in range(7):
        ball = develop(H, 0, depth)
        deck = deck_candidates(H, ball)
        want = [triple_bits(t) for t in oracle_deck(0, oracle_develop(H, 0, depth))]
        k = len(want)
        assert len(deck) == k and bool(deck) == (k > 0)
        assert depth or not deck  # the root alone repeats nothing
        assert [triple_bits(t) for t in deck] == want
        assert [triple_bits(deck[i]) for i in range(k)] == want
        assert [triple_bits(deck[i]) for i in range(-k, 0)] == want
        for past in (k, -k - 1):
            with pytest.raises(IndexError):
                deck[past]
        shapes = (deck.nodes.shape, deck.matrices.shape, deck.scales.shape)
        assert shapes == ((k,), (k, 3, 3), (k,))
        arrays = (deck.nodes, deck.matrices, deck.scales, *(m for _, m, _ in deck))
        assert not any(a.flags.writeable for a in arrays)


def test_cusp_closure_unbroken(torus, sphere, gen):
    for T in (torus, sphere):
        H = samples.random_unbroken(T, gen)
        for p in range(T.num_punctures):
            assert cusp_closure_residual(H, p) <= 1e-12


def test_cusp_closure_measures_lambda_holonomy(sphere, gen):
    H = samples.random_boxed_structure(sphere, gen)
    for p in range(sphere.num_punctures):
        res = cusp_closure_residual(H, p)
        want = abs(math.log(H.puncture_holonomy(p, convention="lambda")))
        assert res == pytest.approx(want, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("name", ["torus", "sphere", 20, 200])
def test_constant_lambda_traces_are_exact(request, name):
    # on one lambda everywhere every shear is 0 and each loop's holonomy
    # is an integer matrix: sqrt(tr M / scale + 1) is its |trace| t.  Each
    # of a loop's n crossings rounds the frame by about eps max|M|, so the
    # three diagonal entries put tr M off by about 3 n eps max|M| and the
    # square root by that over 2 |t| scale; the bound rounds 3/2 up to 2
    T = surface(request, name)
    H = constant_structure(T, 2.0)
    for which in ("basis", "punctures"):
        loops = dual_loops(T, which)
        want = np.abs(exact_traces(T, loops))
        hol = DevelopedPaths(H).holonomies(loops)
        got = np.sqrt(np.trace(hol.matrix, axis1=1, axis2=2) / hol.scale + 1)
        n = np.array([len(loop) for loop in loops])
        bound = 2 * n * EPS * np.abs(hol.matrix).max(axis=(1, 2)) / (hol.scale * want)
        assert (np.abs(got - want) <= bound).all()
    assert want.tolist() == [2] * T.num_punctures  # parabolic
    if name == "torus":
        assert exact_traces(T, dual_loops(T, "basis")) == [3, 3]


def oracle_tile_separation(points_a, points_b) -> float:
    """Per-pair separating-axis margin: both tiles recomputed for every pair."""

    def flat(points):
        return [(x / z, y / z) for x, y, z in points]

    a, b = flat(points_a), flat(points_b)
    best = math.inf
    for tri in (a, b):
        for i in range(3):
            ex = tri[(i + 1) % 3][0] - tri[i][0]
            ey = tri[(i + 1) % 3][1] - tri[i][1]
            nx, ny = -ey, ex
            pa = [nx * x + ny * y for x, y in a]
            pb = [nx * x + ny * y for x, y in b]
            overlap = min(max(pa), max(pb)) - max(min(pa), min(pb))
            norm = math.hypot(nx, ny)
            if norm > 0.0:
                best = min(best, overlap / norm)
    return best


def _sweep(points, separation=tile_separation):
    n = len(points)
    return [separation(points[i], points[j]) for i in range(n) for j in range(i + 1, n)]


def test_tiles_do_not_overlap(torus):
    H = constant_structure(torus, 2.0)
    nodes = develop(H, depth=3).nodes
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            sep = tile_separation(nodes[i].points, nodes[j].points)
            assert sep <= 1e-9


def test_tile_against_itself_overlaps(torus):
    H = constant_structure(torus, 2.0)
    pts = develop(H, depth=1).nodes[0].points
    assert tile_separation(pts, pts) > 0.0
    assert tile_separation(pts, pts) == pytest.approx(
        oracle_tile_separation(pts, pts), abs=4e-15
    )


@pytest.mark.parametrize("surface", ["torus", "sphere", 20, 200])
@pytest.mark.parametrize("kind", ["broken", "unbroken"])
def test_tile_separation_matches_oracle(request, surface, kind):
    if isinstance(surface, int):
        T = random_triangulation(surface, surface)
    else:
        T = request.getfixturevalue(surface)
    gen = samples.rng(3)
    make = samples.random_boxed_structure if kind == "broken" else samples.random_unbroken
    points = [n.points for n in develop(make(T, gen), depth=4).nodes]
    want = _sweep(points, oracle_tile_separation)
    got = _sweep(points)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 4e-15
    assert max(got) <= 1e-9  # the ball embeds


def test_tile_separation_cold_and_warm_sweeps_agree(torus):
    # a cold sweep measures each DevelopedLift once and keeps its tile on
    # it, a warm one reads them back, and plain-tuple copies are measured
    # afresh on every call, keep nothing and give the same bits
    H = samples.random_boxed_structure(torus, samples.rng(4))
    points = [n.points for n in develop(H, depth=4).nodes]
    assert {type(p) for p in points} == {DevelopedLift}
    assert not any(vars(p) for p in points)
    cold = _sweep(points)
    assert all(set(vars(p)) == {"tile"} for p in points)
    assert bits(_sweep(points)) == bits(cold)
    copies = [tuple(tuple([*p]) for p in lift) for lift in points]
    assert copies == points and {type(c) for c in copies} == {tuple}
    assert bits(_sweep(copies)) == bits(cold)
    assert max(abs(g - w) for g, w in zip(cold, _sweep(copies, oracle_tile_separation))) <= 4e-15


def test_tile_geometry_lives_with_its_lifts(torus):
    # a deep ball's lifts swept against one lift, then dropped: no tile
    # geometry outlives them
    H = constant_structure(torus, 2.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ball = develop(H, 0, 10)
        lifts = [n.points for n in ball.nodes]
        for lift in lifts:
            tile_separation(lift, lifts[0])
        del ball, lifts, lift
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.1e6


def test_tile_separation_measures_unhashable_lifts(torus):
    # a triple holding a list is measured, not refused, and keeps nothing
    nodes = develop(constant_structure(torus, 2.0), depth=1).nodes
    good, other = nodes[0].points, nodes[1].points
    bad = (list(good[0]), good[1], good[2])
    for x, y in [(bad, other), (other, bad), (bad, bad)]:
        assert tile_separation(x, y) == pytest.approx(oracle_tile_separation(x, y), abs=4e-15)
    assert bits(tile_separation(bad, other)) == bits(tile_separation(good, other))


def test_tile_with_collapsed_edge():
    ideal = tuple((math.cos(t), math.sin(t), 1.0) for t in (0.0, 2.0, 4.0))
    collapsed = (ideal[0], ideal[0], ideal[2])  # edge 0 -> 1 has length 0
    point = (ideal[1], ideal[1], ideal[1])  # no edge at all
    far = tuple((math.cos(t), math.sin(t), 1.0) for t in (2.1, 2.2, 2.3))
    for a, b in [(collapsed, ideal), (collapsed, far), (point, ideal), (collapsed, collapsed)]:
        for x, y in [(a, b), (b, a)]:
            assert tile_separation(x, y) == pytest.approx(
                oracle_tile_separation(x, y), abs=4e-15
            )
    assert tile_separation(collapsed, far) < 0.0
    assert tile_separation(point, point) == math.inf  # no axis to separate on


@pytest.mark.parametrize("last_base", [False, True])
@pytest.mark.parametrize("name", ["torus", "sphere", 20, 200])
def test_develop_matches_node_oracle(request, name, last_base):
    # the level-by-level arrays against the crossing-by-crossing walk,
    # bit for bit, in every form a caller reads them: nodes (iterated and
    # indexed), deck candidates, develop's document and its picture;
    # broken and unbroken
    T = surface(request, name)
    base = T.faces - 1 if last_base else 0
    structures = (samples.random_valid_structure, samples.random_unbroken)
    for H in (make(T, samples.rng(11)) for make in structures):
        for depth in [*range(9), *([12] if name == "torus" else [])]:
            ball = develop(H, base, depth)
            want = oracle_develop(H, base, depth)
            assert node_fields(ball.nodes) == node_fields(want)
            if depth <= 8:
                by_index = [ball.nodes[i] for i in range(len(ball.nodes))]
                assert node_fields(by_index) == node_fields(want)
            deck, want_deck = deck_candidates(H, ball), oracle_deck(base, want)
            assert [(i, bits(s)) for i, _, s in deck] == [
                (i, bits(s)) for i, _, s in want_deck
            ]
            mats = [np.array([m for _, m, _ in d]).reshape(-1, 3, 3) for d in (deck, want_deck)]
            assert np.array_equal(*(m.view(np.int64) for m in mats))
            doc = oracle_ball_dict(base, depth, want) | {"max_drift": max(n.drift for n in want)}
            text = fileio.canonical_json(ball)
            if depth <= 8:  # the CLI's depths; depth 0 is the root alone
                assert text == json_text(doc)
            else:  # json's C encoder: the same floats and key order, faster
                assert compact_json(json.loads(text)) == compact_json(doc)
            svg = render.ball_svg(ball)
            head = svg.splitlines()[:7]
            assert head[-1].startswith('<circle class="boundary"')
            assert svg == "\n".join([*head, *oracle_svg_body(want), "</svg>"]) + "\n"


@pytest.mark.parametrize("name", ["torus", "sphere"])
def test_output_is_written_per_vertex(request, name):
    # develop's document and picture read the vertex table through
    # corner, so writing them never builds the nodes
    H = samples.random_valid_structure(surface(request, name), samples.rng(13))
    want = oracle_develop(H, 0, 8)
    ball = develop(H, 0, 8)
    text, svg = fileio.canonical_json(ball), render.ball_svg(ball)
    assert "nodes" not in ball.__dict__
    doc = oracle_ball_dict(0, 8, want) | {"max_drift": max(n.drift for n in want)}
    assert text == json_text(doc)
    head = svg.splitlines()[:7]
    assert svg == "\n".join([*head, *oracle_svg_body(want), "</svg>"]) + "\n"


@pytest.mark.parametrize(
    "bad, first",
    [
        ({"vertices": (3 + 2, math.inf), "scale": (5, math.nan)}, math.inf),
        ({"scale": (2, -math.inf), "vertices": (4 + 2, math.nan)}, -math.inf),
        ({"vertices": (0, math.nan)}, math.nan),
        ({"drift": (6, math.nan), "vertices": (1 + 2, math.inf)}, math.nan),
    ],
    ids=["points-first", "scale-first", "root", "max-drift-first"],
)
def test_ball_json_rejects_nonfinite_as_json_does(torus, bad, first):
    # json with allow_nan=False raises at the first out-of-range float in
    # document order; max_drift is written before the nodes, and vertex
    # i + 2 first appears in the points of node i, its fresh corner
    ball = develop(constant_structure(torus, 2.0), 0, 2)
    arrays = {name: getattr(ball, name).copy() for name in ("vertices", "scale", "drift")}
    for name, (row, value) in bad.items():
        arrays[name][row] = value
    with pytest.raises(ValueError) as want:
        json.dumps([first], sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        fileio.canonical_json(dataclasses.replace(ball, **arrays))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["torus", "sphere", 20])
def test_develop_along_reproduces_every_node(request, name):
    # the scalar crossing walked from the root to each node lands on the
    # node's batched lift and scale exactly
    T = surface(request, name)
    H = samples.random_boxed_structure(T, samples.rng(12))
    ball = develop(H, 0, 6)
    assert bits(ball.nodes[0].points) == bits(tuple(map(tuple, H.face_lift(0).tolist())))
    lifts = {}  # every walk starts at face 0 and reuses its lift
    for node in ball.nodes[1:]:
        path, i = [], node.index
        while i:
            path.append(int(ball.crossed[i]))
            i = ball.parent[i]
        _, points, scale, face = _develop_along(H, path[::-1], lifts)
        assert face == node.face
        assert bits(points) == bits(node.points)
        assert bits(scale) == bits(node.scale)


def test_ball_arrays_are_read_only(torus, gen):
    ball = develop(samples.random_boxed_structure(torus, gen), 0, 3)
    names = ("face", "parent", "entry_slot", "corner", "vertices", "scale", "drift")
    for name in names:
        with pytest.raises(ValueError):
            getattr(ball, name)[0] = 0
    assert node_fields(ball.nodes) == node_fields(ball.nodes)  # two reads, one ball
    # within one pass, a child shares the two points of its entry edge
    # with its parent
    nodes = tuple(ball.nodes)
    for node in nodes[1:]:
        parent = nodes[node.parent]
        assert len({*map(id, node.points)} & {*map(id, parent.points)}) == 2


def test_nodes_length_builds_no_node(torus, monkeypatch):
    ball = develop(samples.random_boxed_structure(torus, samples.rng(6)), 0, 8)
    develop_module = importlib.import_module("brokensurf.develop")  # not the function

    def refuse(*args):
        raise AssertionError("a node was built")

    monkeypatch.setattr(develop_module, "DevelopedNode", refuse)
    assert isinstance(ball.nodes, DevelopedNodes)
    assert len(ball.nodes) == 3 * 2**8 - 2
    assert ball.nodes and len(ball.nodes[5:]) == 3 * 2**8 - 7
    assert not ball.nodes[3:3]


def test_nodes_by_index(torus):
    ball = develop(samples.random_boxed_structure(torus, samples.rng(6)), 0, 5)
    nodes, want = ball.nodes, tuple(ball.nodes)
    n = len(want)
    for i in [0, 1, 3, 4, n // 2, n - 1]:
        for key in [i, i - n, np.int64(i), np.int32(i - n), np.uint8(i % 256)]:
            assert node_fields([nodes[key]]) == node_fields([want[int(key)]])
    for key in [n, -n - 1, np.int64(n)]:
        with pytest.raises(IndexError):
            nodes[key]
    with pytest.raises(TypeError):
        nodes[1.0]


def test_nodes_slices_are_views(torus):
    ball = develop(samples.random_boxed_structure(torus, samples.rng(7)), 0, 5)
    want = tuple(ball.nodes)
    n = len(want)
    for sl in [slice(1, None), slice(None, None, -1), slice(-10, None, 3),
               slice(2, n + 40, 7), slice(None, 4), slice(n - 1, 0, -5)]:
        view = ball.nodes[sl]
        assert isinstance(view, DevelopedNodes) and len(view) == len(want[sl])
        assert node_fields(view) == node_fields(want[sl])
        assert node_fields([view[k] for k in range(-len(view), 0)]) == node_fields(want[sl])
    for empty in [ball.nodes[5:2], ball.nodes[n:], ball.nodes[3:40][50:]]:
        assert isinstance(empty, DevelopedNodes) and list(empty) == []
        with pytest.raises(IndexError):
            empty[0]
    nested = ball.nodes[2:][3:40:2][::-1]
    assert node_fields(nested) == node_fields(want[2:][3:40:2][::-1])


def test_one_node_costs_far_less_than_all(torus):
    ball = develop(samples.random_valid_structure(torus, samples.rng(1)), 0, 12)
    start = time.perf_counter()
    assert len(list(ball.nodes)) == 3 * 2**12 - 2
    every = time.perf_counter() - start
    one = math.inf
    for i in range(0, len(ball.nodes), 997):
        start = time.perf_counter()
        ball.nodes[i]
        one = min(one, time.perf_counter() - start)
    assert 100 * one < every


def test_ball_keeps_no_node(torus):
    ball = develop(samples.random_boxed_structure(torus, samples.rng(8)), 0, 6)
    list(ball.nodes)
    fields = {f.name for f in dataclasses.fields(DevelopedBall)}
    assert set(vars(ball)) == fields
    assert {type(v) for v in vars(ball).values()} <= {int, np.ndarray}
    # a view holds its ball and a range, nothing else
    view = ball.nodes
    assert isinstance(view, DevelopedNodes)
    held = [r for r in gc.get_referents(view) if r is not DevelopedNodes]
    assert sorted(type(r).__name__ for r in held) == ["DevelopedBall", "range"]
    assert any(r is ball for r in held)


def test_dropped_ball_is_freed_without_the_cyclic_collector(torus):
    ball = develop(samples.random_boxed_structure(torus, samples.rng(8)), 0, 6)
    list(ball.nodes[1:])
    vertices = weakref.ref(ball.vertices)
    gc.disable()
    try:
        del ball
        assert vertices() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["torus", "sphere", 20])
def test_ball_is_its_vertex_table(request, name):
    # develop's tree is unfold_ball's, corner included; each node adds
    # one vertex, at its entry slot, and its lift is the table read at
    # its corners, bit for bit
    T = surface(request, name)
    H = samples.random_boxed_structure(T, samples.rng(12))
    for depth in range(7):
        ball = develop(H, 0, depth)
        n = len(ball.face)
        assert np.array_equal(ball.corner, unfold_ball(T, 0, depth).corner)
        assert ball.vertices.shape == (n + 2, 3)
        fresh = ball.corner[np.arange(1, n), ball.entry_slot[1:]]
        assert fresh.tolist() == list(range(3, n + 2))
        lifts = np.array([node.points for node in ball.nodes])
        want = ball.vertices[ball.corner]
        assert np.array_equal(lifts.view(np.int64), want.view(np.int64))


BAD_BALLS = {
    "float-base": (1.5, 2, "base face must be an int, got 1.5"),
    "bool-base": (True, 2, "base face must be an int, got True"),
    "float-depth": (0, 2.0, "depth must be an int, got 2.0"),
    "none-depth": (0, None, "depth must be an int, got None"),
    "base-past-end": (2, 2, "base face out of range: 2"),
    "negative-base": (-1, 2, "base face out of range: -1"),
    "negative-depth": (0, -1, "depth must be nonnegative"),
}


@pytest.mark.parametrize("base, depth, message", BAD_BALLS.values(), ids=BAD_BALLS)
def test_ball_rejects_what_is_no_base_or_depth(torus, base, depth, message):
    # named before anything reads the argument, not an IndexError or a
    # TypeError from deeper down
    H = constant_structure(torus, 2.0)
    for call in (lambda: develop(H, base, depth), lambda: unfold_ball(torus, base, depth)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_ball_takes_numpy_ints(torus):
    H = samples.random_valid_structure(torus, samples.rng(15))
    ball, want = develop(H, np.int64(1), np.int32(3)), develop(H, 1, 3)
    for name in ("face", "corner", "vertices", "scale", "drift"):
        assert getattr(ball, name).tobytes() == getattr(want, name).tobytes()


def huge_torus(torus):
    """Valid, with lambdas whose lift overflows: edges (L, 2L, 1.5L), L = 1e100."""
    return embed_unbroken(torus, [1e100, 2e100, 1.5e100])


def test_lift_out_of_float_range_breaks_down(torus):
    H = huge_torus(torus)
    assert H.validate().valid
    with pytest.warns(RuntimeWarning):
        lift = H.face_lift(0)
    assert not np.isfinite(lift).all()
    # no RuntimeWarning escapes these, and no NaN comes back
    for depth in (0, 2):
        with pytest.raises(NumericalBreakdown, match="lift of face 0 is not finite"):
            develop(H, 0, depth)
    with pytest.raises(NumericalBreakdown, match="lift of face 0 is not finite"):
        path_holonomy(H, dual_loops(torus, "punctures")[0])


def test_drift_overflow_breaks_down(torus):
    # the start lift is in range, but a fresh corner's z^2 overflows: an
    # infinite drift that fails the gate, not an OverflowError
    H = drift_overflow_torus(torus)
    assert H.validate().valid
    message = "light-cone drift inf crossing (1, 1)"
    for loop in ((1, 4), dual_loops(torus, "punctures")[0]):
        with pytest.raises(NumericalBreakdown, match=re.escape(message)):
            path_holonomy(H, loop)
    with pytest.raises(NumericalBreakdown, match=re.escape(message)):
        cusp_closure_residual(H, 0)
    # the level gate names the failing point by renorm_lightcone too
    with pytest.raises(NumericalBreakdown, match=re.escape(message)):
        develop(H, 0, 8)


def test_crossing_out_of_float_range_breaks_down(torus):
    # the crossing coefficients overflow; the drift gate of the walk that
    # crosses them reports it, and no RuntimeWarning escapes
    H = mixed_scale_torus(torus)
    assert H.validate().valid
    with pytest.raises(NumericalBreakdown, match=re.escape("drift nan crossing (0, 2)")):
        develop(H, 0, 4)
    with pytest.raises(NumericalBreakdown, match=re.escape("drift nan crossing (1, 1)")):
        path_holonomy(H, dual_loops(torus, "punctures")[0])


def doctored(H, rows):
    """H with crossing_table rows replaced: {flat pair: (x, y, t, step)}."""
    table = H.crossing_table.copy()
    for row, values in rows.items():
        table[row] = values
    H.__dict__["crossing_table"] = table  # before crossing_rows reads it
    return H


@pytest.mark.parametrize(
    "values, drift", [((np.nan, 1.0, 1.0, 1.0), "nan"), ((0.0, 0.0, 0.0, 1.0), "inf")]
)
def test_drift_gate_names_first_failing_crossing(torus, gen, values, drift):
    # NaN used to pass drift > DRIFT_BOUND; a zero point has infinite drift.
    # Pairs (0, 1) and (0, 2) are both crossed at depth 1; the first in
    # BFS order is named, by develop and by the scalar walk alike.
    H = doctored(samples.random_boxed_structure(torus, gen), {1: values, 2: values})
    message = f"light-cone drift {drift} crossing (0, 1)"
    with pytest.raises(NumericalBreakdown, match=re.escape(message)):
        develop(H, 0, 3)
    with pytest.raises(NumericalBreakdown, match=re.escape(message)):
        _develop_along(H, [1], {})
    assert develop(H, 0, 0).max_drift() == 0.0
