import math

import numpy as np
import pytest

from conftest import random_triangulation

from brokensurf import minkowski, samples
from brokensurf.develop import (
    DRIFT_BOUND,
    _cross_edge,
    cusp_closure_residual,
    deck_candidates,
    develop,
    develop_along,
    path_holonomy,
    tile_separation,
)
from brokensurf.errors import GeometryError, OpenPath
from brokensurf.hyperbolic import constant_structure
from brokensurf.triangulation import dual_loops


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
                (g, k2), far, _, _ = _cross_edge(H, 0, s, near)
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
    lift, points, scale, face = develop_along(H, loop)
    assert face == loop[0][0]
    for got, want in zip(lift, H.face_lift(face)):
        assert np.array_equal(got, want)
    assert len(points) == 3
    assert scale > 0.0


def test_develop_along_rejects_bad_input(torus, gen):
    H = samples.random_boxed_structure(torus, gen)
    with pytest.raises(OpenPath):
        develop_along(H, [])
    # crossing (0, 0) lands on face 1, so a second crossing on face 0
    # does not chain
    with pytest.raises(OpenPath):
        develop_along(H, [(0, 0), (0, 1)])


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
        lhs = minkowski.mform(hol.apply(u), hol.apply(v))
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
    squared = once.compose(once)
    assert twice.scale == pytest.approx(squared.scale, rel=1e-12)
    assert np.allclose(twice.matrix, squared.matrix, rtol=1e-9, atol=1e-9)


def test_deck_candidates_unbroken(torus):
    H = constant_structure(torus, 2.0)
    ball = develop(H, depth=4)
    cands = deck_candidates(H, ball)
    assert cands
    root_inv = np.linalg.inv(np.column_stack(ball.nodes[0].points))
    for index, hol in cands:
        assert ball.nodes[index].face == 0
        assert hol.scale == 1.0
        assert hol.lorentz_residual() <= 1e-9
        # end frame times inverse start frame, one node at a time
        want = np.column_stack(ball.nodes[index].points) @ root_inv
        assert np.allclose(hol.matrix, want, rtol=1e-12, atol=0.0)


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


def test_cusp_closure_base_rotation(torus, gen):
    H = samples.random_boxed_structure(torus, gen)
    r0 = cusp_closure_residual(H, 0, base=0)
    r1 = cusp_closure_residual(H, 0, base=1)
    assert abs(r0 - r1) <= 1e-12
    with pytest.raises(ValueError):
        cusp_closure_residual(H, 0, base=5)


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
