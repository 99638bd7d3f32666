import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from brokensurf import minkowski as mk
from brokensurf import samples
from brokensurf.errors import CollinearRays, DegeneratePair, DegenerateRays

SQRT2 = math.sqrt(2.0)


def test_mform_signature():
    assert mk.mform((1, 0, 0), (1, 0, 0)) == 1.0
    assert mk.mform((0, 0, 1), (0, 0, 1)) == -1.0
    assert mk.mform((1, 0, 1), (1, 0, 1)) == 0.0


def test_lambda_pair_example():
    # <(1,0,1), (-1,0,1)> = -2, lambda = sqrt(2)
    assert mk.lambda_pair((1, 0, 1), (-1, 0, 1)) == pytest.approx(SQRT2, abs=1e-15)


def test_lambda_pair_collinear():
    with pytest.raises(CollinearRays):
        mk.lambda_pair((1, 0, 1), (2, 0, 2))


def test_renorm_lightcone():
    u, drift = mk.renorm_lightcone(np.array([3.0, 4.0, 5.0 + 1e-13]))
    assert u[2] == pytest.approx(5.0, abs=1e-12)
    assert mk.mform(u, u) == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < drift < 1e-13


def test_solve_triangle_all_sqrt2():
    lift = mk.solve_triangle(mk.DEFAULT_RAYS, (SQRT2, SQRT2, SQRT2))
    target = [(1.0, 0.0, 1.0), (0.0, 2.0, 2.0), (-1.0, 0.0, 1.0)]
    for got, want in zip(lift, target):
        assert np.allclose(got, want, atol=1e-12)
    assert np.linalg.det(lift) > 0.0


def test_solve_triangle_scale_invariant_in_rays(gen):
    rays = samples.random_rays(gen)
    lams = samples.random_triangle_lambdas(gen)
    a = mk.solve_triangle(rays, lams)
    b = mk.solve_triangle([3.7 * r for r in rays], lams)
    for p, q in zip(a, b):
        assert np.allclose(p, q, atol=1e-12)


def test_solve_triangle_roundtrip_seeded():
    gen = samples.rng(42)
    for _ in range(300):
        rays = samples.random_rays(gen)
        lams = samples.random_triangle_lambdas(gen)
        lift = mk.solve_triangle(rays, lams)
        for k in range(3):
            got = mk.lambda_pair(lift[k - 2], lift[k - 1])
            assert got == pytest.approx(lams[k], rel=1e-10)


def test_solve_triangle_degenerate_rays():
    with pytest.raises(DegenerateRays):
        mk.solve_triangle([(1, 0, 1), (-1, 0, 1), (0, 0, 1)], (1, 1, 1))


def seeded_stack(n, seed):
    gen = samples.rng(seed)
    rays = np.array([samples.random_rays(gen) for _ in range(n)])
    lams = np.array([samples.random_triangle_lambdas(gen) for _ in range(n)])
    return rays, lams


def test_stacked_kernels_match_single_lifts():
    rays, lams = seeded_stack(200, 11)
    points = mk.solve_triangles(rays, lams)
    arcs = mk.horocycle_arcs(points)
    hls = mk.hlengths(points)
    assert points.shape == (200, 3, 3)
    assert arcs.shape == hls.shape == (200, 3)
    for r in range(200):
        lift = mk.solve_triangle(rays[r], lams[r])
        assert np.array_equal(points[r], lift)
        for i in range(3):
            assert arcs[r, i] == mk.horocycle_arc(lift, i)
            assert hls[r, i] == mk.hlengths(lift)[i]
    # any leading shape stacks the same way
    grid = mk.solve_triangles(rays.reshape(20, 10, 3, 3), lams.reshape(20, 10, 3))
    assert np.array_equal(grid.reshape(200, 3, 3), points)


def test_stacked_solver_names_the_failing_row():
    rays, lams = seeded_stack(6, 12)
    unscaled = mk.solve_triangles(rays, lams)
    flat = rays.copy()
    flat[4] = [(1, 0, 1), (-1, 0, 1), (0, 0, 1)]  # spans only a plane
    # nearly the same ray twice: the rays span R^3, but 0 and 1 barely pair
    close = rays.copy()
    close[2] = [
        (1.0, 0.0, 1.0), (math.cos(1e-7), math.sin(1e-7), 1.0), (-1.0, 0.0, 1.0)
    ]
    negative = lams.copy()
    negative[3, 1] = -1.0
    # rays may come at any positive scale
    for scale in (1.0, 1e-8, 1e-5, 1e5):
        got = mk.solve_triangles(scale * rays, lams)
        assert np.max(np.abs(got - unscaled)) <= 1e-12 * np.max(np.abs(unscaled))
        with pytest.raises(DegenerateRays, match="index 4"):
            mk.solve_triangles(scale * flat, lams)
        with pytest.raises(CollinearRays, match="rays 0 and 1 .*index 2"):
            mk.solve_triangles(scale * close, lams)
        with pytest.raises(ValueError, match="index 3"):
            mk.solve_triangles(scale * rays, negative)


def test_stacked_arcs_reject_proportional_points():
    rays, lams = seeded_stack(5, 13)
    points = mk.solve_triangles(rays, lams)
    points[1, 2] = 2.0 * points[1, 0]
    with pytest.raises(DegeneratePair, match=r"index \(1, 2\)"):
        mk.horocycle_arcs(points)
    with pytest.raises(CollinearRays, match=r"index \(1, 1\)"):
        mk.hlengths(points)


def test_random_lifts_keep_the_single_lift_stream():
    # random_lifts draws what random_rays then random_triangle_lambdas draw
    g1, g2 = samples.rng(17), samples.rng(17)
    for _ in range(50):
        got = samples.random_lifts(g1, 1)[0]
        want = mk.solve_triangle(
            samples.random_rays(g2), samples.random_triangle_lambdas(g2)
        )
        assert np.array_equal(got, want)
    g1, g2 = samples.rng(18), samples.rng(18)
    block = samples.random_lifts(g1, 40)
    singles = [samples.random_lift(g2) for _ in range(40)]
    assert np.array_equal(block, np.array(singles))


def test_extend_across_example():
    # the sqrt2 chord from (1,0,1) to (-1,0,1); side fixes sign(det(u,v,z)),
    # and det(u, v, (0,-2,2)) = +4
    plus = mk.extend_across((1, 0, 1), (-1, 0, 1), SQRT2, SQRT2, side=1)
    minus = mk.extend_across((1, 0, 1), (-1, 0, 1), SQRT2, SQRT2, side=-1)
    assert np.allclose(plus, (0.0, -2.0, 2.0), atol=1e-12)
    assert np.allclose(minus, (0.0, 2.0, 2.0), atol=1e-12)


def test_extend_across_satisfies_lambdas(gen):
    for _ in range(200):
        u = samples.random_rays(gen)[0] * float(gen.uniform(0.5, 2.0))
        v = samples.random_rays(gen)[1] * float(gen.uniform(0.5, 2.0))
        lu, lv = float(gen.uniform(0.5, 3.0)), float(gen.uniform(0.5, 3.0))
        z = mk.extend_across(u, v, lu, lv, side=1)
        _, drift = mk.renorm_lightcone(z)
        assert drift <= 1e-10
        assert mk.lambda_pair(z, u) == pytest.approx(lu, rel=1e-10)
        assert mk.lambda_pair(z, v) == pytest.approx(lv, rel=1e-10)
        d = np.linalg.det(np.column_stack([u, v, z]))
        assert d > 0.0


def test_extend_across_degenerate_pair():
    with pytest.raises(DegeneratePair):
        mk.extend_across((1, 0, 1), (0.5, 0, 0.5), 1.0, 1.0, side=1)


def test_horocycle_edge_point_is_crossing():
    # lies on the edge geodesic plane and on the level -1 horocycle of u
    gen = samples.rng(5)
    for _ in range(50):
        rays = samples.random_rays(gen)
        lift = mk.solve_triangle(rays, samples.random_triangle_lambdas(gen))
        u, v = lift[0], lift[1]
        p = mk.horocycle_edge_point(u, v)
        assert mk.mform(p, u) == pytest.approx(-1.0, rel=1e-12)
        assert mk.mform(p, p) == pytest.approx(-1.0, rel=1e-12)
        # coplanar with u, v
        assert np.linalg.det(np.column_stack([u, v, p])) == pytest.approx(
            0.0, abs=1e-10
        )


def test_horocycle_arc_all_sqrt2():
    lift = mk.solve_triangle(mk.DEFAULT_RAYS, (SQRT2, SQRT2, SQRT2))
    for i in range(3):
        assert mk.horocycle_arc(lift, i) == pytest.approx(1.0, abs=1e-12)


def test_horocycle_arc_decoration_scaling():
    # scaling one vertex decoration by t divides its arc by t
    base = mk.solve_triangle(mk.DEFAULT_RAYS, (SQRT2, SQRT2, SQRT2))
    for t in (0.5, 2.0, 3.7):
        lift = base * [[1.0], [t], [1.0]]
        assert mk.horocycle_arc(lift, 1) == pytest.approx(
            mk.horocycle_arc(base, 1) / t, rel=1e-12
        )


def test_arc_matches_closed_form_ratio():
    # geometric arc over the lambda ratio is the same constant for every
    # corner of every lift; pin it against an independent integration-free
    # identity: arc * lam_j * lam_k / lam_i must be constant.
    gen = samples.rng(9)
    consts = []
    for _ in range(100):
        lift = samples.random_lift(gen)
        for i in range(3):
            consts.append(mk.horocycle_arc(lift, i) / mk.hlengths(lift)[i])
    assert max(consts) - min(consts) <= 1e-11
    assert consts[0] == pytest.approx(SQRT2, rel=1e-12)


def test_tangency_point_all_sqrt2():
    # the edge from (1,0,1) to (-1,0,1) carries its foot at the apex of H
    lift = mk.solve_triangle(mk.DEFAULT_RAYS, (SQRT2, SQRT2, SQRT2))
    f = mk.tangency_point(lift[0], lift[2], lift[1])
    assert np.allclose(f, (0.0, 0.0, 1.0), atol=1e-12)
    # at the symmetric decoration the edge horocycles touch there
    assert mk.mform(f, lift[0]) == pytest.approx(-1.0, abs=1e-12)
    assert mk.mform(f, lift[2]) == pytest.approx(-1.0, abs=1e-12)


def test_tangency_point_properties(gen):
    # on the hyperboloid, on the edge plane, and at closed-form depths
    # into the three horoballs
    for _ in range(50):
        lift = samples.random_lift(gen)
        u, v, w = lift
        lam_e = mk.lambda_pair(u, v)
        lam_f = mk.lambda_pair(v, w)
        lam_g = mk.lambda_pair(w, u)
        f = mk.tangency_point(u, v, w)
        assert mk.mform(f, f) == pytest.approx(-1.0, rel=1e-12)
        assert np.linalg.det(np.column_stack([u, v, f])) == pytest.approx(
            0.0, abs=1e-9
        )
        assert mk.mform(f, u) == pytest.approx(
            -lam_g * lam_e / (SQRT2 * lam_f), rel=1e-11
        )
        assert mk.mform(f, v) == pytest.approx(
            -lam_f * lam_e / (SQRT2 * lam_g), rel=1e-11
        )
        assert mk.mform(f, w) == pytest.approx(
            -SQRT2 * lam_f * lam_g / lam_e, rel=1e-11
        )


def test_tangency_point_minimizes_distance_to_opposite_horoball(gen):
    # independent oracle: parametrize the edge geodesic between u and v
    # and minimize the Busemann level of the opposite vertex's horocycle
    # along it; the minimizer is the tangency point.
    for _ in range(20):
        lift = samples.random_lift(gen)
        u, v, w = lift

        def level(t):
            p = math.exp(-t) * u + math.exp(t) * v / (-mk.mform(u, v))
            p = p / math.sqrt(-mk.mform(p, p))
            return -mk.mform(p, w)

        res = minimize_scalar(level, bounds=(-20, 20), method="bounded",
                              options={"xatol": 1e-12})
        f = mk.tangency_point(u, v, w)
        p_star = math.exp(-res.x) * u + math.exp(res.x) * v / (-mk.mform(u, v))
        p_star = p_star / math.sqrt(-mk.mform(p_star, p_star))
        assert np.allclose(f, p_star, atol=1e-6)
        assert level(res.x) >= -mk.mform(f, w) - 1e-9


def test_project_poincare():
    assert np.allclose(mk.project_poincare((0.0, 0.0, 1.0)), (0.0, 0.0))
    assert np.allclose(mk.project_poincare((3.0, 4.0, 5.0)), (0.6, 0.8))
    # hyperboloid point (0, 3/4, 5/4): disk point (0, 1/3)
    assert np.allclose(
        mk.project_poincare((0.0, 0.75, 1.25)), (0.0, 1.0 / 3.0), atol=1e-12
    )
    with pytest.raises(ValueError):
        mk.project_poincare((1.0, 0.0, 3.0))


def test_horocycle_disk_circle_tangency():
    gen = samples.rng(3)
    for _ in range(50):
        u = samples.random_rays(gen)[0] * float(gen.uniform(0.5, 3.0))
        center, r = mk.horocycle_disk_circle(u)
        # internally tangent to the unit circle at the ray's boundary point
        assert np.linalg.norm(center) + r == pytest.approx(1.0, abs=1e-12)
        boundary = mk.project_poincare(u)
        assert np.allclose(center / np.linalg.norm(center), boundary, atol=1e-9)


def test_horocycle_disk_circle_matches_hyperboloid_points(gen):
    # sample the level -1 horocycle in the hyperboloid and check its
    # projection lands on the reported circle
    for _ in range(20):
        u = samples.random_rays(gen)[0] * float(gen.uniform(0.5, 3.0))
        center, r = mk.horocycle_disk_circle(u)
        v = samples.random_rays(gen)[1]
        p = mk.horocycle_edge_point(u, v)  # one point of the horocycle
        disk = mk.project_poincare(p)
        assert np.linalg.norm(disk - center) == pytest.approx(r, rel=1e-10)
