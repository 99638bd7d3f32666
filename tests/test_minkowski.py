import math
import re

import numpy as np
import pytest

from conftest import (
    oracle_hlengths,
    oracle_horocycle_arcs,
    oracle_random_lifts,
    oracle_solve_triangles,
)

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


def test_lambda_pair_names_the_relative_pairing():
    # nearly proportional at a large scale: -<u, v> is far above the
    # tolerance, but small next to z_u * z_v
    u = (1e8, 0.0, 1e8)
    v = (math.cos(1e-7), math.sin(1e-7), 1.0)
    ratio = -mk.mform(u, v) / (u[2] * v[2])
    assert -mk.mform(u, v) > 1e-12 and ratio <= mk.DEGENERATE_TOL
    want = (
        f"cone points are nearly proportional: -<u, v> / (z_u z_v) = {ratio:.6g}, "
        "at most DEGENERATE_TOL = 1e-12"
    )
    with pytest.raises(CollinearRays) as info:
        mk.lambda_pair(u, v)
    assert str(info.value) == want
    with pytest.raises(CollinearRays) as info:
        mk.lambda_pair([u, u], [(-1.0, 0.0, 1.0), v])
    assert str(info.value) == want + " at index 1"


def test_renorm_lightcone():
    u, drift = mk.renorm_lightcone(np.array([3.0, 4.0, 5.0 + 1e-13]))
    assert u[2] == pytest.approx(5.0, abs=1e-12)
    assert mk.mform(u, u) == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < drift < 1e-13


def test_renorm_lightcone_drift_is_infinite_past_float_range():
    # z^2 overflows, and z = 0 has no drift to scale: both fail any gate
    u, drift = mk.renorm_lightcone((3e200, 4e200, 5e200))
    assert u[:2] == (3e200, 4e200) and drift == math.inf
    assert mk.renorm_lightcone((0.0, 0.0, 0.0))[1] == math.inf


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


@pytest.mark.parametrize("shape", [(), (1,), (200,), (20, 10)], ids=str)
def test_column_kernels_keep_the_row_major_bits(shape):
    # the coordinate-major kernels run the same IEEE operations per entry
    rays, lams = seeded_stack(200, 21)
    n = math.prod(shape)
    rays, lams = rays[:n].reshape(*shape, 3, 3), lams[:n].reshape(*shape, 3)
    points = mk.solve_triangles(rays, lams)
    assert points.shape == (*shape, 3, 3) and points.flags.c_contiguous
    assert np.array_equal(points, oracle_solve_triangles(rays, lams))
    assert np.array_equal(mk.horocycle_arcs(points), oracle_horocycle_arcs(points))
    assert np.array_equal(mk.hlengths(points), oracle_hlengths(points))


@pytest.mark.parametrize("n", [1, 2047, 2049])
def test_random_lifts_keep_the_row_major_bits(n):
    # gen.random draws what gen.uniform with array bounds drew
    got = samples.random_lifts(samples.rng(n), n)
    assert got.flags.c_contiguous
    assert np.array_equal(got, oracle_random_lifts(samples.rng(n), n))


def test_corner_lifts_rotate_the_sampled_corner_first():
    g1, g2 = samples.rng(5), samples.rng(5)
    lifts = samples.random_corner_lifts(g1, 300)
    every = samples.random_lifts(g2, 300)
    corner = g2.integers(0, 3, size=300)
    assert g1.random() == g2.random()  # the same stream, drawn to the same place
    for k in range(3):
        want = every[np.arange(300), (corner + k) % 3]
        assert np.array_equal(lifts[:, k].T, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solver_rejects_non_finite_input(bad, recwarn):
    rays, lams = seeded_stack(4, 22)
    lams[2, 1] = bad
    with pytest.raises(ValueError, match=r"lambdas must be finite, got .* at index 2$"):
        mk.solve_triangles(rays, lams)
    got = re.escape(f"lambdas must be finite, got {(bad, 1.0, 1.0)}")
    with pytest.raises(ValueError, match=got + "$"):
        mk.solve_triangle(mk.DEFAULT_RAYS, (bad, 1.0, 1.0))
    rays, lams = seeded_stack(4, 22)
    rays[3, 0, 1] = bad
    with pytest.raises(ValueError, match=r"rays must be finite at index 3$"):
        mk.solve_triangles(rays, lams)
    # the rays' z is re-projected, never read
    rays[3, 0] = (1.0, 0.0, bad)
    assert np.isfinite(mk.solve_triangles(rays, lams)).all()
    points = mk.solve_triangles(*seeded_stack(4, 23))
    points[1, 2, 0] = bad
    for kernel in (mk.horocycle_arcs, mk.hlengths):
        with pytest.raises(ValueError, match=r"points must be finite at index 1$"):
            kernel(points)
    for kernel in (mk.lambda_pair, mk.horocycle_edge_point):
        with pytest.raises(ValueError, match=r"points must be finite at index 2$"):
            kernel(points[1], points[0])
        with pytest.raises(ValueError, match=r"points must be finite$"):
            kernel(points[1, 2], points[0, 0])
        # the first row that is not finite in either stack
        with pytest.raises(ValueError, match=r"points must be finite at index 0$"):
            kernel(points[1], points[1, ::-1])
    assert not recwarn.list


def test_solver_lets_a_squared_lambda_overflow():
    # a finite lambda past 1e154 is valid input: its lift leaves float
    # range, which develop reports as a numerical breakdown
    with np.errstate(over="ignore", invalid="ignore"):
        lift = mk.solve_triangle(mk.DEFAULT_RAYS, (1e200, 1.0, 1.0))
    assert not np.isfinite(lift).all()


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


def test_horocycle_disk_circle_tangency():
    gen = samples.rng(3)
    for _ in range(50):
        u = samples.random_rays(gen)[0] * float(gen.uniform(0.5, 3.0))
        center, r = mk.horocycle_disk_circle(u)
        # internally tangent to the unit circle at the ray's boundary point
        assert np.linalg.norm(center) + r == pytest.approx(1.0, abs=1e-12)
        boundary = u[:2] / u[2]  # the ray's point on the unit circle
        assert np.allclose(center / np.linalg.norm(center), boundary, atol=1e-9)


def test_horocycle_disk_circle_matches_hyperboloid_points(gen):
    # sample the level -1 horocycle in the hyperboloid and check its
    # projection lands on the reported circle
    for _ in range(20):
        u = samples.random_rays(gen)[0] * float(gen.uniform(0.5, 3.0))
        center, r = mk.horocycle_disk_circle(u)
        v = samples.random_rays(gen)[1]
        p = mk.horocycle_edge_point(u, v)  # one point of the horocycle
        disk = p[:2] / (1.0 + p[2])  # the hyperboloid point in the disk
        assert np.linalg.norm(disk - center) == pytest.approx(r, rel=1e-10)
