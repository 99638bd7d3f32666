"""End-to-end acceptance checks.

Twelve numbered checks, one test each, in a fixed order.  Each asserts
one headline identity at its stated tolerance on the two standard
fixtures plus seeded random structures, so `pytest -v` prints a single
pass/fail line per check.  Checks 02, 06, 07, 09 and 10 also run on
seeded random triangulations of 2, 20 and 200 faces.
"""

import json
import math
import re
import time

import numpy as np
import pytest
from conftest import random_triangulation

from brokensurf import cli, fileio, forms, minkowski, render, samples
from brokensurf.develop import (
    PathHolonomy,
    cusp_closure_residual,
    deck_candidates,
    develop,
    path_holonomy,
    tile_separation,
)
from brokensurf.foliation import BrokenMeasure, split_collars
from brokensurf.hyperbolic import constant_structure
from brokensurf.triangulation import NEXT, PREV, dual_loops

SAMPLES = 100


def pool(T):
    """100 seeded random valid structures, alternating the two generators."""
    out = []
    for seed in range(SAMPLES):
        gen = samples.rng(seed)
        if seed % 2:
            out.append(samples.random_valid_structure(T, gen))
        else:
            out.append(samples.random_boxed_structure(T, gen))
    return out


@pytest.fixture(scope="module")
def surfaces(torus, sphere):
    """The two fixtures, then random surfaces of 2, 20 and 200 faces."""
    return [torus, sphere] + [random_triangulation(F, seed=F) for F in (2, 20, 200)]


@pytest.fixture(scope="module")
def pools(surfaces):
    return {T: pool(T) for T in surfaces}


def test_criterion_01_form_preservation(torus, sphere, pools):
    start = time.monotonic()
    for T in (torus, sphere):
        assert forms.pullback_residual(T) <= 1e-12
        gen = samples.rng(99)
        n = 3 * T.faces
        for H in pools[T]:
            u = gen.standard_normal(n)
            v = gen.standard_normal(n)
            assert forms.scaling_identity_residual(H, 1.0, u, v) <= 1e-12
    assert time.monotonic() - start < 1.0


def test_criterion_02_chart_identity(surfaces, pools):
    for T in surfaces:
        for H in pools[T]:
            m = forms.to_measure(H)
            assert np.max(np.abs(m.w - H.gaps())) <= 1e-12
            back = forms.to_measure(forms.from_measure(m))
            assert np.max(np.abs(back.w - m.w)) <= 1e-12
            lam = forms.from_measure(m).lam
            assert np.all(np.abs(lam - H.lam) <= 1e-12 * H.lam)


def test_criterion_03_degeneration(torus, sphere, pools, tmp_path):
    omega_scale = 2.0  # largest coefficient of the face-block form
    for T in (torus, sphere):
        gen = samples.rng(5)
        n = 3 * T.faces
        for H in pools[T][:25]:
            u = gen.standard_normal(n)
            v = gen.standard_normal(n)
            bound = omega_scale * max(
                abs(forms.wp_form(T).evaluate(u, v)), 1.0
            )
            for x in (1e3, 1.0, 1e-1, 1e-3):
                res = forms.scaling_identity_residual(H, x, u, v)
                assert res <= 1e-12 * x * x * bound
        for H in pools[T][:25]:
            sup = max(abs(forms.ray_measure(H, 1e6).w[p] - 1.0) for p in T.pairs)
            assert sup <= 1e-4
    # the constant sqrt(2) structure scaled by e^{n/2} maps exactly onto
    # the unit measure; drive it through the command line
    path = tmp_path / "unit.json"
    fileio.save(path, constant_structure(torus))
    out = tmp_path / "ray.json"
    assert cli.main(["ray", str(path), "--steps", "1000000", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["steps"][0]["sup_distance_to_unit"] <= 1e-4


def test_criterion_04_minkowski_solvers():
    gen = samples.rng(0)
    for _ in range(1000):
        rays = samples.random_rays(gen)
        lams = samples.random_triangle_lambdas(gen)
        pts = minkowski.solve_triangle(rays, lams)
        for i in range(3):
            got = minkowski.lambda_pair(pts[(i + 1) % 3], pts[(i + 2) % 3])
            assert abs(got - lams[i]) <= 1e-10 * lams[i]
    lift = minkowski.solve_triangle(minkowski.DEFAULT_RAYS, (math.sqrt(2.0),) * 3)
    expected = ((1.0, 0.0, 1.0), (0.0, 2.0, 2.0), (-1.0, 0.0, 1.0))
    for got, want in zip(lift, expected):
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12


def test_criterion_05_hlength_calibration(torus):
    lift = constant_structure(torus).face_lift(0)
    for i in range(3):
        assert abs(minkowski.horocycle_arc(lift, i) - 1.0) <= 1e-9
    gen = samples.rng(0)
    ratios = []
    for _ in range(1000):
        sample = samples.random_lift(gen)
        i = int(gen.integers(0, 3))
        u = sample.T[..., None]  # one lift's columns
        hls = minkowski.hlength_columns(u, u[:, NEXT], u[:, PREV])
        ratios.append(minkowski.horocycle_arc(sample, i) / hls[i, 0])
    mean = sum(ratios) / len(ratios)
    assert (max(ratios) - min(ratios)) / mean <= 1e-9


def test_criterion_06_coupling_equations(surfaces):
    for T in surfaces:
        for seed in range(SAMPLES):
            H = samples.random_unbroken(T, samples.rng(seed))
            assert np.max(np.abs(H.coupling_residuals())) <= 1e-12


def test_criterion_07_holonomy_telescoping(surfaces, pools):
    # single puncture: the gap-convention product telescopes identically
    for T in surfaces:
        if T.num_punctures == 1:
            for H in pools[T]:
                assert abs(H.puncture_holonomy(0, "gap") - 1.0) <= 1e-12
    # several punctures: only the product over all of them does
    for T in surfaces:
        for H in pools[T]:
            prod = 1.0
            for p in range(T.num_punctures):
                prod *= H.puncture_holonomy(p, "gap")
            assert abs(prod - 1.0) <= 1e-12
    # concatenation multiplies the scale part
    for T in surfaces:
        loop = dual_loops(T, "punctures")[0]
        for H in pools[T][:20]:
            once = path_holonomy(H, loop).scale
            twice = path_holonomy(H, loop + loop).scale
            assert abs(twice - once * once) <= 1e-12 * once * once


def test_criterion_08_developing(torus):
    start = time.monotonic()
    H = constant_structure(torus, 2.0)
    ball = develop(H, depth=4)
    holonomies = [PathHolonomy(m, s) for _, m, s in deck_candidates(H, ball)]
    for loop in dual_loops(torus, "punctures") + dual_loops(torus, "basis"):
        holonomies.append(path_holonomy(H, loop))
    assert holonomies
    for hol in holonomies:
        assert abs(hol.scale - 1.0) <= 1e-10
        assert hol.lorentz_residual() <= 1e-9
    assert cusp_closure_residual(H, 0) <= 1e-9
    nodes = ball.nodes
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            assert tile_separation(nodes[i].points, nodes[j].points) <= 1e-9
    assert time.monotonic() - start < 1.0


def test_criterion_09_shift_compatibility(surfaces, pools):
    for T in surfaces:
        for H in pools[T]:
            m = forms.to_measure(H)
            assert np.max(np.abs(H.shifts() - m.shifts())) <= 1e-9
        for seed in range(SAMPLES):
            shifts = samples.random_unbroken(T, samples.rng(seed)).shifts().ravel()
            for crossings in T.cycle_crossings:
                assert abs(shifts[crossings].sum()) <= 1e-9


def test_criterion_10_collar_extraction(torus, surfaces):
    w = {(f, s): float(v) for f in range(2) for s, v in enumerate((3.0, 4.0, 5.0))}
    split = split_collars(BrokenMeasure(torus, w))
    assert split.collars == (1.0,)
    for f in range(2):
        assert (split.core.w[(f, 0)], split.core.w[(f, 1)], split.core.w[(f, 2)]) == (
            1.0,
            2.0,
            3.0,
        )
    for T in surfaces:
        for seed in range(50):
            m = samples.random_measure(T, samples.rng(seed))
            first = split_collars(m)
            again = split_collars(first.core)
            assert all(abs(c) <= 1e-12 for c in again.collars)
            assert all(
                abs(again.core.w[p] - first.core.w[p]) <= 1e-12 for p in T.pairs
            )


def test_criterion_11_rank_diagnostic(torus, sphere):
    for T in (torus, sphere):
        assert forms.rank_report(T).rank == 2 * T.faces
        ranks = set()
        for seed in range(5):
            H = samples.random_valid_structure(T, samples.rng(seed))
            ranks.add(forms.rank_report(T, H, constrained=True).rank)
        assert len(ranks) == 1, f"constrained rank not seed-stable: {ranks}"


ARC = re.compile(
    r'<path class="edge" d="M (\S+) (\S+) A (\S+) \S+ 0 0 [01] (\S+) (\S+)"/>'
)


def test_criterion_12_files_and_rendering(torus, tmp_path):
    H = samples.random_boxed_structure(torus, samples.rng(3))
    for name, obj in (("tri", torus), ("structure", H)):
        p1, p2 = tmp_path / f"{name}1.json", tmp_path / f"{name}2.json"
        fileio.save(p1, obj)
        fileio.save(p2, fileio.load(p1))
        assert p1.read_bytes() == p2.read_bytes()
    svg = render.ball_svg(develop(H, depth=3))
    mid, scale = 300.0, 290.0
    arcs = ARC.findall(svg)
    assert arcs
    for x1, y1, r, x2, y2 in arcs:
        e1 = ((float(x1) - mid) / scale, (mid - float(y1)) / scale)
        e2 = ((float(x2) - mid) / scale, (mid - float(y2)) / scale)
        rr = float(r) / scale
        mx, my = (e1[0] + e2[0]) / 2.0, (e1[1] + e2[1]) / 2.0
        dx, dy = e2[0] - e1[0], e2[1] - e1[1]
        ell = math.hypot(dx, dy)
        h = math.sqrt(max(rr * rr - ell * ell / 4.0, 0.0))
        best = min(
            abs(
                (mx + s * h * -dy / ell) ** 2
                + (my + s * h * dx / ell) ** 2
                - 1.0
                - rr * rr
            )
            for s in (1.0, -1.0)
        )
        assert best / (1.0 + rr * rr) <= 1e-6
