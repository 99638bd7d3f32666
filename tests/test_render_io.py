import math
import re

import numpy as np
import pytest

from conftest import random_triangulation

from brokensurf import fileio, render, samples
from brokensurf.develop import develop
from brokensurf.hyperbolic import constant_structure

SIZE = 600.0
MARGIN = 10.0
MID = SIZE / 2.0
SCALE = MID - MARGIN

ARC = re.compile(
    r'<path class="edge" d="M (\S+) (\S+) A (\S+) \S+ 0 0 ([01]) (\S+) (\S+)"/>'
)
LINE = re.compile(
    r'<line class="edge" x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)"/>'
)
HORO = re.compile(r'<circle class="horocycle" cx="(\S+)" cy="(\S+)" r="(\S+)"/>')


def to_disk(px, py):
    return (px - MID) / SCALE, (MID - py) / SCALE


def orthogonality_residual(e1, e2, r):
    # both centers consistent with the chord and radius; the drawn one
    # must satisfy |c|^2 = 1 + r^2 (normalized so big radii still count)
    mx, my = (e1[0] + e2[0]) / 2.0, (e1[1] + e2[1]) / 2.0
    dx, dy = e2[0] - e1[0], e2[1] - e1[1]
    ell = math.hypot(dx, dy)
    h = math.sqrt(max(r * r - ell * ell / 4.0, 0.0))
    nx, ny = -dy / ell, dx / ell
    best = math.inf
    for sgn in (1.0, -1.0):
        cx, cy = mx + sgn * h * nx, my + sgn * h * ny
        best = min(best, abs(cx * cx + cy * cy - 1.0 - r * r))
    return best / (1.0 + r * r)


# -- files --------------------------------------------------------------


def test_triangulation_roundtrip_is_byte_stable(tmp_path, torus):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    fileio.save(p1, torus)
    loaded = fileio.load(p1)
    assert loaded.to_dict() == torus.to_dict()
    fileio.save(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_structure_roundtrip_is_byte_stable(tmp_path, sphere, gen):
    H = samples.random_boxed_structure(sphere, gen)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    fileio.save(p1, H)
    loaded = fileio.load(p1)
    assert np.array_equal(loaded.lam, H.lam)
    fileio.save(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_measure_roundtrip_is_byte_stable(tmp_path, torus, gen):
    m = samples.random_measure(torus, gen)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    fileio.save(p1, m)
    loaded = fileio.load(p1)
    assert np.array_equal(loaded.w, m.w)
    fileio.save(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_structure_references_triangulation_file(tmp_path, torus, gen):
    H = samples.random_boxed_structure(torus, gen)
    fileio.save(tmp_path / "tri.json", torus)
    doc = {
        "triangulation": "tri.json",
        "lambda": torus.pair_dict(H.lam),
    }
    path = tmp_path / "structure.json"
    path.write_text(fileio.canonical_json(doc), encoding="utf-8")
    loaded = fileio.load(path)
    assert np.array_equal(loaded.lam, H.lam)


def test_pair_keys(torus):
    table = np.arange(6.0).reshape(2, 3)
    keyed = torus.pair_dict(table)
    assert list(keyed) == ["0.0", "0.1", "0.2", "1.0", "1.1", "1.2"]
    # a full table comes back by flat index, in any key order
    for d in (keyed, dict(reversed(keyed.items()))):
        got = torus.pairs_from_dict(d, "lambda")
        assert got.dtype == float and np.array_equal(got, table)
    # one that leaves pairs out comes back keyed by pairs, for pair_table
    del keyed["0.1"]
    assert torus.pairs_from_dict(keyed, "lambda") == {
        (0, 0): 0.0, (0, 2): 2.0, (1, 0): 3.0, (1, 1): 4.0, (1, 2): 5.0
    }
    with pytest.raises(ValueError, match="'nonsense'"):
        torus.pairs_from_dict({"nonsense": 1.0}, "lambda")


def test_unrecognized_payloads():
    with pytest.raises(ValueError):
        fileio.from_jsonable({"whatever": 1})
    with pytest.raises(TypeError):
        fileio.to_jsonable(3.14)


def test_dumps_deterministic(torus):
    text = fileio.canonical_json(fileio.to_jsonable(torus))
    assert fileio.canonical_json(fileio.to_jsonable(torus)) == text
    assert text.endswith("\n")


# -- pictures -----------------------------------------------------------


def test_fmt_folds_negative_zero():
    assert render.fmt(-0.0) == "0"
    assert render.fmt(1.25) == "1.25"


def test_arcs_are_orthogonal_circles(torus):
    H = constant_structure(torus, 2.0)
    svg = render.ball_svg(develop(H, depth=2))
    arcs = ARC.findall(svg)
    assert arcs
    for x1, y1, r, _, x2, y2 in arcs:
        e1 = to_disk(float(x1), float(y1))
        e2 = to_disk(float(x2), float(y2))
        assert math.hypot(*e1) == pytest.approx(1.0, abs=1e-6)
        assert math.hypot(*e2) == pytest.approx(1.0, abs=1e-6)
        assert orthogonality_residual(e1, e2, float(r) / SCALE) <= 1e-6


def test_lines_are_diameters(torus):
    # the root lift puts two corners at antipodal rays, so the root tile
    # alone already draws one straight edge
    H = constant_structure(torus, 2.0)
    svg = render.ball_svg(develop(H, depth=0))
    lines = LINE.findall(svg)
    assert lines
    for x1, y1, x2, y2 in lines:
        e1 = to_disk(float(x1), float(y1))
        e2 = to_disk(float(x2), float(y2))
        assert math.hypot(*e1) == pytest.approx(1.0, abs=1e-6)
        assert e1[0] == pytest.approx(-e2[0], abs=1e-6)
        assert e1[1] == pytest.approx(-e2[1], abs=1e-6)


def test_horocycles_tangent_to_boundary(torus):
    H = constant_structure(torus, 2.0)
    svg = render.ball_svg(develop(H, depth=1))
    horos = HORO.findall(svg)
    assert horos
    for cx, cy, r in horos:
        c = to_disk(float(cx), float(cy))
        assert math.hypot(*c) + float(r) / SCALE == pytest.approx(1.0, abs=1e-6)


def test_shared_elements_deduplicated(torus):
    # the root draws 3 sides and 3 horocycles; every other tile shares
    # its entry side and two corners with its parent, so adds 2 and 1
    f20 = random_triangulation(20, seed=20)
    for H, depth in (
        (constant_structure(torus, 2.0), 2),
        (samples.random_valid_structure(f20, samples.rng(0)), 6),
    ):
        ball = develop(H, depth=depth)
        n = len(ball.nodes)
        svg = render.ball_svg(ball)
        assert len(ARC.findall(svg)) + len(LINE.findall(svg)) == 3 + 2 * (n - 1)
        assert len(HORO.findall(svg)) == n + 2
        body = svg.splitlines()
        assert len(body) == len(set(body))


def test_svg_skeleton(torus):
    H = constant_structure(torus, 2.0)
    svg = render.ball_svg(develop(H, depth=1))
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert '<circle class="boundary" cx="300" cy="300" r="290"/>' in svg
