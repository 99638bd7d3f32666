import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import deque
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from brokensurf import cli, forms, render, samples, sphere_fixture, torus_fixture
from brokensurf.develop import DRIFT_BOUND, DevelopedNode, _breakdown, _start_lift
from brokensurf.errors import (
    Disconnected,
    NonOrientable,
    SlotReused,
    SlotUnglued,
)
from brokensurf.foliation import BrokenMeasure
from brokensurf.hyperbolic import SQRT2, DecoratedBrokenHyperbolic
from brokensurf.minkowski import horocycle_disk_circle, renorm_lightcone
from brokensurf.triangulation import NEXT, ONWARD, PREV, build_triangulation, check_loop


def json_text(doc) -> str:
    """doc as json itself writes it canonically: fileio.canonical_json's reference."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def random_gluing(faces: int, seed: int) -> list:
    """The 3F slots shuffled into pairs, reshuffled until connected.

    Entries come in draw order, as build_triangulation takes them; faces
    must be even.
    """
    gen = samples.rng(seed)
    slots = [(f, s) for f in range(faces) for s in (0, 1, 2)]
    while True:
        order = gen.permutation(len(slots))
        pairs = [
            (slots[order[i]], slots[order[i + 1]]) for i in range(0, len(slots), 2)
        ]
        try:
            build_triangulation(faces, pairs)
        except Disconnected:
            continue
        return pairs


def random_triangulation(faces: int, seed: int):
    """Connected triangulation from the 3F slots shuffled into pairs."""
    return build_triangulation(faces, random_gluing(faces, seed))


@dataclass(frozen=True)
class CornerCycle:
    """Sectors met in ccw order around one puncture.

    crossings[i] is the near-side pair crossed after sectors[i], on the
    way to sectors[(i+1) % len].  Together the crossings form the
    puncture's boundary loop.
    """

    index: int
    sectors: tuple
    crossings: tuple

    def __len__(self) -> int:
        return len(self.sectors)


def oracle_triangulation(faces: int, gluing_pairs) -> SimpleNamespace:
    """IdealTriangulation's attributes, built one slot at a time.

    The constructor as it was before it read the matching as one flat
    partner array: every entry checked in order, a dict keyed by
    (face, slot) tuples, and a corner-cycle walk through that dict.
    Beside the attributes, corner_cycles holds one CornerCycle per
    puncture, its sectors and crossings as (face, slot) tuples.
    """

    def is_int(x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)

    def check_pair(p):
        if not isinstance(p, (tuple, list)) or len(p) != 2 or not all(map(is_int, p)):
            raise ValueError(f"malformed (face, slot) pair: {p!r}")
        f, s = p
        if not 0 <= f < faces:
            raise ValueError(f"face index out of range: {p!r}")
        if s not in (0, 1, 2):
            raise ValueError(f"slot index out of range: {p!r}")
        return (f, s)

    if not is_int(faces) or faces < 1:
        raise ValueError(f"face count must be a positive integer, got {faces!r}")
    gluing = {}
    for raw in gluing_pairs:
        if not isinstance(raw, (tuple, list)) or len(raw) != 2:
            raise ValueError(f"malformed gluing entry: {raw!r}")
        a, b = check_pair(raw[0]), check_pair(raw[1])
        if a == b:
            raise NonOrientable(f"slot {a} glued to itself")
        for p, q in ((a, b), (b, a)):
            if p in gluing:
                raise SlotReused(f"slot {p} appears in more than one gluing")
            gluing[p] = q
    for f in range(faces):
        for s in (0, 1, 2):
            if (f, s) not in gluing:
                raise SlotUnglued(f"slot {(f, s)} is not glued")

    seen, queue = {0}, deque([0])
    while queue:
        f = queue.popleft()
        for s in (0, 1, 2):
            g = gluing[(f, s)][0]
            if g not in seen:
                seen.add(g)
                queue.append(g)
    if len(seen) != faces:
        missing = sorted(set(range(faces)) - seen)
        raise Disconnected(f"faces unreachable from face 0: {missing}")

    pairs = tuple((f, s) for f in range(faces) for s in (0, 1, 2))
    edges = tuple((p, gluing[p]) for p in pairs if p < gluing[p])
    partner = np.array([3 * g + k for g, k in map(gluing.__getitem__, pairs)])
    near = np.flatnonzero(np.arange(partner.size) < partner)
    edge_index = np.empty_like(partner)
    edge_index[near] = edge_index[partner[near]] = np.arange(near.size)

    cycles, of, crossed = [], [-1] * (3 * faces), []
    for start in pairs:
        if of[3 * start[0] + start[1]] >= 0:
            continue
        secs, crossings = [], []
        f, c = start
        while True:
            of[3 * f + c] = len(cycles)
            secs.append((f, c))
            near_pair = (f, (c + 1) % 3)
            crossings.append(near_pair)
            crossed.append(3 * f + near_pair[1])
            f, k = gluing[near_pair]
            c = (k + 1) % 3
            if (f, c) == start:
                break
        cycles.append(CornerCycle(len(cycles), tuple(secs), tuple(crossings)))
    ends = np.cumsum([len(cyc) for cyc in cycles[:-1]], dtype=int)
    return SimpleNamespace(
        faces=faces,
        partner=partner.reshape(faces, 3),
        onward=3 * (partner // 3)[:, None] + ONWARD[partner % 3],
        edge_index=edge_index.reshape(faces, 3),
        puncture_of=np.array(of).reshape(faces, 3),
        cycle_crossings=tuple(np.split(np.array(crossed), ends)),
        pairs=pairs,
        edges=edges,
        corner_cycles=tuple(cycles),
        num_punctures=len(cycles),
        num_edges=len(edges),
        genus=(2 - len(cycles) + faces // 2) // 2,
    )


@cache
def glued(T) -> dict:
    """The pair glued to each pair, (face, slot) to (face, slot), from T.partner."""
    at = [divmod(c, 3) for c in range(3 * T.faces)]
    return {at[c]: at[q] for c, q in enumerate(T.partner.ravel().tolist())}


def oracle_cycle_basis(T) -> list:
    """dual_loops(T, "basis") as (face, slot) tuples, one dict lookup at a time.

    A BFS tree on faces rooted at face 0, crossing each face's slots in
    order; then for each edge (p, q) of T.edges off the tree, the tree
    path to p's face, p, and the tree path to q's face reversed.
    """
    gluing = glued(T)
    tree_path = {0: ()}
    tree_edges = set()
    queue = deque([0])
    while queue:
        f = queue.popleft()
        for s in (0, 1, 2):
            g = gluing[(f, s)][0]
            if g not in tree_path:
                tree_path[g] = tree_path[f] + ((f, s),)
                tree_edges.add(T.edge_index[(f, s)])
                queue.append(g)
    loops = []
    for i, (p, q) in enumerate(T.edges):
        if i in tree_edges:
            continue
        back = tuple(gluing[c] for c in reversed(tree_path[q[0]]))
        loops.append(tree_path[p[0]] + (p,) + back)
    return loops


def oracle_table(T, oracle) -> np.ndarray:
    """An (F, 3) table of oracle(pair), one pair at a time in pair order."""
    return np.array([oracle(p) for p in T.pairs], dtype=float).reshape(T.faces, 3)


def table_structures(T):
    """Valid, boxed and unbroken structures, then the valid one with zero gaps."""
    gen = samples.rng(T.faces)
    valid = samples.random_valid_structure(T, gen)
    lam = valid.lam.copy()
    lam.ravel()[::5] = SQRT2
    return [
        valid,
        samples.random_boxed_structure(T, gen),
        samples.random_unbroken(T, gen),
        DecoratedBrokenHyperbolic(T, lam),
    ]


def dense(form) -> np.ndarray:
    """A two-form's dense 3F x 3F matrix: its block once per face."""
    return np.kron(np.eye(form.faces), form.block)


def oracle_constrained_rank(T, H) -> forms.RankReport:
    """The constrained rank report from the dense restriction to the tangent space.

    The kernel of the Jacobian's r independent rows is the last 3F - r
    columns of the orthogonal factor of a Householder QR of the rows'
    transpose, formed by applying its r reflectors to those columns of
    the identity (in numpy's raw mode row k of h holds reflector k below
    its implicit leading 1); the form restricted to that basis is a
    dense (3F - r)^2 matrix, decomposed by a full SVD.
    """
    form = forms.wp_form(T)
    _, sv_j, vt = np.linalg.svd(forms._holonomy_jacobian(H), full_matrices=False)
    r = forms._rank(sv_j, sv_j.max(initial=0.0))
    n = 3 * T.faces
    h, tau = np.linalg.qr(vt[:r].T, mode="raw")
    basis = np.eye(n, n - r, -r)
    for k in reversed(range(r)):
        v = np.concatenate(([1.0], h[k, k + 1:]))
        basis[k:] -= tau[k] * np.outer(v, v @ basis[k:])
    sv = np.linalg.svd(basis.T @ dense(form) @ basis, compute_uv=False)
    return forms.RankReport(
        form.chart,
        n,
        forms._rank(sv, forms._norm(form)),
        tuple(sv),
        constrained=True,
        num_constraints=r,
        tangent_dim=n - r,
    )


def unbroken_restriction(T) -> np.ndarray:
    """The wp form's dense E x E restriction to the edge-equal subspace.

    Both sides of an edge share one coordinate, so each face's block
    lands on the matrix at its three edge indices.
    """
    edge = T.edge_index
    restricted = np.zeros((T.num_edges, T.num_edges))
    np.add.at(restricted, (edge[:, :, None], edge[:, None, :]), forms.WP_BLOCK)
    return restricted


def oracle_unbroken_spectrum(T) -> forms.RankReport:
    """The unbroken rank report from a full SVD of the dense restriction."""
    form = forms.wp_form(T)
    sv = np.linalg.svd(unbroken_restriction(T), compute_uv=False)
    return forms.RankReport(
        form.chart,
        T.num_edges,
        forms._rank(sv, forms._norm(form)),
        tuple(sv),
        subspace="unbroken",
    )


def run_subprocess(argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, with Python's default warning filters."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    script = "import sys; from brokensurf.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, check=False,
    )


@cache
def bench_module(name: str):
    """perfbench/<name>.py as a module: "surfaces" (the seeded generator), "tracing"."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _row_pairing(u, v):
    """Minkowski pairing of row-major stacks, along their last axis."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


def oracle_solve_triangles(rays, lambdas) -> np.ndarray:
    """minkowski.solve_columns row-major: every operation on (..., 3, 3).

    The solver as it was before it worked in coordinate columns, for
    valid input only; its bits are the ones the column kernel keeps.
    """
    rays = np.asarray(rays, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    cone = rays.copy()
    cone[..., 2] = np.hypot(rays[..., 0], rays[..., 1])
    head, tail = cone.take(NEXT, axis=-2), cone.take(PREV, axis=-2)
    m = np.float_power(lambdas, 2) / -_row_pairing(head, tail)
    t = np.sqrt(m.take(NEXT, axis=-1) * m.take(PREV, axis=-1) / m)
    return t[..., None] * cone


def oracle_edge_point(u, v) -> np.ndarray:
    """Where h(u) crosses the geodesic from u to v, row-major: u/2 + v/lambda^2."""
    return 0.5 * u + v / -_row_pairing(u, v)[..., None]


def oracle_horocycle_arcs(points) -> np.ndarray:
    """minkowski.arc_columns row-major, at every corner of a (..., 3, 3) stack."""
    points = np.asarray(points, dtype=float)
    p = oracle_edge_point(points, points.take(NEXT, axis=-2))
    q = oracle_edge_point(points, points.take(PREV, axis=-2))
    return np.sqrt(np.maximum(-2.0 * _row_pairing(p, q) - 2.0, 0.0))


def oracle_hlengths(points) -> np.ndarray:
    """minkowski.hlength_columns row-major, at every corner of a (..., 3, 3) stack."""
    points = np.asarray(points, dtype=float)
    lam = np.sqrt(-_row_pairing(points.take(NEXT, axis=-2), points.take(PREV, axis=-2)))
    return lam / (lam.take(NEXT, axis=-1) * lam.take(PREV, axis=-1))


def oracle_random_lifts(gen, n: int) -> np.ndarray:
    """n lifts as n calls of samples.random_lift draw them, as an (n, 3, 3)
    stack computed row-major and drawn by gen.uniform with array bounds."""
    u = gen.uniform(samples._LIFT_LOW, samples._LIFT_HIGH, size=(n, 10))
    base, jitter, scales, lambdas = u[:, :1], u[:, 1:4], u[:, 4:7], u[:, 7:]
    angles = base + np.array([0.0, 1.0, 2.0]) * (2.0 * math.pi / 3.0) + jitter
    rays = np.stack([np.cos(angles), np.sin(angles), np.ones_like(angles)], axis=-1)
    return oracle_solve_triangles(scales[..., None] * rays, lambdas)


def oracle_calibrate(count: int, seed: int) -> str:
    """calibrate's document as it was computed: every corner of row-major
    lifts measured, then the sampled corner's ratio kept."""
    gen = samples.rng(seed)
    total, lo, hi = 0.0, math.inf, -math.inf
    for start in range(0, count, cli.CALIBRATE_BLOCK):
        m = min(cli.CALIBRATE_BLOCK, count - start)
        points = oracle_random_lifts(gen, m)
        corner = gen.integers(0, 3, size=m)
        every = oracle_horocycle_arcs(points) / oracle_hlengths(points)
        ratios = every[np.arange(m), corner]
        total += float(ratios.sum())
        lo, hi = min(lo, float(ratios.min())), max(hi, float(ratios.max()))
    mean = total / count
    doc = {"samples": count, "constant": mean, "spread": hi - lo,
           "expected": SQRT2, "error": abs(mean - SQRT2)}
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def oracle_cross_edge(H, crossed: int, points):
    """Develop across pair crossed = 3f+s; returns (far, far points, step, drift).

    One crossing as a call of its own, the drift by renorm_lightcone:
    the walk develop._develop_along does inline.  far = 3g+k2 is the
    pair glued to (f, s).  The far triple is placed so the far face's
    own slot labels index it: gluing reverses the edge, so the near
    corner s+1 lands at the far corner k2+2 and vice versa.  The fresh
    corner is the combination x*tail + y*head + t*apex of the near
    lift's corners, with the pair's coefficients and lambda ratio step
    read from H.crossing_rows.
    """
    far, x, y, t, step = H.crossing_rows[crossed]
    slot, k2 = crossed % 3, far % 3
    apex = points[slot]
    head = points[(slot + 1) % 3]  # far corner k2 + 2
    tail = points[(slot + 2) % 3]  # far corner k2 + 1

    (ux, uy, uz), (vx, vy, vz), (wx, wy, wz) = tail, head, apex
    z, drift = renorm_lightcone(
        (
            x * ux + y * vx + t * wx,
            x * uy + y * vy + t * wy,
            x * uz + y * vz + t * wz,
        )
    )
    if not drift <= DRIFT_BOUND:  # NaN fails too
        raise _breakdown(drift, crossed)

    far_points = [None, None, None]
    far_points[k2] = z
    far_points[(k2 + 1) % 3] = tail
    far_points[(k2 + 2) % 3] = head
    return far, tuple(far_points), step, drift


def oracle_develop_along(H, crossings) -> tuple:
    """(start lift, final points, final scale, final face), one oracle_cross_edge a crossing."""
    face = crossings[0] // 3
    lift = _start_lift(H, face)
    points = tuple(map(tuple, lift.tolist()))
    scale = 1.0
    for c in crossings:
        far, points, step, _ = oracle_cross_edge(H, c, points)
        scale *= step
    return lift, points, scale, far // 3


def oracle_path_holonomy(H, loop) -> tuple:
    """(matrix, scale, lorentz residual, backward residual) of one closed path.

    One loop at a time, the residuals in Python floats off one (3, 3)
    matrix: the holonomy as the CLI computed it loop by loop.
    """
    start, points, scale, _ = oracle_develop_along(H, check_loop(H.T, loop))
    m_0, m_1 = np.array((start, points)).swapaxes(1, 2)  # points as columns
    m = m_1 @ np.linalg.inv(m_0)
    return m, scale, *oracle_residuals(m, scale)


def oracle_residuals(m, scale: float) -> tuple[float, float]:
    """(lorentz, backward) residual of one (3, 3) matrix, squares by Python pow."""
    J = np.diag([1.0, 1.0, -1.0])
    defect = float(np.max(np.abs(m.T @ J @ m - scale**2 * J)))
    return defect / scale**2, defect / float(np.max(np.abs(m))) ** 2


def oracle_develop(H, base: int, depth: int) -> tuple:
    """A developed ball one node at a time: the DevelopedNode tuple.

    The walk develop used to take: a BFS queue of face instances, each
    crossing its slots other than its entry slot in slot order, one
    oracle_cross_edge per node.
    """
    root = tuple(map(tuple, H.face_lift(base).tolist()))
    nodes = [DevelopedNode(0, base, 0, None, None, root, 1.0, 0.0)]
    queue = deque(nodes)
    while queue:
        node = queue.popleft()
        if node.depth == depth:
            continue
        for s in (0, 1, 2):
            if s == node.entry_slot:
                continue
            far, points, step, drift = oracle_cross_edge(H, 3 * node.face + s, node.points)
            g, k = divmod(far, 3)
            child = DevelopedNode(
                len(nodes), g, node.depth + 1, node.index, k, points,
                node.scale * step, drift,
            )
            nodes.append(child)
            queue.append(child)
    return tuple(nodes)


def oracle_ball_dict(base: int, depth: int, nodes) -> dict:
    """develop's document but max_drift, read off oracle_develop's nodes."""
    return {
        "base": base,
        "depth": depth,
        "nodes": [
            {
                "index": n.index,
                "face": n.face,
                "depth": n.depth,
                "parent": n.parent,
                "entry_slot": n.entry_slot,
                "points": [list(p) for p in n.points],
                "scale": n.scale,
            }
            for n in nodes
        ],
    }


def oracle_deck(base: int, nodes) -> list:
    """deck_candidates, read off oracle_develop's nodes."""
    repeats = [n for n in nodes[1:] if n.face == base]
    frames = np.array([n.points for n in (nodes[0], *repeats)]).swapaxes(1, 2)
    mats = frames[1:] @ np.linalg.inv(frames[0])
    return [(n.index, m, n.scale) for n, m in zip(repeats, mats)]


def _ray_point(u) -> tuple[float, float]:
    x, y = u[0] / u[2], u[1] / u[2]
    n = math.hypot(x, y)
    return x / n, y / n


def _pix(p) -> tuple[float, float]:
    """Disk coordinates to pixels, y flipped."""
    return render.MID + render.SCALE * p[0], render.MID - render.SCALE * p[1]


def _edge_element(e1, e2) -> str:
    fmt = render.fmt
    x1, y1 = _pix(e1)
    x2, y2 = _pix(e2)
    dot = e1[0] * e2[0] + e1[1] * e2[1]
    if 1.0 + dot <= render.ANTIPODAL_TOL:
        return (
            f'<line class="edge" x1="{fmt(x1)}" y1="{fmt(y1)}" '
            f'x2="{fmt(x2)}" y2="{fmt(y2)}"/>'
        )
    cx = (e1[0] + e2[0]) / (1.0 + dot)
    cy = (e1[1] + e2[1]) / (1.0 + dot)
    r = math.sqrt(max(cx * cx + cy * cy - 1.0, 0.0)) * render.SCALE
    pcx, pcy = _pix((cx, cy))
    cross = (x2 - x1) * (pcy - y1) - (y2 - y1) * (pcx - x1)
    sweep = 1 if cross > 0.0 else 0
    return (
        f'<path class="edge" d="M {fmt(x1)} {fmt(y1)} '
        f'A {fmt(r)} {fmt(r)} 0 0 {sweep} {fmt(x2)} {fmt(y2)}"/>'
    )


def _horocycle_element(u) -> str:
    fmt = render.fmt
    center, hr = horocycle_disk_circle(u)
    px, py = _pix((float(center[0]), float(center[1])))
    return (
        f'<circle class="horocycle" cx="{fmt(px)}" cy="{fmt(py)}" '
        f'r="{fmt(hr * render.SCALE)}"/>'
    )


def oracle_svg_body(nodes) -> list:
    """ball_svg's element lines, drawn side by side from oracle_develop's nodes.

    One f-string per side and per horocycle, in scalar Python arithmetic.
    """
    body = []
    for n in nodes:
        rays = [_ray_point(u) for u in n.points]
        body.extend(
            _edge_element(rays[(i + 1) % 3], rays[(i + 2) % 3])
            for i in range(3)
            if i != n.entry_slot
        )
    root, *rest = nodes
    body.extend(_horocycle_element(u) for u in root.points)
    body.extend(_horocycle_element(n.points[n.entry_slot]) for n in rest)
    return body


def drift_overflow_torus(torus):
    """Valid, with a lift in range whose next developed corner's z^2 overflows.

    The lambdas of from_measure(random_measure(torus, rng(0)).scale(170))
    under the chart lambda = sqrt(2 e^w).
    """
    return DecoratedBrokenHyperbolic(torus, [
        [419023899568.78577, 1.5014618832362698e25, 4.1991394596172556e33],
        [7.358875474558624e63, 2.851238658882777e34, 6.060789986579788e30],
    ])


def mixed_scale_measure(torus):
    """Valid: nonnegative small weights on two faces 1e11 apart in scale.

    Its switch defects exceed 1e-9 of its smallest weights, though they
    are rounding of each face's scale.
    """
    return BrokenMeasure(torus, [
        [1.409821551561571e-09, 0.07802036547070208, 0.07802036566214768],
        [1213.267413848966, 274118819613.62228, 274118820826.88968],
    ])


def mixed_scale_torus(torus):
    """Valid, with lambdas e^50 and e^400 whose crossing coefficients overflow.

    Developing from face 0 first fails at crossing (0, 2), and the
    puncture loop at crossing (1, 1), each with a NaN drift.
    """
    return DecoratedBrokenHyperbolic(torus, np.exp([[50, 50, 50], [50, 400, 400]]))


HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # hypothesis caches the constants it reads from source files while
    # tests are collected; keep that cache out of the working tree
    home = config.stash[HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(
        prefix="hypothesis-"
    )
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[HYPOTHESIS_HOME].cleanup()


@pytest.fixture(scope="session")
def torus():
    return torus_fixture()


@pytest.fixture(scope="session")
def sphere():
    return sphere_fixture()


@pytest.fixture()
def gen():
    return samples.rng(0)


@pytest.fixture(
    params=["torus", "sphere"]
    + [f"F{faces}-seed{seed}" for faces in (2, 20, 200) for seed in range(4)]
)
def table_surface(request):
    """The fixtures, then random_triangulation(F, seed) for F in 2, 20, 200.

    The surfaces on which every per-pair table is pinned to its scalar
    oracle.
    """
    if request.param in ("torus", "sphere"):
        return request.getfixturevalue(request.param)
    faces, seed = map(int, request.param[1:].split("-seed"))
    return random_triangulation(faces, seed)
