"""The three workloads: seeded surfaces, their call lists, and output oracles.

A call is one closed-loop request: a `brokensurf.cli.main(argv)` run with
`--out` into the run's temporary directory, or one public library call.
Each call ends in one of three outcomes:

ok         the call returned and every oracle on its output held;
breakdown  a typed numerical failure on valid input from a call that the
           workload lists in its expected breakdowns (the known defects
           recorded in NOTES.md);
wrong      anything else: an oracle failed, an unexpected exit code or
           exception, or a breakdown of a call that is not listed.

`ok_frac` counts both kinds of failure; the result line's `failed` counts
only `wrong`, so a regression is caught even where known defects remain.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import surfaces as surf

SQRT2 = math.sqrt(2.0)
CALIBRATE_TOL = 1e-9
PULLBACK_TOL = 1e-12
DRIFT_BOUND = 1e-10
LORENTZ_TOL = 1e-9
TILE_TOL = 1e-9

COMMANDS = (
    "validate", "forms", "develop", "holonomy", "ray", "calibrate", "ball", "tiles",
)


@dataclass
class Call:
    command: str  # metric bucket: one of COMMANDS
    label: str
    run: Callable[[], object]  # timed; returns what check() inspects
    check: Callable[[object], str | None]  # None when ok, else the reason
    out_files: tuple = ()  # removed before the call, sized after it
    known_defect: bool = False  # a breakdown here is expected (see expect_breakdowns)


@dataclass
class Outcome:
    call: Call
    seconds: float  # scaled to the reference machine speed (see run.py)
    raw_seconds: float
    status: str  # ok, breakdown, wrong
    reason: str = ""
    out_bytes: int = 0


@dataclass
class Workload:
    surfaces: list
    calls: list = field(default_factory=list)


def nodes_in_ball(depth: int) -> int:
    return 3 * 2**depth - 2 if depth else 1


def oriented(point_triples) -> bool:
    """det(u, v, w) > 0 for every lift (rows or columns: same determinant)."""
    return bool(np.all(np.linalg.det(np.array(point_triples, dtype=float)) > 0.0))


# --- CLI calls ----------------------------------------------------------


def _run_cli(bs, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = bs.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue()


def _geometry_error_named(bs, stderr: str) -> bool:
    """The CLI reports a GeometryError as "<class name>: <message>"."""
    name = stderr.split(":", 1)[0].strip().split()[-1] if stderr.strip() else ""
    cls = getattr(bs, name, None)
    return isinstance(cls, type) and issubclass(cls, bs.GeometryError)


def cli_call(bs, tmp, command, label, argv, oracle, svg=False):
    """Call factory: argv gets --out (and --svg); oracle(doc, svg_text) -> reason."""
    out = os.path.join(tmp, f"{label}.out.json")
    svg_path = os.path.join(tmp, f"{label}.svg") if svg else None
    full = [command, *argv, "--out", out] + (["--svg", svg_path] if svg else [])

    def run():
        return _run_cli(bs, full)

    def check(result):
        code, stderr = result
        if code == 3 or (code == 2 and _geometry_error_named(bs, stderr)):
            return f"breakdown: exit {code} {stderr.strip()[:120]}".rstrip()
        if code != 0:
            return f"exit {code}: {stderr.strip()[:200]}"
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        svg_text = None
        if svg_path:
            with open(svg_path, encoding="utf-8") as fh:
                svg_text = fh.read()
        return oracle(doc, svg_text)

    return Call(command, label, run, check, (out, svg_path) if svg else (out,))


def census_oracle(expected):
    def check(doc) -> str | None:
        got = dict(doc["census"])
        got["corner_cycle_lengths"] = sorted(got["corner_cycle_lengths"])
        want = dict(expected, corner_cycle_lengths=sorted(expected["corner_cycle_lengths"]))
        if got != want:
            return f"census {got} != {want}"
        chi = got["faces"] - got["edges"]
        if chi != 2 - 2 * got["genus"] - got["punctures"]:
            return f"chi {chi} != 2 - 2g - s"
        return None

    return check


def validate_oracle(census, kind):
    census_ok = census_oracle(census)

    def check(doc, _svg):
        if doc["kind"] != kind:
            return f"kind {doc['kind']} != {kind}"
        if kind != "triangulation" and not doc["report"]["valid"]:
            return "generated-valid input reported invalid"
        return census_ok(doc)

    return check


def forms_oracle(census, constrained):
    census_ok = census_oracle(census)
    F, g, s = census["faces"], census["genus"], census["punctures"]

    def check(doc, _svg):
        if doc["pullback_residual"] > PULLBACK_TOL:
            return f"pullback residual {doc['pullback_residual']}"
        if doc["rank"]["rank"] != 2 * F:
            return f"rank {doc['rank']['rank']} != 2F = {2 * F}"
        # Penner: the wp form on unbroken structures has rank 6g - 6 + 2s.
        if doc["unbroken_rank"]["rank"] != 6 * g - 6 + 2 * s:
            return f"unbroken rank {doc['unbroken_rank']['rank']} != {6 * g - 6 + 2 * s}"
        if constrained:
            c = doc["constrained_rank"]
            if c["num_constraints"] != s - 1 or c["tangent_dim"] != 3 * F - s + 1:
                return f"constrained tangent {c['tangent_dim']}, constraints {c['num_constraints']}"
        return census_ok(doc)

    return check


def ray_oracle(census, lam, steps):
    census_ok = census_oracle(census)
    top = max(abs(w) for w in surf.gap_measure(lam).values())

    def check(doc, _svg):
        rows = doc["steps"]
        if [r["n"] for r in rows] != steps:
            return "ray steps differ"
        for r in rows:
            want = top / r["n"]
            if abs(r["sup_distance_to_unit"] - want) > 1e-9 * max(want, 1.0):
                return f"ray sup {r['sup_distance_to_unit']} != {want} at n={r['n']}"
        return census_ok(doc)

    return check


def develop_oracle(depth):
    def check(doc, svg):
        nodes = doc["nodes"]
        if len(nodes) != nodes_in_ball(depth):
            return f"{len(nodes)} nodes != 3*2^{depth}-2"
        if not oriented([n["points"] for n in nodes]):
            return "lift not positively oriented"
        if not doc["max_drift"] <= DRIFT_BOUND:
            return f"max drift {doc['max_drift']}"
        if svg is not None and not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            return "svg is not a complete document"
        return None

    return check


def holonomy_oracle(census, loops):
    want = census["punctures"] if loops == "punctures" else census["edges"] - census["faces"] + 1
    census_ok = census_oracle(census)

    def check(doc, _svg):
        if len(doc["punctures"]) != census["punctures"] or len(doc["loops"]) != want:
            return f"{len(doc['loops'])} loops != {want}"
        worst = max((lp["lorentz_residual"] for lp in doc["loops"]), default=0.0)
        if worst > LORENTZ_TOL:
            return f"exit 0 with lorentz residual {worst}"
        return census_ok(doc)

    return check


def calibrate_oracle(doc, _svg):
    if abs(doc["constant"] - SQRT2) > CALIBRATE_TOL:
        return f"calibration constant {doc['constant']} is not sqrt(2)"
    return None


# --- library calls ------------------------------------------------------


def ball_call(bs, label, H, depth):
    """develop(H, 0, depth) then deck_candidates, as one call."""

    def run():
        try:
            ball = bs.develop(H, 0, depth)
            return ball, bs.deck_candidates(H, ball)
        except bs.GeometryError as exc:
            return exc

    def check(result):
        if isinstance(result, Exception):
            return f"breakdown: {type(result).__name__}: {result}"
        ball, deck = result
        if len(ball.nodes) != nodes_in_ball(depth):
            return f"{len(ball.nodes)} nodes != 3*2^{depth}-2"
        if not oriented([n.points for n in ball.nodes]):
            return "lift not positively oriented"
        repeats = sum(1 for n in ball.nodes[1:] if n.face == ball.base)
        if len(deck) != repeats:
            return f"{len(deck)} deck candidates != {repeats} base repeats"
        return None

    return Call("ball", label, run, check)


def tiles_call(bs, label, ball):
    """All-pairs tile_separation over one ball developed during set-up."""
    points = [n.points for n in ball.nodes]

    def run():
        sep = bs.tile_separation
        n = len(points)
        return [sep(points[i], points[j]) for i in range(n) for j in range(i + 1, n)]

    def check(margins):
        n = len(points)
        if len(margins) != n * (n - 1) // 2:
            return "tile sweep skipped pairs"
        # A developed ball embeds: no two tiles overlap (neighbours touch at 0).
        worst = max(margins)
        if not worst <= TILE_TOL:
            return f"developed tiles overlap by {worst}"
        return None

    return Call("tiles", label, run, check)


# --- workload definitions ----------------------------------------------


def expect_breakdowns(w, labels) -> None:
    """Mark the calls that break down today on valid input: known defects.

    A breakdown of any other call is `wrong`; a marked call that succeeds
    is `ok`, which is how a fix shows.
    """
    known = {c.label for c in w.calls}
    if not set(labels) <= known:
        raise ValueError(f"no such calls: {sorted(set(labels) - known)}")
    for c in w.calls:
        c.known_defect = c.label in labels


def _library_structure(bs, surface, kind):
    T = bs.build_triangulation(surface.faces, surface.pairs)
    return bs.DecoratedBrokenHyperbolic(T, surface.structures[kind])


def _per_structure_calls(bs, tmp, calls, surface, paths, kind, spec):
    """Append the calls `spec` asks for on one structure file."""
    c = surface.census
    lam = surface.structures[kind]
    tag = f"{surface.name}-{kind}"
    f = paths[kind]
    if "validate" in spec:
        calls.append(cli_call(bs, tmp, "validate", f"validate-{tag}", [f],
                              validate_oracle(c, "structure")))
    if "ray" in spec:
        steps = [1.0, 10.0, 100.0, 10000.0, 1000000.0]
        calls.append(cli_call(bs, tmp, "ray", f"ray-{tag}", [f], ray_oracle(c, lam, steps)))
    for loops in spec.get("holonomy", ()):
        calls.append(cli_call(bs, tmp, "holonomy", f"holonomy-{loops}-{tag}",
                              [f, "--loops", loops], holonomy_oracle(c, loops)))
    if "develop" in spec:
        depth, svg = spec["develop"]
        calls.append(cli_call(bs, tmp, "develop", f"develop-{tag}", [f, "--depth", str(depth)],
                              develop_oracle(depth), svg=svg))
    H = None
    if "ball" in spec:
        H = _library_structure(bs, surface, kind)
        calls.append(ball_call(bs, f"ball-{tag}", H, spec["ball"]))
    if "tiles" in spec:
        H = H or _library_structure(bs, surface, kind)
        try:
            ball = bs.develop(H, 0, spec["tiles"])
        except bs.GeometryError:
            ball = None
        if ball is not None:
            calls.append(tiles_call(bs, f"tiles-{tag}", ball))
        else:
            calls.append(Call("tiles", f"tiles-{tag}", lambda: None,
                              lambda _r: "set-up ball did not develop"))


def ball_deep(bs, seed, tmp):
    """Deep developing: CLI develop at the depth cap, library balls at 12."""
    torus_u = surf.lambda2_torus("torus")
    torus_b = surf.make_surface(
        "torus-pinned", 2, surf.TORUS_GLUING, {"broken": dict(surf.PINNED_BROKEN_TORUS)}
    )
    sphere = surf.make_surface(
        "sphere", 2, surf.SPHERE_GLUING,
        {"broken": surf.broken_valid(2, surf.SPHERE_GLUING, surf.surface_rng(seed, "sphere"))},
    )
    f20 = surf.random_surface("f20", 20, surf.PINNED_F20_SEED)
    w = Workload([torus_u, torus_b, sphere, f20])
    spec = {
        "validate": True, "ray": True, "holonomy": ("punctures",), "develop": (8, True), "ball": 12,
    }
    for s in w.surfaces:
        paths = surf.write_files(s, tmp)
        w.calls.append(cli_call(bs, tmp, "forms", f"forms-{s.name}", [paths["triangulation"]],
                                forms_oracle(s.census, False)))
        for kind in s.structures:
            # One depth-6 sweep (190 tiles, 17955 pairs) per pass is enough
            # to time tile_separation; five would double the pass time.
            tiles = {"tiles": 6} if (s.name, kind) == ("f20", "broken") else {}
            _per_structure_calls(bs, tmp, w.calls, s, paths, kind, dict(spec, **tiles))
    w.calls.append(cli_call(bs, tmp, "calibrate", "calibrate", ["--samples", "20000",
                            "--seed", str(seed)], calibrate_oracle))
    expect_breakdowns(w, {"ball-torus-pinned-broken", "holonomy-punctures-f20-broken"})
    return w


def forms_large(bs, seed, tmp):
    """Dense 3F x 3F forms and SVDs at F = 200 and 400; develop nearly idle."""
    w = Workload([
        surf.random_surface("f200", 200, seed, kinds=("broken",)),
        surf.random_surface("f400", 400, seed, kinds=("broken",)),
    ])
    spec = {"validate": True, "ray": True, "develop": (2, False), "ball": 4, "tiles": 3}
    for s in w.surfaces:
        paths = surf.write_files(s, tmp)
        w.calls.append(cli_call(bs, tmp, "forms", f"forms-{s.name}", [paths["triangulation"]],
                                forms_oracle(s.census, False)))
        w.calls.append(cli_call(bs, tmp, "validate", f"validate-{s.name}-tri",
                                [paths["triangulation"]], validate_oracle(s.census, "triangulation")))
        extra = {}
        if s.faces == 200:
            w.calls.append(cli_call(bs, tmp, "forms", f"forms-constrained-{s.name}",
                                    [paths["broken"], "--constrained"],
                                    forms_oracle(s.census, True)))
            # Holonomy at F=200 only: the F=400 puncture-0 loop (~870
            # crossings) breaks down on some seeds and completes on others,
            # which made holonomy_ms bimodal across seeds.  Long loops are
            # surface-wide's job.
            extra = {"holonomy": ("punctures",)}
        _per_structure_calls(bs, tmp, w.calls, s, paths, "broken", dict(spec, **extra))
    # 5000 samples (about 0.3 s) rather than the default 1000: a 60 ms call
    # caught in a single speed flip spread calibrate_ms by 0.14-0.18 over seeds.
    w.calls.append(cli_call(bs, tmp, "calibrate", "calibrate", ["--samples", "5000",
                            "--seed", str(seed)], calibrate_oracle))
    expect_breakdowns(w, {"holonomy-punctures-f200-broken"})
    return w


def surface_wide(bs, seed, tmp):
    """Linear-in-F parsing, validation and long loop holonomy at F = 2000."""
    w = Workload([
        surf.random_surface("f2000", 2000, seed),
        surf.random_surface("f200", 200, seed),
    ])
    spec = {
        "validate": True, "holonomy": ("punctures", "basis"), "develop": (4, False),
    }
    for s in w.surfaces:
        paths = surf.write_files(s, tmp)
        c = s.census
        w.calls.append(cli_call(bs, tmp, "validate", f"validate-{s.name}-tri",
                                [paths["triangulation"]], validate_oracle(c, "triangulation")))
        w.calls.append(cli_call(bs, tmp, "validate", f"validate-{s.name}-measure",
                                [paths["measure"]], validate_oracle(c, "measure")))
        _per_structure_calls(bs, tmp, w.calls, s, paths, "broken",
                             dict(spec, ray=True, ball=4, tiles=4))
        _per_structure_calls(bs, tmp, w.calls, s, paths, "unbroken", spec)
        if s.faces == 200:
            w.calls.append(cli_call(bs, tmp, "forms", f"forms-{s.name}",
                                    [paths["triangulation"]], forms_oracle(c, False)))
    # 5000 samples (about 0.3 s) rather than the default 1000: a 60 ms call
    # caught in a single speed flip spread calibrate_ms by 0.14-0.18 over seeds.
    w.calls.append(cli_call(bs, tmp, "calibrate", "calibrate", ["--samples", "5000",
                            "--seed", str(seed)], calibrate_oracle))
    expect_breakdowns(w, {
        f"holonomy-{loops}-{name}-{kind}"
        for loops in spec["holonomy"]
        for name in ("f2000", "f200")
        for kind in ("broken", "unbroken")
    })
    return w


def warm_up(bs, tmp):
    """Every command once on the lambda = 2 torus, at the smallest sizes."""
    torus = surf.lambda2_torus("warm")
    paths = surf.write_files(torus, tmp)
    calls = [
        cli_call(bs, tmp, "forms", "warm-forms", [paths["triangulation"]],
                 forms_oracle(torus.census, False)),
        cli_call(bs, tmp, "calibrate", "warm-calibrate", ["--samples", "10"], calibrate_oracle),
    ]
    _per_structure_calls(bs, tmp, calls, torus, paths, "unbroken", {
        "validate": True, "ray": True, "holonomy": ("punctures",), "develop": (1, True),
        "ball": 1, "tiles": 1,
    })
    return calls


WORKLOADS = {"ball-deep": ball_deep, "forms-large": forms_large, "surface-wide": surface_wide}
