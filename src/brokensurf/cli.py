"""Command-line front end.

Exit codes: 0 on success, 1 for unusable input (bad flags, unreadable or
malformed files, calibrate --samples below 1, a develop --base that is
not a face of the file), 2 when a loaded object fails validation, 3 when
a numerical check misses its tolerance.  develop and holonomy validate
their structure first and on failure print only its report and exit 2.
Every command prints one JSON document to stdout, or to --out when given.

A zero gap is one with |log(lambda^2 / 2)| <= GAP_FLOOR, everywhere.
Where it leaves a figure undefined, the command reports it as null and
keeps its exit code: holonomy's gap_holonomy at a puncture whose corner
cycle meets one on either side of a crossing, and forms --constrained's
constrained_rank when any pair has one.  validate passes puncture i when
|phi_i - 1| <= tol + 4 eps sum(1/g_near + 1/g_far) over its crossings,
which allows for the rounding of the gaps the ratios divide by.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fileio, forms, minkowski, render, samples
from .develop import cusp_closure_residual, develop, path_holonomy
from .errors import DegenerateEdge, GeometryError
from .hyperbolic import DecoratedBrokenHyperbolic
from .triangulation import IdealTriangulation, dual_loops

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_TOLERANCE = 3

MAX_DEPTH = 8

# calibrate draws and solves this many lifts at a time, so memory stays
# flat in --samples
CALIBRATE_BLOCK = 2048


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    """argparse type for counts: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs a positive integer, got {text!r}")
    return value


def _emit(doc: dict, out: str | None) -> None:
    text = fileio.canonical_json(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str):
    try:
        return fileio.load(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except GeometryError as exc:
        print(f"{path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _load_structure(path: str) -> DecoratedBrokenHyperbolic:
    obj = _load(path)
    if not isinstance(obj, DecoratedBrokenHyperbolic):
        print(f"{path} is not a structure file", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return obj


def _valid(H: DecoratedBrokenHyperbolic, out: str | None) -> bool:
    """Validate H; on failure emit only its report."""
    report = H.validate()
    if not report.valid:
        _emit({"report": report.to_dict()}, out)
    return report.valid


def _census(T: IdealTriangulation) -> dict:
    return {
        "faces": T.faces,
        "edges": T.num_edges,
        "punctures": T.num_punctures,
        "genus": T.genus,
        "euler_characteristic": T.euler_characteristic(),
        "corner_cycle_lengths": [len(c.sectors) for c in T.corner_cycles],
    }


def cmd_validate(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, IdealTriangulation):
        _emit({"kind": "triangulation", "census": _census(obj)}, args.out)
        return EXIT_OK
    kind = "structure" if isinstance(obj, DecoratedBrokenHyperbolic) else "measure"
    report = obj.validate(tol=args.tol)
    doc = {"kind": kind, "census": _census(obj.T), "report": report.to_dict()}
    _emit(doc, args.out)
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_forms(args) -> int:
    obj = _load(args.file)
    structure = obj if isinstance(obj, DecoratedBrokenHyperbolic) else None
    T = obj if isinstance(obj, IdealTriangulation) else obj.T
    residual = forms.pullback_residual(T)
    doc = {
        "census": _census(T),
        "pullback_residual": residual,
        "rank": forms.rank_report(T).to_dict(),
        "unbroken_rank": forms.unbroken_rank_report(T).to_dict(),
    }
    if args.constrained:
        if structure is None:
            structure = samples.random_valid_structure(T, samples.rng(args.seed))
            doc["constrained_at"] = f"random structure, seed {args.seed}"
        structure.gaps()  # raises for a lambda below sqrt(2) anywhere
        doc["constrained_rank"] = (
            None if structure.zero_gap.any()
            else forms.rank_report(T, structure, constrained=True).to_dict()
        )
    _emit(doc, args.out)
    return EXIT_OK if residual <= args.tol else EXIT_TOLERANCE


def cmd_ray(args) -> int:
    H = _load_structure(args.file)
    try:
        steps = [float(n) for n in args.steps.split(",") if n]
    except ValueError:
        print(f"bad --steps list: {args.steps!r}", file=sys.stderr)
        return EXIT_USAGE
    if not steps or min(steps) <= 0.0:
        print("--steps needs positive values", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for n in steps:
        sup = float(np.max(np.abs(forms.ray_measure(H, n).w - 1.0)))
        rows.append({"n": n, "x": 1.0 / n, "sup_distance_to_unit": sup})
    _emit({"census": _census(H.T), "steps": rows}, args.out)
    return EXIT_OK


def cmd_develop(args) -> int:
    H = _load_structure(args.file)
    if not 0 <= args.base < H.T.faces:
        print(f"--base {args.base} is not a face of {args.file} "
              f"(0 to {H.T.faces - 1})", file=sys.stderr)
        return EXIT_USAGE
    if not _valid(H, args.out):
        return EXIT_INVALID
    ball = develop(H, base=args.base, depth=args.depth)
    if args.svg:
        render.write_svg(args.svg, render.ball_svg(ball))
    doc = ball.to_dict()
    doc["max_drift"] = ball.max_drift()
    _emit(doc, args.out)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    gen = samples.rng(args.seed)
    total, lo, hi = 0.0, math.inf, -math.inf
    for start in range(0, args.samples, CALIBRATE_BLOCK):
        m = min(CALIBRATE_BLOCK, args.samples - start)
        points = samples.random_lifts(gen, m)
        corner = gen.integers(0, 3, size=m)
        every = minkowski.horocycle_arcs(points) / minkowski.hlengths(points)
        ratios = every[np.arange(m), corner]
        total += float(ratios.sum())
        lo, hi = min(lo, float(ratios.min())), max(hi, float(ratios.max()))
    mean = total / args.samples
    spread = hi - lo
    expected = 2.0**0.5
    doc = {
        "samples": args.samples,
        "constant": mean,
        "spread": spread,
        "expected": expected,
        "error": abs(mean - expected),
    }
    _emit(doc, args.out)
    ok = spread <= args.tol and abs(mean - expected) <= args.tol
    return EXIT_OK if ok else EXIT_TOLERANCE


def _gap_holonomy(H: DecoratedBrokenHyperbolic, puncture: int) -> float | None:
    try:
        return H.puncture_holonomy(puncture, "gap")
    except DegenerateEdge:
        return None


def cmd_holonomy(args) -> int:
    H = _load_structure(args.file)
    if not _valid(H, args.out):
        return EXIT_INVALID
    punctures = [
        {
            "puncture": cyc.index,
            "length": len(cyc.sectors),
            "lambda_holonomy": H.puncture_holonomy(cyc.index, "lambda"),
            "gap_holonomy": _gap_holonomy(H, cyc.index),
            "cusp_closure_residual": cusp_closure_residual(H, cyc.index),
        }
        for cyc in H.T.corner_cycles
    ]
    loops = []
    worst = 0.0
    for crossings in dual_loops(H.T, which=args.loops):
        hol = path_holonomy(H, crossings)
        res = hol.lorentz_residual()
        worst = max(worst, res)
        loops.append(
            {
                "crossings": [list(c) for c in crossings],
                "scale": hol.scale,
                "lorentz_residual": res,
                "backward_residual": hol.backward_residual(),
            }
        )
    doc = {"census": _census(H.T), "punctures": punctures, "loops": loops}
    _emit(doc, args.out)
    return EXIT_OK if worst <= args.tol else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="brokensurf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON document here, not stdout")

    p = sub.add_parser("validate", help="census and validity report for a file")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("forms", help="pullback residual and form ranks")
    p.add_argument("file", help="triangulation or structure file")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--constrained", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("ray", help="measure images along the degeneration ray")
    p.add_argument("file", help="structure file")
    p.add_argument("--steps", default="1,10,100,10000,1000000")
    common(p)
    p.set_defaults(func=cmd_ray)

    p = sub.add_parser("develop", help="develop a ball into the light cone")
    p.add_argument("file", help="structure file")
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--depth", type=int, default=2, choices=range(MAX_DEPTH + 1))
    p.add_argument("--svg", help="also write a disk picture here")
    common(p)
    p.set_defaults(func=cmd_develop)

    p = sub.add_parser("calibrate", help="measure the arc/h-length constant")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("holonomy", help="puncture and loop holonomy report")
    p.add_argument("file", help="structure file")
    p.add_argument("--loops", choices=("punctures", "basis"), default="punctures")
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_holonomy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
