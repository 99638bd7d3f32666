"""Command-line front end.

Exit codes: 0 on success, 1 for unusable input (a bad flag value, which
the parser reports as usage and one error line; an unreadable or
malformed file, an --out or --svg path that cannot be written, ray
--steps whose weights overflow, or a develop --base that is not a face
of the file), 2 when a loaded object fails validation, 3 when calibrate
or holonomy misses its --tol, 4 when the numbers break down on valid
input (a face lift out of float range, near lambda 1e77, a developed
point whose light-cone drift is above DRIFT_BOUND, infinite or NaN, an
unbroken singular value that does not clear its floor, or, as
MatrixTooLarge, a surface past forms.MAX_GRAM_EDGES edges, whose dense
unbroken Gram matrix is not built), printed as one typed line on stderr
with no numpy warning.  forms still prints its document when the
unbroken certificate is what breaks down, with unbroken_rank null.
develop and holonomy validate their structure first and on failure
print only its report and exit 2.
Every command prints one JSON document to stdout, or to --out when given.

A zero gap is one with |2 log(lambda) - log(2)| <= GAP_FLOOR, everywhere.
Where it leaves a figure undefined, the command reports it as null and
keeps its exit code: holonomy's gap_holonomy at a puncture whose corner
cycle meets one on either side of a crossing, and forms --constrained's
constrained_rank when any pair has one.  validate passes puncture i when
|phi_i - 1| <= tol + 4 eps sum(1/g_near + 1/g_far) over its crossings,
which allows for the rounding of the gaps the ratios divide by.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import fileio, forms, minkowski, render, samples
from .develop import DevelopedPaths, develop
from .errors import DegenerateEdge, GeometryError, NumericalBreakdown
from .hyperbolic import SQRT2, DecoratedBrokenHyperbolic
from .triangulation import IdealTriangulation, dual_loops

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_TOLERANCE = 3
EXIT_BREAKDOWN = 4

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


def _checked(convert, ok, need: str):
    """argparse type: convert the text, then require ok(value)."""

    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"needs {need}, got {text!r}")

    return parse


_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
_seed = _checked(int, lambda n: n >= 0, "a nonnegative integer")
_tolerance = _checked(
    float, lambda x: 0.0 <= x < math.inf, "a finite number of at least 0"
)
_steps = _checked(
    lambda text: [float(n) for n in text.split(",") if n],
    lambda steps: steps and all(0.0 < n < math.inf for n in steps),
    "a comma-separated list of positive finite numbers",
)


def _write(path: str, text: str) -> None:
    """Write text to path; a path that cannot be written is unusable input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(doc, out: str | None) -> None:
    """Write doc, a JSON-ready dict or a DevelopedBall, canonically."""
    text = fileio.canonical_json(doc)
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _load(path: str):
    try:
        return fileio.load(path)
    # json.load raises RecursionError on nesting deeper than the stack
    except (OSError, json.JSONDecodeError, KeyError, RecursionError, TypeError, ValueError) as exc:
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
        "corner_cycle_lengths": list(map(len, T.cycle_crossings)),
    }


def _unless_zero_gap(figure):
    """figure(), or None when a zero gap leaves it undefined (DegenerateEdge)."""
    try:
        return figure()
    except DegenerateEdge:
        return None


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
    try:
        unbroken, breakdown = forms.unbroken_rank_report(T).to_dict(), None
    except NumericalBreakdown as exc:
        unbroken, breakdown = None, exc
    doc = {
        "census": _census(T),
        "pullback_residual": forms.pullback_residual(T),
        "rank": forms.rank_report(T).to_dict(),
        "unbroken_rank": unbroken,
    }
    if args.constrained:
        if structure is None:
            structure = samples.random_valid_structure(T, samples.rng(args.seed))
            doc["constrained_at"] = f"random structure, seed {args.seed}"
        doc["constrained_rank"] = _unless_zero_gap(
            lambda: forms.rank_report(T, structure, constrained=True).to_dict()
        )
    _emit(doc, args.out)
    if breakdown:
        raise breakdown  # main prints its one typed line and exits 4
    return EXIT_OK


def cmd_ray(args) -> int:
    H = _load_structure(args.file)
    rows = []
    for n in args.steps:
        try:
            measure = forms.ray_measure(H, n)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return EXIT_USAGE
        sup = float(np.max(np.abs(measure.w - 1.0)))
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
        _write(args.svg, render.ball_svg(ball))
    _emit(ball, args.out)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    gen = samples.rng(args.seed)
    total, lo, hi = 0.0, math.inf, -math.inf
    for start in range(0, args.samples, CALIBRATE_BLOCK):
        m = min(CALIBRATE_BLOCK, args.samples - start)
        lift = samples.random_corner_lifts(gen, m)  # sampled corner is vertex 0
        u, v, w = lift[:, 0], lift[:, 1], lift[:, 2]
        ratios = minkowski.arc_columns(u, v, w) / minkowski.hlength_columns(u, v, w)
        total += float(ratios.sum())
        lo, hi = min(lo, float(ratios.min())), max(hi, float(ratios.max()))
    mean = total / args.samples
    spread = hi - lo
    expected = SQRT2
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


def cmd_holonomy(args) -> int:
    H = _load_structure(args.file)
    if not _valid(H, args.out):
        return EXIT_INVALID
    paths = DevelopedPaths(H)  # a corner cycle is walked once, for both reports
    punctures = [
        {
            "puncture": i,
            "length": len(crossed),
            "lambda_holonomy": H.puncture_holonomy(i, "lambda"),
            "gap_holonomy": _unless_zero_gap(lambda: H.puncture_holonomy(i, "gap")),
            "cusp_closure_residual": paths.cusp_closure_residual(i),
        }
        for i, crossed in enumerate(H.T.cycle_crossings)
    ]
    loops = dual_loops(H.T, which=args.loops)
    hol = paths.holonomies(loops)
    residuals = hol.lorentz_residual()
    figures = {
        "scale": hol.scale,
        "lorentz_residual": residuals,
        "backward_residual": hol.backward_residual(),
    }
    doc = {
        "census": _census(H.T),
        "punctures": punctures,
        # each crossing is written as its [face, slot] pair
        "loops": fileio.LoopRows(loops, figures),
    }
    _emit(doc, args.out)
    # from 0.0 by builtin max, which skips a NaN residual wherever it stands
    worst = max([0.0, *residuals.tolist()])
    return EXIT_OK if worst <= args.tol else EXIT_TOLERANCE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared.

    Parsing reads it and never changes it: each call gets a fresh
    namespace, filled from the defaults given here.
    """
    parser = _Parser(prog="brokensurf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON document here, not stdout")

    p = sub.add_parser("validate", help="census and validity report for a file")
    p.add_argument("file")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("forms", help="pullback residual and form ranks")
    p.add_argument("file", help="triangulation or structure file")
    p.add_argument("--constrained", action="store_true")
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("ray", help="measure images along the degeneration ray")
    p.add_argument("file", help="structure file")
    p.add_argument("--steps", type=_steps, default="1,10,100,10000,1000000")
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("holonomy", help="puncture and loop holonomy report")
    p.add_argument("file", help="structure file")
    p.add_argument("--loops", choices=("punctures", "basis"), default="punctures")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_holonomy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN if isinstance(exc, NumericalBreakdown) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
