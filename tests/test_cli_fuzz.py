"""The command line's contract, fuzzed over surfaces and mixed-scale lambdas.

Each example is a structure on the torus, the sphere or a random
triangulation of 6 or 20 faces, broken or unbroken, whose log lambdas
mix a few scales: near log sqrt(2) (zero and slightly negative gaps),
fixed scales from 1 to 690 with small jitter, and log-uniform values up
to 1e300.  Every structure command runs on it in process through
cli.main, and the run must keep the contract: only SystemExit escapes,
no RuntimeWarning is raised, every exit code is in 0-4, exit 0 prints
one JSON document of finite numbers, and the commands agree with
validate on exit 2.

Measures are fuzzed too: their small weights are log-uniform per corner
over 1e-10 to 1e12, and may put one corner a margin of 2 tol * face
scale inside or outside its triangle inequality, so validity is known
from the draw and validate must agree with it.  Flags run at their
edges, and files that name other files as their triangulation in a
self-loop, a two-cycle, a chain or at a non-object must exit 1 with one
line on stderr.
"""

import contextlib
import functools
import io
import json
import math
import warnings

import numpy as np
import pytest
from conftest import mixed_scale_measure, random_triangulation, run_subprocess
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brokensurf import cli, fileio
from brokensurf.foliation import LARGE_FROM_SMALL, BrokenMeasure
from brokensurf.hyperbolic import DecoratedBrokenHyperbolic
from brokensurf.triangulation import sphere_fixture, torus_fixture

@functools.cache
def surface(key: str):
    """"torus", "sphere" or "F{faces}-seed{seed}" for random_triangulation."""
    if key == "torus":
        return torus_fixture()
    if key == "sphere":
        return sphere_fixture()
    faces, seed = map(int, key[1:].split("-seed"))
    return random_triangulation(faces, seed)


SURFACES = st.sampled_from(["torus", "sphere"]) | st.builds(
    "F{}-seed{}".format, st.sampled_from([6, 20]), st.integers(0, 9)
)
LOG_SQRT2 = math.log(2.0) / 2
SCALES = st.sampled_from([LOG_SQRT2, 1.0, 5.0, 50.0, 170.0, 350.0, 400.0, 690.0])
LOG_UNIFORM = st.floats(-2.0, math.log(1e300))
JITTER = st.sampled_from([0.0, 1e-13, -1e-13]) | st.floats(-1e-3, 1e-3)


@st.composite
def cases(draw):
    """(surface key, lambdas in pair order, develop base, develop depth)."""
    key = draw(SURFACES)
    T = surface(key)
    palette = draw(st.lists(SCALES | LOG_UNIFORM, min_size=1, max_size=3))
    unbroken = draw(st.booleans())
    count = T.num_edges if unbroken else 3 * T.faces
    logs = [
        draw(st.sampled_from(palette)) + draw(JITTER) for _ in range(count)
    ]
    if unbroken:
        logs = np.array(logs)[T.edge_index].ravel().tolist()
    base = draw(st.integers(0, T.faces - 1))
    depth = draw(st.integers(0, 4))
    return key, tuple(map(math.exp, logs)), base, depth


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of cli.main, with RuntimeWarning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {value}")
    return value


def parse_finite(text: str):
    """The one JSON document text holds; ValueError for a non-finite number."""
    return json.loads(text, parse_float=lambda s: finite(float(s)),
                      parse_constant=lambda s: finite(float(s)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# valid, with crossing coefficients out of float range
MIXED_SCALE = ("torus", tuple(np.exp([50, 50, 50, 50, 400, 400]).tolist()), 0, 4)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(case=cases())
@example(case=MIXED_SCALE)
def test_cli_contract(workdir, case):
    key, lam, base, depth = case
    T = surface(key)
    H = DecoratedBrokenHyperbolic(T, np.reshape(lam, (T.faces, 3)))
    path, again = str(workdir / "structure.json"), str(workdir / "again.json")
    fileio.save(path, H)
    fileio.save(again, fileio.load(path))
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()

    svg = str(workdir / "ball.svg")
    commands = {
        "validate": ["validate", path],
        "forms": ["forms", path],
        "constrained": ["forms", path, "--constrained"],
        "ray": ["ray", path],
        "develop": ["develop", path, "--base", str(base), "--depth", str(depth),
                    "--svg", svg],
        "holonomy": ["holonomy", path],
        "basis": ["holonomy", path, "--loops", "basis"],
    }
    codes = {}
    for name, argv in commands.items():
        code, out, err = run(argv)
        assert code in range(5), (name, code, err)
        if code == 0:
            parse_finite(out)
        codes[name] = code
    if codes["validate"] == 2:
        assert codes["develop"] == codes["holonomy"] == codes["basis"] == 2, codes
    for name in ("develop", "ray", "constrained"):
        if codes[name] == 2:
            assert codes["validate"] == 2, codes


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(case=cases())
@example(case=MIXED_SCALE)
def test_cli_flags_at_their_edges(workdir, case):
    key, lam, base, _ = case
    T = surface(key)
    path = str(workdir / "edges.json")
    fileio.save(path, DecoratedBrokenHyperbolic(T, np.reshape(lam, (T.faces, 3))))
    develop = ["develop", path, "--base", str(base), "--depth"]
    commands = {
        "validate": ["validate", path],
        "tol0": ["validate", path, "--tol", "0"],
        "holonomy0": ["holonomy", path, "--tol", "0"],
        "depth0": develop + ["0"],
        "depth8": develop + ["8"],
        "steps": ["ray", path, "--steps", "1e-300,1e300"],
    }
    codes = {}
    for name, argv in commands.items():
        code, out, err = run(argv)
        assert code in range(5), (name, code, err)
        if code == 0:
            parse_finite(out)
        codes[name] = code
    if codes["validate"] == 2:
        assert codes["tol0"] == codes["depth0"] == codes["depth8"] == 2, codes
    else:
        # every gap is below 1400, so 1 + gap / 1e-300 stays finite
        assert codes["steps"] == 0, codes


# validate's default --tol, against which measure draws are placed
TOL = 1e-9

MIXED_SCALE_MEASURE = (
    "torus", tuple(mixed_scale_measure(torus_fixture()).w.ravel().tolist()), True
)


@st.composite
def measure_cases(draw):
    """(surface key, weights in pair order, whether they are valid)."""
    key = draw(SURFACES)
    T = surface(key)
    logs = draw(st.lists(st.floats(math.log(1e-10), math.log(1e12)),
                         min_size=3 * T.faces, max_size=3 * T.faces))
    smalls = np.exp(np.reshape(logs, (T.faces, 3)))
    side = draw(st.sampled_from([0.0, 1.0, -1.0]))
    if side:
        f, c = draw(st.integers(0, T.faces - 1)), draw(st.integers(0, 2))
        others = smalls[f].sum() - smalls[f, c]
        # the face scale is within a factor 1 + 2 tol of max(1, others)
        smalls[f, c] = side * 2.0 * TOL * max(1.0, others)
    weights = smalls @ LARGE_FROM_SMALL.T
    return key, tuple(weights.ravel().tolist()), side >= 0.0


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(case=measure_cases())
@example(case=MIXED_SCALE_MEASURE)
def test_cli_measure_validity(workdir, case):
    key, w, valid = case
    T = surface(key)
    path, again = str(workdir / "measure.json"), str(workdir / "again.json")
    fileio.save(path, BrokenMeasure(T, np.reshape(w, (T.faces, 3))))
    fileio.save(again, fileio.load(path))
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()
    code, out, err = run(["validate", path])
    assert code == (0 if valid else 2), (out, err)
    parse_finite(out)


# a.json and the files it names, by the file each names
LINKS = {
    "self": {"a": "a"},
    "two-cycle": {"a": "b", "b": "a"},
    "chain": {"a": "b", "b": "c"},
}


def write_linked(directory, shape: str, table: str) -> str:
    """a.json, whose triangulation entry names a file that is no triangulation.

    shape is "self", "two-cycle", "chain" (a.json names a structure or
    measure that names a triangulation file) or the JSON text of a value
    that is no object, which a.json names.
    """
    directory.mkdir(parents=True, exist_ok=True)
    links = LINKS.get(shape)
    if links is None:
        links = {"a": "n"}
        (directory / "n.json").write_text(shape)
    fileio.save(str(directory / "c.json"), torus_fixture())
    values = {f"{f}.{s}": 2.0 for f in range(2) for s in range(3)}
    for name, target in links.items():
        doc = {table: values, "triangulation": f"{target}.json"}
        (directory / f"{name}.json").write_text(json.dumps(doc))
    return str(directory / "a.json")


LINK_SHAPES = ["self", "two-cycle", "chain", "[]", "[1, 2]", "3", '"a.json"', "null"]
STRUCTURE_COMMANDS = ["validate", "forms", "ray", "develop", "holonomy"]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    shape=st.sampled_from(LINK_SHAPES),
    table=st.sampled_from(["lambda", "w"]),
    command=st.sampled_from(STRUCTURE_COMMANDS),
)
def test_cli_rejects_linked_files(workdir, shape, table, command):
    name = f"{LINK_SHAPES.index(shape)}-{table}-{command}"
    path = write_linked(workdir / "linked" / name, shape, table)
    code, out, err = run([command, path])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"cannot read {path}: "), err


@pytest.mark.parametrize("shape", ["self", "two-cycle", "chain", "[]"])
def test_linked_files_in_a_fresh_interpreter(tmp_path, shape):
    done = run_subprocess(["validate", write_linked(tmp_path, shape, "w")])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr


def test_mixed_scale_measure_in_a_fresh_interpreter(tmp_path, torus):
    path = str(tmp_path / "measure.json")
    fileio.save(path, mixed_scale_measure(torus))
    done = run_subprocess(["validate", path])
    assert (done.returncode, done.stderr) == (0, "")
