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
"""

import contextlib
import functools
import io
import json
import math
import warnings

import numpy as np
import pytest
from conftest import random_triangulation
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brokensurf import cli, fileio
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
