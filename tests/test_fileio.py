"""Files at array speed, against json and against the walks they replace.

canonical_json writes documents with json.dumps, and holonomy's loop
rows from a template where json wrote a placeholder; its bytes must be
json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\\n" of
the document with the rows in place, and what json rejects must raise
json's own error.  The gluing
and pair-table readers check whole inputs at once; whatever they accept
must read as the entry-by-entry and key-by-key walks read it.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from conftest import bench_module, json_text, random_gluing
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brokensurf import cli, fileio, samples
from brokensurf.triangulation import (
    _partner,
    _partner_by_entry,
    build_triangulation,
    sphere_fixture,
    torus_fixture,
)


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# -- every command's document -------------------------------------------


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """name -> {kind: path}: both fixtures and generator files at F=20, 200."""
    tmp = tmp_path_factory.mktemp("files")
    out = {}
    for name, T in (("torus", torus_fixture()), ("sphere", sphere_fixture())):
        paths = {"triangulation": tmp / f"{name}.tri.json"}
        fileio.save(paths["triangulation"], T)
        for kind, make in (("broken", samples.random_valid_structure),
                           ("unbroken", samples.random_unbroken),
                           ("measure", samples.random_measure)):
            paths[kind] = tmp / f"{name}.{kind}.json"
            fileio.save(paths[kind], make(T, samples.rng(7)))
        out[name] = {kind: str(path) for kind, path in paths.items()}
    surfaces = bench_module("surfaces")
    for faces in (20, 200):
        for seed in (2, 3):
            name = f"f{faces}-seed{seed}"
            out[name] = surfaces.write_files(surfaces.random_surface(name, faces, seed), str(tmp))
    return out


COMMANDS = [
    ("triangulation", ["validate"]),
    ("measure", ["validate"]),
    ("broken", ["validate"]),
    ("triangulation", ["forms"]),
    ("broken", ["forms", "--constrained"]),
    ("broken", ["ray"]),
    ("broken", ["develop", "--depth", "3"]),
    ("broken", ["holonomy"]),
    ("broken", ["holonomy", "--loops", "basis"]),
    ("unbroken", ["holonomy"]),
    ("unbroken", ["holonomy", "--loops", "basis"]),
]


@pytest.mark.parametrize("name", ["torus", "sphere", "f20-seed2", "f20-seed3",
                                  "f200-seed2", "f200-seed3"])
def test_every_document_is_json_bytes(files, name):
    codes = []
    for kind, argv in COMMANDS:
        code, out = run([argv[0], files[name][kind], *argv[1:]])
        codes.append(code)
        assert code in (0, 3), argv
        assert out == json_text(json.loads(out)), argv
    if name.startswith("f200"):
        # long loops miss holonomy's --tol, and the document is still written
        assert 3 in codes


def list_lengths(doc, key=None):
    """(key, length) of every list in doc outside loops and nodes, the
    rows written from templates; key is the innermost key above it."""
    if isinstance(doc, dict):
        for name, value in doc.items():
            if name not in ("loops", "nodes"):
                yield from list_lengths(value, name)
    elif isinstance(doc, list):
        yield key, len(doc)
        for value in doc:
            yield from list_lengths(value, key)


@pytest.mark.parametrize("name", ["torus", "sphere", "f20-seed2", "f20-seed3",
                                  "f200-seed2", "f200-seed3"])
def test_documents_hold_only_short_lists(files, name):
    # json's own writer suffices because no document holds a long list
    # but its rows: none has more than max(s, 5) entries, s punctures
    _, out = run(["validate", files[name]["triangulation"]])
    bound = max(json.loads(out)["census"]["punctures"], 5)
    for kind, argv in COMMANDS:
        _, out = run([argv[0], files[name][kind], *argv[1:]])
        for key, length in list_lengths(json.loads(out)):
            assert length <= bound, (argv, key, length)


@pytest.mark.parametrize("seed", [2, 3])
def test_forms_document_does_not_grow_with_faces(files, seed):
    # the rank reports carry floors, not 3F-long lists
    size = {}
    for faces in (20, 200):
        code, out = run(["forms", files[f"f{faces}-seed{seed}"]["broken"], "--constrained"])
        assert code == 0
        size[faces] = len(out.encode())
    assert abs(size[200] - size[20]) <= 64, size


# -- random documents ---------------------------------------------------

# the float range's ends, both zeros, and repeats of a few values
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5, 0.1])
FLOATS = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**70), 2**70)
    | FLOATS | st.text()
)


def loop_rows_plain(crossings, figures) -> list:
    return [
        {"crossings": [[c // 3, c % 3] for c in loop],
         **{name: values[i] for name, values in figures.items()}}
        for i, loop in enumerate(crossings)
    ]


LOOPS = st.lists(st.lists(st.integers(0, 3 * 2000 - 1), min_size=1, max_size=12), max_size=6)
NAMES = st.lists(st.text(max_size=12), max_size=4, unique=True)
HOLONOMY_NAMES = ["scale", "lorentz_residual", "backward_residual"]


@st.composite
def loop_rows(draw):
    """LoopRows of finite figures, now and then with a loop of no crossings."""
    crossings = draw(LOOPS | st.lists(st.lists(st.integers(0, 5), max_size=2), max_size=3))
    n = len(crossings)
    figures = st.lists(FLOATS, min_size=n, max_size=n)
    return fileio.LoopRows(crossings, {name: draw(figures) for name in draw(NAMES)})


DOCS = st.recursive(
    LEAVES | loop_rows(),
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(EDGE_FLOATS, max_size=12)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=6), inner, max_size=5)
    ),
    max_leaves=40,
)


def with_rows(doc):
    """doc with each LoopRows in it replaced by its rows."""
    if isinstance(doc, fileio.LoopRows):
        return doc.rows()
    if isinstance(doc, dict):
        return {key: with_rows(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [with_rows(value) for value in doc]
    return doc


ROWS = fileio.LoopRows([[0, 4], [5]], {"scale": [0.5, -0.0]})


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(DOCS)
@example({"": [], "a": {}, "b": [[], [{}]], "c": [True, None, 1, 1.0, "é\n\"\\"]})
@example([[0.0, -0.0, 0.0], [-0.0], [5e-324, 1e308, 5e-324]])
@example({"%d": "%r", " \ud800": ["\x00", "０"]})
# strings that read as json's placeholder for loop rows
@example({"a": ROWS, "b": "<loop rows>"})
@example({"<loop rows>": [ROWS, {"x": (ROWS, 1.5)}]})
def test_random_documents_are_json_bytes(doc):
    # LoopRows at any key and depth: json's bytes with their rows in place
    assert fileio.canonical_json(doc) == json_text(with_rows(doc))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(LOOPS, NAMES, st.lists(FLOATS, min_size=24, max_size=24), st.integers(0, 3))
@example([[0], [5, 3, 5]], HOLONOMY_NAMES, [0.5, -0.0, 1e308, 5e-324] * 6, 1)
def test_loop_rows_are_json_bytes(crossings, names, values, depth):
    n = len(crossings)
    figures = {name: values[6 * j : 6 * j + n] for j, name in enumerate(names)}
    doc = {"loops": fileio.LoopRows(crossings, figures), "z": [1.0]}
    plain = {"loops": loop_rows_plain(crossings, figures), "z": [1.0]}
    for _ in range(depth):  # rows nested deeper keep json's indent
        doc, plain = [doc], [plain]
    assert fileio.canonical_json(doc) == json_text(plain)
    # written from the template at the rows' indent, not by json's fallback
    pad = "\n" + "  " * (depth + 1)
    want = json.dumps(loop_rows_plain(crossings, figures), sort_keys=True, indent=2)
    assert fileio._loop_rows(fileio.LoopRows(crossings, figures), pad) == want.replace("\n", pad)
    # a loop with no crossings is left to json itself
    rows = fileio.LoopRows([*crossings, []], {name: [*v, 2.0] for name, v in figures.items()})
    assert fileio.canonical_json(rows) == json_text(rows.rows())


# -- what json rejects --------------------------------------------------


def json_error(doc) -> tuple:
    with pytest.raises((TypeError, ValueError)) as exc:
        json_text(doc)
    return type(exc.value), str(exc.value)


def placements(bad) -> dict:
    """name -> (document for canonical_json, the same for json)."""
    loops = fileio.LoopRows([[0, 4]], {"scale": [bad]})
    return {
        "top": (bad, bad),
        "value": ({"a": 1.0, "b": bad}, {"a": 1.0, "b": bad}),
        "floats": ([1.0, bad, 2.0], [1.0, bad, 2.0]),
        "long-floats": ([0.5] * 100 + [bad], [0.5] * 100 + [bad]),
        "mixed": ([1, "x", bad], [1, "x", bad]),
        "nested": ({"a": [[0.5], {"b": bad}]}, {"a": [[0.5], {"b": bad}]}),
        "loop-figure": ({"loops": loops}, {"loops": loop_rows_plain([[0, 4]], {"scale": [bad]})}),
        "after-loops": ({"loops": fileio.LoopRows([[1]], {"s": [1.0]}), "z": bad},
                        {"loops": loop_rows_plain([[1]], {"s": [1.0]}), "z": bad}),
    }


REJECTED = [
    (where, bad)
    for bad in (math.nan, math.inf, -math.inf, {1, 2}, 1j)
    for where in placements(0.0)
    if isinstance(bad, float) or where != "loop-figure"  # figures are floats
]


@pytest.mark.parametrize("where, bad", REJECTED)
def test_what_json_rejects_raises_as_json(where, bad):
    doc, plain = placements(bad)[where]
    want = json_error(plain)
    with pytest.raises(want[0]) as got:
        fileio.canonical_json(doc)
    assert str(got.value) == want[1]


@pytest.mark.parametrize("first", ["loops", "set"])
def test_errors_come_in_document_order(first):
    # a loop figure json rejects and a value of no JSON type: the one
    # json meets first names the error, as with the rows in place
    values = {"loops": fileio.LoopRows([[0]], {"s": [math.nan]}), "set": {1, 2}}
    doc = {"a": values[first], "b": values[({"loops", "set"} - {first}).pop()]}
    want = json_error(with_rows(doc))
    with pytest.raises(want[0]) as got:
        fileio.canonical_json(doc)
    assert str(got.value) == want[1]


@pytest.mark.parametrize(
    "doc", [{10: "a", 2: [1.0, -0.0]}, {1.5: 0, True: 1}, {1.5: 0, "x": 1}, {None: 0, 1: 2}]
)
def test_non_str_keys_are_left_to_json(doc):
    # json writes int, float, bool and None keys as strings, sorted as
    # given, and cannot sort mixed kinds
    try:
        want = json_text(doc)
    except TypeError:
        want = json_error(doc)
        with pytest.raises(TypeError) as got:
            fileio.canonical_json(doc)
        assert str(got.value) == want[1]
    else:
        assert fileio.canonical_json(doc) == want


# -- readers against the walks --------------------------------------------


class Int(int):
    """An int that the fast gluing check turns away on type, as the walk takes it."""


@pytest.mark.parametrize("faces", [2, 20, 200, 2000])
@pytest.mark.parametrize("seed", [4, 5])
def test_fast_partner_is_the_walk(faces, seed):
    pairs = random_gluing(faces, seed)
    as_json = json.loads(json.dumps(pairs))  # lists of lists, as files hold
    want = _partner_by_entry(faces, pairs)
    for entries in (pairs, as_json):
        got = _partner(faces, entries)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # int subclasses take the walk; the corner cycles follow the partner
    walked = [tuple(tuple(map(Int, p)) for p in entry) for entry in pairs]
    T, W = build_triangulation(faces, as_json), build_triangulation(faces, walked)
    assert np.array_equal(T.partner, W.partner)
    assert np.array_equal(T.puncture_of, W.puncture_of)
    assert len(T.cycle_crossings) == len(W.cycle_crossings)
    for a, b in zip(T.cycle_crossings, W.cycle_crossings):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("faces", [2, 20, 200, 2000])
@pytest.mark.parametrize("seed", [4, 5])
def test_fast_table_is_the_walk(faces, seed):
    T = build_triangulation(faces, random_gluing(faces, seed))
    gen = samples.rng(seed)
    values = np.exp(gen.uniform(-5.0, 700.0, 3 * faces)).tolist()
    # ints too, some beyond int64 but inside float range
    values[::7] = [int(v) + 1 for v in values[::7]]
    keys = list(T.pair_dict(np.zeros((faces, 3))))
    d = {keys[i]: values[i] for i in gen.permutation(3 * faces).tolist()}
    got = T.pairs_from_dict(d, "lambda")
    assert isinstance(got, np.ndarray) and got.dtype == float
    assert np.array_equal(got.ravel(), [float(v) for v in values])
    walked = T._pairs_by_key(d, "lambda")
    assert walked == {divmod(i, 3): values[i] for i in range(3 * faces)}
    assert np.array_equal(T.pair_table(walked, "lambda", True), got)


@pytest.mark.parametrize("key", ["1\uff10.1", "01.1", "10.1 ", "1_0.1", "20.1", "100.1"])
def test_two_digit_faces_keep_their_spelling(key):
    # at F = 20 a face may have two digits, and each must be ASCII: int()
    # reads "1\uff10" as 10, so that key would alias pair (10, 1)
    T = build_triangulation(20, random_gluing(20, 6))
    d = dict.fromkeys(T.pair_dict(np.zeros((20, 3))), 2.0)
    del d["10.1"]
    d[key] = 2.0
    with pytest.raises(ValueError) as exc:
        T.pairs_from_dict(d, "lambda")
    assert str(exc.value) == f'lambda key {key!r} names no "face.slot" pair'
