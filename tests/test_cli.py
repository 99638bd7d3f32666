import json
import math

import numpy as np
import pytest

from conftest import (
    bench_module,
    drift_overflow_torus,
    json_text,
    mixed_scale_measure,
    mixed_scale_torus,
    oracle_calibrate,
    random_triangulation,
    run_subprocess,
)

from brokensurf import cli, cusp_closure_residual, dual_loops, fileio, path_holonomy, samples
from brokensurf.errors import DegenerateEdge
from brokensurf.foliation import BrokenMeasure
from brokensurf.hyperbolic import (
    EPS,
    DecoratedBrokenHyperbolic,
    constant_structure,
    embed_unbroken,
)


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def torus_file(tmp_path, torus):
    path = tmp_path / "torus.json"
    fileio.save(path, torus)
    return str(path)


@pytest.fixture
def structure_file(tmp_path, torus):
    H = samples.random_boxed_structure(torus, samples.rng(7))
    path = tmp_path / "structure.json"
    fileio.save(path, H)
    return str(path)


def read_doc(capsys):
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json_text(doc)
    return doc


def test_validate_triangulation(torus_file, capsys):
    assert run(["validate", torus_file]) == 0
    doc = read_doc(capsys)
    assert doc["kind"] == "triangulation"
    assert doc["census"]["genus"] == 1
    assert doc["census"]["punctures"] == 1


def test_validate_structure(structure_file, capsys):
    assert run(["validate", structure_file]) == 0
    doc = read_doc(capsys)
    assert doc["kind"] == "structure"
    assert doc["report"]["valid"] is True


def test_validate_flags_face_violation(tmp_path, torus, capsys):
    lam = {p: 2.0 for p in torus.pairs}
    lam[(0, 0)] = 40.0  # 2*2 < sqrt(2)*40 on face 0
    path = tmp_path / "bad.json"
    fileio.save(path, DecoratedBrokenHyperbolic(torus, lam))
    assert run(["validate", str(path)]) == 2
    assert read_doc(capsys)["report"]["valid"] is False


def test_validate_flags_negative_sector(tmp_path, torus, capsys):
    w = {p: 1.0 for p in torus.pairs}
    w[(0, 0)] = 5.0  # sector 0 of face 0 gets (1 + 1 - 5)/2
    path = tmp_path / "measure.json"
    fileio.save(path, BrokenMeasure(torus, w))
    assert run(["validate", str(path)]) == 2
    doc = read_doc(capsys)
    assert doc["kind"] == "measure"
    assert doc["report"]["valid"] is False


def test_validate_measure_switch_check_uses_tol(tmp_path, torus, capsys):
    # small weight -1e-10 at face 0's corner 0: dust at the CLI's 1e-9
    # tolerance, so the switch check must clamp at that tolerance too
    w = {p: 1.0 for p in torus.pairs}
    w[(0, 0)] = 2.0 + 2e-10
    path = tmp_path / "measure.json"
    fileio.save(path, BrokenMeasure(torus, w))
    assert run(["validate", str(path)]) == 0
    checks = {c["name"]: c for c in read_doc(capsys)["report"]["checks"]}
    assert checks["triangle_inequalities"]["passed"] is True
    assert checks["switch_conditions"]["passed"] is True


def test_validate_mixed_scale_measure(tmp_path, torus, capsys):
    path = tmp_path / "mixed.json"
    fileio.save(path, mixed_scale_measure(torus))
    assert run(["validate", str(path)]) == 0
    checks = {c["name"]: c for c in read_doc(capsys)["report"]["checks"]}
    assert checks["switch_conditions"]["residual"] <= 4.0 * EPS


def test_generator_measures_validate_at_zero_tol(tmp_path, torus, sphere):
    paths = []
    for name, T in (("torus", torus), ("sphere", sphere)):
        paths.append(tmp_path / f"{name}.json")
        fileio.save(paths[-1], samples.random_measure(T, samples.rng(1)))
    surfaces = bench_module("surfaces")
    for faces in (20, 200):
        surface = surfaces.random_surface(f"f{faces}", faces, 1, kinds=("broken",))
        paths.append(surfaces.write_files(surface, str(tmp_path))["measure"])
    for path in paths:
        assert run(["validate", str(path), "--tol", "0"]) == 0, path


def test_validate_rejects_triangle_violation_at_any_tol(tmp_path, torus):
    path = tmp_path / "violated.json"
    fileio.save(path, BrokenMeasure(torus, [[1.0, 1.0, 3.0], [1.0, 1.0, 1.0]]))
    for tol in ("0", "1e-9"):
        assert run(["validate", str(path), "--tol", tol]) == 2


def test_validate_agrees_with_gap_near_sqrt2(tmp_path, torus, capsys):
    # just below sqrt(2) beyond GAP_FLOOR: gaps() raises, so validate must fail
    below = tmp_path / "below.json"
    fileio.save(below, constant_structure(torus, math.sqrt(2) * (1 - 1e-10)))
    assert run(["validate", str(below)]) == 2
    checks = {c["name"]: c for c in read_doc(capsys)["report"]["checks"]}
    assert checks["gaps_nonnegative"]["passed"] is False
    # within GAP_FLOOR: gaps() clamps to zero, so every command accepts it
    edge = tmp_path / "edge.json"
    fileio.save(edge, constant_structure(torus, math.sqrt(2) * (1 - 1e-13)))
    for command in ("validate", "holonomy", "ray"):
        assert run([command, str(edge)]) == 0
        capsys.readouterr()


def test_validate_checks_holonomy_next_to_a_small_gap(tmp_path, sphere, capsys):
    # the gap at (0, 0) is 2e-10: small, but not zero, so the puncture
    # holonomies (0.87, 3.2e-10 and 3.6e9) must be checked, and fail
    r2 = math.sqrt(2.0)
    lam = [[r2 * (1 + 1e-10), 2.3, 2.3], [2.1, 2.6, 2.4]]
    path = tmp_path / "open.json"
    fileio.save(path, DecoratedBrokenHyperbolic(sphere, lam))
    for command in ("validate", "develop", "holonomy"):
        assert run([command, str(path)]) == 2
        checks = {c["name"]: c for c in read_doc(capsys)["report"]["checks"]}
        assert checks["puncture_holonomy"]["passed"] is False


def test_validate_allows_for_rounding_across_tiny_gaps(tmp_path, sphere, capsys):
    # gap = mu_f * beta_e closes every puncture exactly; the 1e-8 gaps
    # leave the computed ratios good to only about eps / 1e-8
    beta = np.array([1e-8, 1.4, 1.4])
    mu = np.array([0.9, 1.3])
    lam = np.sqrt(2.0 * np.exp(mu[:, None] * beta[sphere.edge_index]))
    path = tmp_path / "closed.json"
    fileio.save(path, DecoratedBrokenHyperbolic(sphere, lam))
    assert run(["validate", str(path)]) == 0
    checks = {c["name"]: c for c in read_doc(capsys)["report"]["checks"]}
    assert checks["puncture_holonomy"]["passed"] is True


def test_holonomy_null_exactly_where_undefined(tmp_path, sphere, capsys):
    lam = np.full((2, 3), 2.0)
    lam[0, 0] = math.sqrt(2.0)
    H = DecoratedBrokenHyperbolic(sphere, lam)
    path = tmp_path / "zero.json"
    fileio.save(path, H)
    assert run(["holonomy", str(path)]) == 0
    rows = read_doc(capsys)["punctures"]
    assert [row["gap_holonomy"] for row in rows] == [1.0, None, None]
    with pytest.raises(DegenerateEdge):
        H.puncture_holonomy(1, "gap")


def test_unreadable_files_exit_1(tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert run(["validate", str(garbled)]) == 1
    assert run(["validate", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("text", ["5", "null", '"x"', '"w"', "[1, 2]"])
def test_file_must_hold_an_object(tmp_path, text, capsys):
    # the first two used to read "argument of type 'int' is not
    # iterable", and a string holding "w" was searched as if a dict
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"cannot read {path}: dict is not a triangulation, structure, or measure\n"
    )


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("key", ["0.01", " 0.1", "0_0.1", "+0.1"])
def test_pair_keys_must_be_canonical(tmp_path, torus, key, capsys):
    # int() reads every one of these as pair (0, 1), so a second spelling
    # of one pair would silently override the first
    doc = constant_structure(torus, 2.0).to_dict()
    doc["lambda"][key] = 9.0
    assert run(["validate", write_doc(tmp_path, doc)]) == 1
    assert repr(key) in capsys.readouterr().err


TORUS = {"faces": 2, "gluing": [[[0, 0], [1, 1]], [[0, 1], [1, 2]], [[0, 2], [1, 0]]]}
KEYS = [f"{f}.{s}" for f in range(2) for s in range(3)]


@pytest.mark.parametrize(
    "doc",
    [
        {**TORUS, "faces": 2.9},
        {**TORUS, "faces": "2"},
        {**TORUS, "gluing": [[[0, 0], [True, True]], *TORUS["gluing"][1:]]},
        {"triangulation": TORUS, "lambda": {**dict.fromkeys(KEYS, 2.0), "0.0": "2.0"}},
        {"triangulation": TORUS, "w": dict.fromkeys(KEYS, True)},
        {"triangulation": TORUS, "lambda": [2.0] * 6},
    ],
    ids=[
        "float-faces",
        "string-faces",
        "bool-index",
        "string-lambda",
        "bool-weights",
        "list-lambda",
    ],
)
def test_loader_does_not_coerce(tmp_path, doc, capsys):
    # the first five used to load as the valid torus file they resemble;
    # a list for a table raised AttributeError past the CLI's handler
    assert run(["validate", write_doc(tmp_path, doc)]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        ("ab", "malformed gluing entry: 'ab'"),
        ([[0, 0], [1, 1], [2, 2]], "malformed gluing entry: [[0, 0], [1, 1], [2, 2]]"),
        ([[0, 0], 5], "malformed (face, slot) pair: 5"),
        ([[0, 0], [1, True]], "malformed (face, slot) pair: [1, True]"),
        ([[0, 0], [1, -1]], "slot index out of range: [1, -1]"),
        ([[0, 0], [2**70, 1]], f"face index out of range: [{2**70}, 1]"),
    ],
    ids=["string", "three-pairs", "int-pair", "true-slot", "negative-slot", "face-beyond-int64"],
)
def test_malformed_gluing_entry_is_named_as_written(tmp_path, entry, message, capsys):
    # the loader used to unpack and copy each entry before the checks saw
    # it, so these read "malformed (face, slot) pair: ('a',)", "too many
    # values to unpack" and "'int' object is not iterable"
    doc = {**TORUS, "gluing": [entry, *TORUS["gluing"][1:]]}
    path = write_doc(tmp_path, doc)
    assert run(["validate", path]) == 1
    assert capsys.readouterr().err == f"cannot read {path}: {message}\n"


@pytest.mark.parametrize("entry", [{"faces": 2}, [1, 2]], ids=["no-gluing", "list"])
@pytest.mark.parametrize("table", ["lambda", "w"])
def test_inline_triangulation_must_be_a_triangulation(tmp_path, table, entry, capsys):
    # used to read "cannot read FILE: 'gluing'" and "list indices must be
    # integers or slices, not str", naming nothing
    path = write_doc(tmp_path, {"triangulation": entry, table: dict.fromkeys(KEYS, 2.0)})
    assert run(["validate", path]) == 1
    assert capsys.readouterr().err == (
        f'cannot read {path}: "triangulation" entry is neither a file path '
        'nor a dict with "faces" and "gluing"\n'
    )


@pytest.mark.parametrize("cycle", [["a.json"], ["a.json", "b.json"]], ids=["self", "two-cycle"])
@pytest.mark.parametrize("table", ["lambda", "w"])
def test_named_triangulation_cycle_is_not_followed(tmp_path, table, cycle, capsys):
    # a file naming itself, or a -> b -> a, used to recurse through
    # fileio.load until RecursionError escaped the CLI's handler
    for name, target in zip(cycle, cycle[1:] + cycle[:1]):
        doc = {"triangulation": target, table: dict.fromkeys(KEYS, 2.0)}
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    path = str(tmp_path / "a.json")
    message = f"{tmp_path / cycle[1 % len(cycle)]} is not a triangulation file"
    with pytest.raises(ValueError) as exc:
        fileio.load(path)
    assert str(exc.value) == message
    assert run(["validate", path]) == 1
    assert capsys.readouterr().err == f"cannot read {path}: {message}\n"


@pytest.mark.parametrize("kind", ["array", "gluing", "named"])
def test_deeply_nested_json_is_unusable_input(tmp_path, kind):
    # json.load used to let RecursionError escape: a traceback, not exit 1
    deep = "[" * 100000 + "]" * 100000
    tri = tmp_path / "tri.json"
    tri.write_text('{"faces": 2, "gluing": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
    path = {"array": tmp_path / "deep.json", "gluing": tri, "named": tmp_path / "named.json"}[kind]
    if kind == "array":
        path.write_text(deep, encoding="utf-8")
    elif kind == "named":
        doc = {"triangulation": "tri.json", "lambda": dict.fromkeys(KEYS, 2.0)}
        path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_subprocess(["validate", str(path)])
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith(f"cannot read {path}: maximum recursion depth exceeded")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


@pytest.mark.parametrize("text", ["1e400", "-1e400", "Infinity", "NaN"])
def test_nonfinite_lambda_is_named_not_finite(tmp_path, torus, text, capsys):
    # json reads 1e400 as inf; these used to read "must be positive"
    doc = constant_structure(torus, 2.0).to_dict()
    doc["lambda"]["0.0"] = "<value>"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace('"<value>"', text), encoding="utf-8")
    value = float(text)
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"cannot read {path}: lambda at (0, 0) must be finite, got {value}\n"
    )


@pytest.mark.parametrize("table", ["lambda", "w"])
def test_loader_rejects_int_beyond_float_range(tmp_path, table, capsys):
    # used to escape the CLI's handler as OverflowError with a traceback
    doc = {"triangulation": TORUS, table: {**dict.fromkeys(KEYS, 2), "0.0": 10**400}}
    assert run(["validate", write_doc(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot read ") and "'0.0'" in err


def pair_table_doc(table: str, *items, drop=()) -> dict:
    """The torus with every value 2 but at drop, then items (key, value).

    A key of items that is already there keeps its place; others follow.
    """
    values = {k: 2 for k in KEYS if k not in drop}
    values.update(items)
    return {"triangulation": TORUS, table: values}


NAMES_NO_PAIR = 'key {!r} names no "face.slot" pair'

# Every message a pair table loads with.  The checks on keys and values
# name the first bad key in document order; missing, nonpositive and
# nonfinite values name the first such pair in pair order.
LOAD_MESSAGES = {
    "noncanonical-key": (
        pair_table_doc("lambda", ("0.00", 2.0)),
        "lambda " + NAMES_NO_PAIR.format("0.00"),
    ),
    "key-past-last-face": (
        pair_table_doc("w", ("2.0", 1.0)),
        "weight " + NAMES_NO_PAIR.format("2.0"),
    ),
    # in place of a pair's own key, so that the table still holds 3F keys
    **{
        f"{name}-in-place": (
            pair_table_doc("lambda", (key, 2.0), drop=("0.1",)),
            "lambda " + NAMES_NO_PAIR.format(key),
        )
        for name, key in [
            ("leading-zero", "00.1"),
            ("no-slot", "0."),
            ("no-face", ".1"),
            ("slot-3", "1.3"),
            ("full-width-digit", "\uff10.1"),
            ("past-last-face", "2.1"),
            ("two-keys-in-one", "0.1\n0.2"),
            ("face-past-int-digit-limit", "1" + "0" * 5000 + ".1"),
        ]
    },
    "string-value": (
        pair_table_doc("lambda", ("0.1", "2.0")),
        "lambda at '0.1' must be a number, got '2.0'",
    ),
    "bool-value": (
        pair_table_doc("w", ("1.2", True)),
        "weight at '1.2' must be a number, got True",
    ),
    "null-value": (
        pair_table_doc("w", ("0.2", None)),
        "weight at '0.2' must be a number, got None",
    ),
    "int-beyond-float": (
        pair_table_doc("lambda", ("1.1", 10**400)),
        "lambda at '1.1' is too large for a float",
    ),
    "first-bad-key-in-document-order": (
        pair_table_doc("lambda", ("zz", 1.0), ("0.0", "x"), drop=("0.0",)),
        "lambda " + NAMES_NO_PAIR.format("zz"),
    ),
    "bad-value-before-bad-key": (
        pair_table_doc("lambda", ("0.0", "x"), ("zz", 1.0)),
        "lambda at '0.0' must be a number, got 'x'",
    ),
    "missing-pair": (
        pair_table_doc("lambda", drop=("0.1",)),
        "missing lambda for pair (0, 1)",
    ),
    "missing-weight": (
        pair_table_doc("w", drop=("1.2", "1.0")),
        "missing weight for pair (1, 0)",
    ),
    "nonpositive-lambda": (
        pair_table_doc("lambda", ("1.0", 0)),
        "lambda at (1, 0) must be positive, got 0.0",
    ),
    "nonfinite-weight": (
        pair_table_doc("w", ("0.2", math.nan)),
        "weight at (0, 2) must be finite, got nan",
    ),
    "nonpositive-before-missing": (
        pair_table_doc("lambda", ("0.1", -1.0), drop=("0.2",)),
        "lambda at (0, 1) must be positive, got -1.0",
    ),
    "missing-before-nonpositive": (
        pair_table_doc("lambda", ("0.2", -1.0), drop=("0.1",)),
        "missing lambda for pair (0, 1)",
    ),
    "list-table": (
        {"triangulation": TORUS, "lambda": [2.0] * 6},
        "lambda table must map pair keys to values, got [2.0, 2.0, 2.0, 2.0, 2.0, 2.0]",
    ),
}


@pytest.mark.parametrize("doc, message", LOAD_MESSAGES.values(), ids=LOAD_MESSAGES)
def test_load_messages(tmp_path, doc, message, capsys):
    # one ValueError from fileio.load, one line and exit 1 from the CLI
    path = write_doc(tmp_path, doc)
    with pytest.raises(ValueError) as exc:
        fileio.load(path)
    assert str(exc.value) == message
    assert run(["validate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot read {path}: {message}\n"


def test_unknown_pairs_message(torus):
    # a loaded table names its pairs by key, so this one is reached only
    # through a table keyed by pairs
    lam = dict.fromkeys(torus.pairs, 2.0) | {(2, 0): 2.0, (0, 3): 2.0}
    with pytest.raises(ValueError) as exc:
        DecoratedBrokenHyperbolic(torus, lam)
    assert str(exc.value) == "lambdas given for unknown pairs: [(0, 3), (2, 0)]"


@pytest.mark.parametrize("kind", ["structure", "measure"])
def test_validate_reports_positive_zero_residual(tmp_path, torus, kind, capsys):
    # every inequality holds strictly: the residual is 0.0, not -0.0
    if kind == "structure":
        obj, check = constant_structure(torus, 2.0), "face_inequalities"
    else:
        obj = samples.random_measure(torus, samples.rng(1))
        check = "triangle_inequalities"
    path = tmp_path / "valid.json"
    fileio.save(path, obj)
    assert run(["validate", str(path)]) == 0
    checks = {c["name"]: c for c in read_doc(capsys)["report"]["checks"]}
    assert math.copysign(1.0, checks[check]["residual"]) == 1.0


def test_ray_wants_structure_not_triangulation(torus_file):
    assert run(["ray", torus_file]) == 1


def test_forms_report(torus_file, capsys):
    assert run(["forms", torus_file]) == 0
    doc = read_doc(capsys)
    assert doc["pullback_residual"] == 0.0
    assert doc["rank"]["rank"] == 4
    assert doc["rank"]["dim"] == 6


def test_forms_constrained_from_seed(torus_file, capsys):
    assert run(["forms", torus_file, "--constrained", "--seed", "3"]) == 0
    doc = read_doc(capsys)
    assert doc["constrained_rank"]["constrained"] is True
    assert "seed 3" in doc["constrained_at"]


def test_forms_constrained_at_zero_gap(tmp_path, torus, capsys):
    # every gap zero: valid, but the constrained rank is undefined
    path = tmp_path / "flat.json"
    fileio.save(path, constant_structure(torus, math.sqrt(2.0)))
    assert run(["validate", str(path)]) == 0
    capsys.readouterr()
    assert run(["forms", str(path), "--constrained"]) == 0
    doc = read_doc(capsys)
    assert doc["constrained_rank"] is None
    assert doc["rank"]["rank"] == 4


def test_forms_constrained_rejects_lambda_below_sqrt2(tmp_path, torus, capsys):
    # the low lambda sits on the last pair, after the zero gaps
    lam = {p: math.sqrt(2.0) for p in torus.pairs}
    lam[(1, 2)] = 1.3
    path = tmp_path / "below.json"
    fileio.save(path, DecoratedBrokenHyperbolic(torus, lam))
    assert run(["forms", str(path), "--constrained"]) == 2
    assert "InvalidDecoration" in capsys.readouterr().err


def test_forms_block_spectrum_is_exact(torus_file, capsys):
    # on the torus there is no constraint (r = 0), so the constrained
    # restriction is the form itself: rank 2F in both reports, and both
    # floors the same bits, the block's norm 2 sqrt(3)
    assert run(["forms", torus_file, "--constrained"]) == 0
    doc = read_doc(capsys)
    whole, constrained = doc["rank"], doc["constrained_rank"]
    assert constrained["num_constraints"] == 0
    assert whole["rank"] == constrained["rank"] == 4
    floor = whole["singular_value_floor"]
    assert float.hex(floor) == float.hex(constrained["singular_value_floor"])
    assert floor == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)


@pytest.mark.parametrize("scale", [1e100, 1e200])
def test_forms_constrained_at_huge_lambda(tmp_path, sphere, scale, capsys):
    # gaps come from log(lambda), so they stay finite where lambda^2
    # overflows (1e200) and linearize to the same constraints as at 1e100
    path = tmp_path / "huge.json"
    fileio.save(path, embed_unbroken(sphere, [scale, 2 * scale, 1.5 * scale]))
    assert run(["forms", str(path), "--constrained"]) == 0
    constrained = read_doc(capsys)["constrained_rank"]
    assert (constrained["num_constraints"], constrained["rank"]) == (2, 2)


# --- the float range -------------------------------------------------------

# each command's arguments before the file
FLOAT_RANGE_COMMANDS = {
    "validate": ["validate"],
    "ray": ["ray"],
    "forms": ["forms", "--constrained"],
    "develop": ["develop"],
    "holonomy": ["holonomy"],
    "holonomy-basis": ["holonomy", "--loops", "basis"],
}
LIFTED = ("develop", "holonomy", "holonomy-basis")


def float_range_structure(T, scale):
    """Edges (L, 2L, 1.5L) for a large L; every pair at L for a small one."""
    if scale > 1.0:
        return embed_unbroken(T, [scale, 2 * scale, 1.5 * scale])
    return DecoratedBrokenHyperbolic(T, np.full((T.faces, 3), scale))


def float_range_exit(scale, command) -> int:
    """0 in range; past 1e77 a face lift leaves float range; below sqrt(2), 2."""
    if scale < 1.0:
        return 2
    return 4 if scale > 1e77 and command in LIFTED else 0


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def check_float_range_run(scale, command, code, out, err):
    assert code == float_range_exit(scale, command), err
    assert "Traceback" not in err and "Warning" not in err, err
    if out:  # one finite JSON document, or nothing
        assert out == json_text(json.loads(out, parse_constant=reject_constant))
    if code == 4:
        assert out == "" and err.startswith("NumericalBreakdown: ")
    if scale < 1.0 and command in ("ray", "forms"):
        gap = float(err.rsplit("gap ", 1)[1])
        assert err.startswith("InvalidDecoration: ") and math.isfinite(gap)


@pytest.mark.parametrize("command", FLOAT_RANGE_COMMANDS)
@pytest.mark.parametrize("scale", [1e76, 1e155, 1e300, 1e-300, 5e-324])
@pytest.mark.parametrize("surface", ["torus", "sphere"])
def test_float_range(tmp_path, request, surface, scale, command, capsys):
    path = tmp_path / "range.json"
    H = float_range_structure(request.getfixturevalue(surface), scale)
    fileio.save(path, H)
    code = run([*FLOAT_RANGE_COMMANDS[command], str(path)])
    captured = capsys.readouterr()
    check_float_range_run(scale, command, code, captured.out, captured.err)


@pytest.mark.parametrize("scale", [1e76, 1e300, 5e-324])
def test_float_range_by_subprocess(tmp_path, torus, scale):
    path = tmp_path / "range.json"
    fileio.save(path, float_range_structure(torus, scale))
    for command, argv in FLOAT_RANGE_COMMANDS.items():
        done = run_subprocess([*argv, str(path)])
        check_float_range_run(scale, command, done.returncode, done.stdout, done.stderr)


@pytest.mark.parametrize("loops", ["punctures", "basis"])
def test_holonomy_drift_overflow_exits_4(tmp_path, torus, loops, capsys):
    path = tmp_path / "drift.json"
    fileio.save(path, drift_overflow_torus(torus))
    assert run(["validate", str(path)]) == 0
    capsys.readouterr()
    assert run(["holonomy", str(path), "--loops", loops]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("NumericalBreakdown: light-cone drift ")


@pytest.mark.parametrize(
    "command, crossing", [("develop", "(0, 2)"), ("holonomy", "(1, 1)")]
)
def test_crossing_out_of_float_range_exits_4(tmp_path, torus, command, crossing):
    # the crossing coefficients used to overflow with five numpy warnings
    path = tmp_path / "mixed.json"
    fileio.save(path, mixed_scale_torus(torus))
    done = run_subprocess([command, str(path)])
    assert done.returncode == 4
    assert done.stdout == ""
    assert done.stderr == (
        f"NumericalBreakdown: light-cone drift nan crossing {crossing}\n"
    )


def test_validate_measure_near_float_max(tmp_path, torus, capsys):
    # every small weight is 5e307: valid, though two weights sum past the max
    path = tmp_path / "max.json"
    fileio.save(path, BrokenMeasure(torus, np.full((torus.faces, 3), 1e308)))
    assert run(["validate", str(path)]) == 0
    report = read_doc(capsys)["report"]
    assert report["valid"] and all(c["passed"] for c in report["checks"])


def test_forms_impossible_tolerance(torus_file, capsys):
    # forms gates nothing, so it takes no --tol at all
    assert run(["forms", torus_file, "--tol", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "unrecognized arguments: --tol 0" in captured.err


def flag_rejected(capsys, command, flag, need, value) -> bool:
    """Nothing on stdout; stderr is usage and one error line naming the flag."""
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    return (
        captured.out == ""
        and captured.err.startswith("usage: ")
        and errors == [f"brokensurf {command}: error: argument {flag}: "
                       f"needs {need}, got {value!r}"]
    )


def tolerance_rejected(capsys, command, tol) -> bool:
    return flag_rejected(capsys, command, "--tol", "a finite number of at least 0", tol)


STEPS_NEED = "a comma-separated list of positive finite numbers"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9", "tight"])
@pytest.mark.parametrize("command", ["validate", "calibrate", "holonomy"])
def test_tol_must_be_finite_and_nonnegative(torus_file, command, tol, capsys):
    argv = [command] if command == "calibrate" else [command, torus_file]
    assert run([*argv, f"--tol={tol}"]) == 1
    assert tolerance_rejected(capsys, command, tol)


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_nonfinite_tol_passes_no_invalid_file(tmp_path, torus, sphere, tol, capsys):
    # both files fail validation; with --tol nan or inf they used to be
    # reported valid with exit 0
    lam = {p: 2.0 for p in torus.pairs}
    lam[(0, 0)] = 2.9  # face inequality: 2 * 2 < sqrt(2) * 2.9
    face = tmp_path / "face.json"
    fileio.save(face, DecoratedBrokenHyperbolic(torus, lam))
    open_holonomy = tmp_path / "open.json"
    fileio.save(open_holonomy, samples.random_boxed_structure(sphere, samples.rng(3)))
    for path in (face, open_holonomy):
        assert run(["validate", str(path)]) == 2
        capsys.readouterr()
        assert run(["validate", str(path), "--tol", tol]) == 1
        assert tolerance_rejected(capsys, "validate", tol)


def test_zero_tol_is_accepted(tmp_path, torus, capsys):
    path = tmp_path / "torus2.json"
    fileio.save(path, constant_structure(torus, 2.0))
    assert run(["validate", str(path), "--tol", "0"]) == 0
    assert read_doc(capsys)["report"]["valid"] is True


def test_ray_report(structure_file, capsys):
    assert run(["ray", structure_file, "--steps", "1,1000000"]) == 0
    doc = read_doc(capsys)
    sups = [row["sup_distance_to_unit"] for row in doc["steps"]]
    assert sups[1] <= 1e-4
    assert doc["steps"][1]["x"] == 1e-6


def test_ray_rejects_bad_steps(structure_file, capsys):
    # the parser checks --steps, like every other flag
    for steps in ("five", ""):
        assert run(["ray", structure_file, "--steps", steps]) == 1
        assert flag_rejected(capsys, "ray", "--steps", STEPS_NEED, steps)
    assert run(["ray", structure_file, "--steps=-2,4"]) == 1
    assert flag_rejected(capsys, "ray", "--steps", STEPS_NEED, "-2,4")


@pytest.mark.parametrize("steps", ["nan", "inf", "1,inf", "-inf,2"])
def test_ray_rejects_nonfinite_steps(structure_file, steps, capsys):
    # nan and inf used to escape as a ValueError traceback
    assert run(["ray", structure_file, f"--steps={steps}"]) == 1
    assert flag_rejected(capsys, "ray", "--steps", STEPS_NEED, steps)


@pytest.mark.parametrize("steps", ["1e-320", "1,1e-310"])
def test_ray_rejects_steps_whose_weights_overflow(tmp_path, torus, steps, capsys):
    # (n + gap) / n overflows for a subnormal n; it used to escape as a
    # pair_table traceback
    path = tmp_path / "torus2.json"
    fileio.save(path, constant_structure(torus, 2.0))
    assert run(["ray", str(path), f"--steps={steps}"]) == 1
    captured = capsys.readouterr()
    n = steps.split(",")[-1]
    assert captured.out == ""
    assert captured.err == (
        f"(n + gap) / n at n = {n}: weight at (0, 0) must be finite, got inf\n"
    )


def test_develop_with_svg(structure_file, tmp_path, capsys):
    svg_path = tmp_path / "ball.svg"
    assert run(["develop", structure_file, "--depth", "3", "--svg", str(svg_path)]) == 0
    doc = read_doc(capsys)
    assert len(doc["nodes"]) == 3 * 2**3 - 2
    assert doc["max_drift"] <= 1e-10
    svg = svg_path.read_text(encoding="utf-8")
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")


@pytest.mark.parametrize("command", ["develop", "holonomy"])
def test_lift_out_of_float_range_exits_4(tmp_path, torus, command, capsys):
    # valid, so not exit 2; the lift overflows, which used to come back as
    # NaN points and a canonical_json traceback
    path = tmp_path / "huge.json"
    fileio.save(path, embed_unbroken(torus, [1e100, 2e100, 1.5e100]))
    assert run(["validate", str(path)]) == 0
    capsys.readouterr()
    assert run([command, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("NumericalBreakdown: lift of face 0 is not finite")


def test_develop_depth_is_capped(structure_file):
    assert run(["develop", structure_file, "--depth", "9"]) == 1


@pytest.mark.parametrize("base", ["5", "2", "-1"])
def test_develop_rejects_out_of_range_base(structure_file, base, capsys):
    # the torus has faces 0 and 1
    assert run(["develop", structure_file, "--base", base]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--base" in captured.err


def test_develop_rejects_invalid_structure(tmp_path, torus, capsys):
    lam = {p: 2.0 for p in torus.pairs}
    lam[(1, 2)] = 40.0
    path = tmp_path / "bad.json"
    fileio.save(path, DecoratedBrokenHyperbolic(torus, lam))
    assert run(["develop", str(path)]) == 2
    assert read_doc(capsys)["report"]["valid"] is False


def test_calibrate(capsys):
    assert run(["calibrate", "--samples", "200"]) == 0
    doc = read_doc(capsys)
    assert doc["constant"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert doc["spread"] <= 1e-9


@pytest.mark.parametrize("samples", ["0", "-3", "many"])
def test_calibrate_rejects_bad_sample_count(samples, capsys):
    assert run(["calibrate", "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [["calibrate", "--samples", "10"], ["forms", "--constrained"], ["forms"]],
    ids=["calibrate", "forms-constrained", "forms"],
)
def test_seed_must_be_nonnegative(torus_file, argv, capsys):
    # the first two used to escape cli.main as numpy's ValueError; plain
    # forms reads no seed but parses it the same way
    command, *rest = argv
    argv = [command, *([] if command == "calibrate" else [torus_file]), *rest]
    assert run([*argv, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and captured.err.startswith("usage: ")
    assert errors == [f"brokensurf {command}: error: argument --seed: "
                      "needs a nonnegative integer, got '-1'"]


def test_calibrate_is_deterministic(tmp_path):
    # more samples than one block, and a partial last block
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        argv = ["calibrate", "--samples", "5000", "--seed", "3", "--out", str(out)]
        assert run(argv) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    doc = json.loads(texts[0])
    assert doc["samples"] == 5000
    assert abs(doc["constant"] - math.sqrt(2.0)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("count", [1, 2047, 2049, 5000, 20000])
def test_calibrate_keeps_the_row_major_bytes(count, seed, capsys):
    # one corner per lift, solved in columns, against every corner of
    # row-major lifts: the same document byte for byte
    assert run(["calibrate", "--samples", str(count), "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == oracle_calibrate(count, seed)


def test_holonomy_report(structure_file, capsys):
    assert run(["holonomy", structure_file]) == 0
    doc = read_doc(capsys)
    row = doc["punctures"][0]
    assert row["length"] == 6
    assert row["gap_holonomy"] == pytest.approx(1.0, abs=1e-12)
    assert row["cusp_closure_residual"] == pytest.approx(
        abs(math.log(row["lambda_holonomy"])), rel=1e-9
    )
    assert all(l["lorentz_residual"] <= 1e-9 for l in doc["loops"])
    assert all(l["backward_residual"] <= 1e-14 for l in doc["loops"])


@pytest.mark.parametrize("loops", ["punctures", "basis"])
def test_holonomy_rejects_invalid_structure(tmp_path, torus, loops, capsys):
    # zero gaps first, then a lambda below sqrt(2): holonomy must not stop
    # at the zero gaps and report an undefined figure with exit 0
    lam = {p: math.sqrt(2.0) for p in torus.pairs}
    lam[(1, 2)] = 1.3
    path = tmp_path / "below.json"
    fileio.save(path, DecoratedBrokenHyperbolic(torus, lam))
    assert run(["holonomy", str(path), "--loops", loops]) == 2
    doc = read_doc(capsys)
    assert list(doc) == ["report"]
    assert doc["report"]["valid"] is False
    for command in ("validate", "ray", "develop"):
        assert run([command, str(path)]) == 2
    capsys.readouterr()


def per_loop_holonomy_doc(H, loops: str) -> tuple[dict, float]:
    """holonomy's document from the public per-puncture and per-loop calls, and its worst residual."""

    def gap(i):
        try:
            return H.puncture_holonomy(i, "gap")
        except DegenerateEdge:
            return None

    punctures = [
        {
            "puncture": i,
            "length": len(crossed),
            "lambda_holonomy": H.puncture_holonomy(i, "lambda"),
            "gap_holonomy": gap(i),
            "cusp_closure_residual": cusp_closure_residual(H, i),
        }
        for i, crossed in enumerate(H.T.cycle_crossings)
    ]
    rows, worst = [], 0.0
    for crossings in dual_loops(H.T, loops):
        hol = path_holonomy(H, crossings)
        worst = max(worst, hol.lorentz_residual())
        rows.append({
            "crossings": [list(divmod(c, 3)) for c in crossings],
            "scale": hol.scale,
            "lorentz_residual": hol.lorentz_residual(),
            "backward_residual": hol.backward_residual(),
        })
    return {"census": cli._census(H.T), "punctures": punctures, "loops": rows}, worst


@pytest.mark.parametrize("name", ["torus", "sphere", 20, 200])
@pytest.mark.parametrize("kind", ["broken", "unbroken"])
@pytest.mark.parametrize("loops", ["punctures", "basis"])
def test_holonomy_document_is_the_per_loop_calls(request, tmp_path, name, kind, loops, capsys):
    # walking each corner cycle once and finishing the loops as one stack
    # changes no byte of the document and no exit code
    T = random_triangulation(name, name) if isinstance(name, int) else request.getfixturevalue(name)
    make = samples.random_valid_structure if kind == "broken" else samples.random_unbroken
    path = tmp_path / "structure.json"
    fileio.save(path, make(T, samples.rng(18)))
    code = run(["holonomy", str(path), "--loops", loops])
    doc, worst = per_loop_holonomy_doc(fileio.load(path), loops)
    assert capsys.readouterr().out == json_text(doc)
    assert code == (0 if worst <= 1e-9 else 3)


def test_holonomy_basis_loops(structure_file, capsys):
    assert run(["holonomy", structure_file, "--loops", "basis"]) == 0
    doc = read_doc(capsys)
    assert len(doc["loops"]) == 2  # rank of H_1 for a once punctured torus


def test_out_file_instead_of_stdout(torus_file, tmp_path, capsys):
    out = tmp_path / "census.json"
    assert run(["validate", torus_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["census"]["faces"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{file}", "--out", "{bad}"],
        ["calibrate", "--samples", "10", "--out", "{bad}"],
        ["develop", "{file}", "--svg", "{bad}"],
        ["develop", "{file}", "--out", "{bad}"],
    ],
    ids=["validate-out", "calibrate-out", "develop-svg", "develop-out"],
)
def test_unwritable_output_exits_1(structure_file, tmp_path, argv, capsys):
    # used to escape cli.main as FileNotFoundError with a traceback
    bad = str(tmp_path / "missing" / "x")
    assert run([a.format(file=structure_file, bad=bad) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {bad}: ")
    assert captured.err.count("\n") == 1


def test_unknown_command_exits_1():
    assert run(["frobnicate"]) == 1
    assert run([]) == 1


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cached_parser_carries_no_state(structure_file, tmp_path, torus, capsys):
    # one parser serves every call in a process, so no flag, default or
    # error may leak from one call into the next
    svg = tmp_path / "a.svg"
    assert run(["develop", structure_file, "--svg", str(svg)]) == 0
    svg.unlink()
    assert run(["develop", structure_file]) == 0
    assert not svg.exists()
    # within the default tol of 1e-9 only: 2 + 2e-10 > 1 + 1 at face 0
    w = {p: 1.0 for p in torus.pairs}
    w[(0, 0)] = 2.0 + 2e-10
    measure = tmp_path / "measure.json"
    fileio.save(measure, BrokenMeasure(torus, w))
    assert run(["validate", str(measure), "--tol", "0"]) == 2
    assert run(["validate", str(measure)]) == 0
    assert run(["validate", structure_file, "--bogus"]) == 1
    assert run(["validate", structure_file]) == 0
    capsys.readouterr()
