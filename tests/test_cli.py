import json
import math

import numpy as np
import pytest

from brokensurf import cli, fileio, samples
from brokensurf.errors import DegenerateEdge
from brokensurf.foliation import BrokenMeasure
from brokensurf.hyperbolic import DecoratedBrokenHyperbolic, constant_structure


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
    assert out == fileio.canonical_json(doc)
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


def test_validate_agrees_with_gap_near_sqrt2(tmp_path, torus, capsys):
    # just below sqrt(2) beyond GAP_FLOOR: gap() raises, so validate must fail
    below = tmp_path / "below.json"
    fileio.save(below, constant_structure(torus, math.sqrt(2) * (1 - 1e-10)))
    assert run(["validate", str(below)]) == 2
    checks = {c["name"]: c for c in read_doc(capsys)["report"]["checks"]}
    assert checks["gaps_nonnegative"]["passed"] is False
    # within GAP_FLOOR: gap() clamps to zero, so every command accepts it
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


def test_forms_impossible_tolerance(torus_file, capsys):
    assert run(["forms", torus_file, "--tol=-1"]) == 3
    capsys.readouterr()


def test_ray_report(structure_file, capsys):
    assert run(["ray", structure_file, "--steps", "1,1000000"]) == 0
    doc = read_doc(capsys)
    sups = [row["sup_distance_to_unit"] for row in doc["steps"]]
    assert sups[1] <= 1e-4
    assert doc["steps"][1]["x"] == 1e-6


def test_ray_rejects_bad_steps(structure_file):
    assert run(["ray", structure_file, "--steps", "five"]) == 1
    assert run(["ray", structure_file, "--steps=-2,4"]) == 1
    assert run(["ray", structure_file, "--steps", ""]) == 1


def test_develop_with_svg(structure_file, tmp_path, capsys):
    svg_path = tmp_path / "ball.svg"
    assert run(["develop", structure_file, "--depth", "3", "--svg", str(svg_path)]) == 0
    doc = read_doc(capsys)
    assert len(doc["nodes"]) == 3 * 2**3 - 2
    assert doc["max_drift"] <= 1e-10
    svg = svg_path.read_text(encoding="utf-8")
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")


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


def test_unknown_command_exits_1():
    assert run(["frobnicate"]) == 1
    assert run([]) == 1
