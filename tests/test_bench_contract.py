"""What perfbench/ reads of the package, checked without running it."""

import pytest
from conftest import bench_module

from brokensurf import cli, fileio, samples
from brokensurf.develop import DevelopedBall, PathHolonomy, deck_candidates, develop


def test_traced_names_are_where_the_tracer_patches_them():
    # a traced run patches owner.__dict__[attr]; a moved, renamed or
    # inherited name would break only the traced benchmark runs
    targets = [(owner, attr) for _, owner, attr, *_ in bench_module("tracing").Tracer()._targets()]
    assert targets
    for owner, attr in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    # read off results: workloads.py walks ball.nodes, and the traced
    # path_holonomy's callback reads lorentz_residual
    assert "nodes" in DevelopedBall.__dict__
    assert "lorentz_residual" in PathHolonomy.__dict__


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["forms", "--constrained"], ["develop", "--depth", "3"],
     ["holonomy"], ["holonomy", "--loops", "basis"]],
    ids=lambda argv: "-".join(argv),
)
def test_each_document_is_one_canonical_json_call(tmp_path, torus, monkeypatch, capsys, argv):
    # the tracer counts fileio.json_bytes from what fileio.canonical_json
    # returns, so each document's whole text must be one call's result
    path = tmp_path / "torus.json"
    fileio.save(path, samples.random_valid_structure(torus, samples.rng(2)))
    texts, write = [], fileio.canonical_json

    def traced(obj):
        texts.append(write(obj))
        return texts[-1]

    monkeypatch.setattr(fileio, "canonical_json", traced)
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    assert texts == [capsys.readouterr().out]


@pytest.mark.parametrize("name", ["torus", "sphere"])
def test_deck_length_counts_base_repeats(request, name):
    # workloads.ball_call takes len() of deck_candidates' result and
    # checks it against the base face's repeats after the root
    H = samples.random_valid_structure(request.getfixturevalue(name), samples.rng(3))
    for depth in (0, 1, 4, 8):
        ball = develop(H, 0, depth)
        repeats = sum(1 for n in ball.nodes[1:] if n.face == ball.base)
        assert len(deck_candidates(H, ball)) == repeats
