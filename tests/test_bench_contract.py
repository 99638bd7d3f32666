"""What perfbench/ reads of the package, checked without running it."""

from conftest import bench_module

from brokensurf.develop import DevelopedBall, PathHolonomy


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
