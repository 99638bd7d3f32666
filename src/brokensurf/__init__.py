"""Broken hyperbolic structures and broken measured foliations on
punctured surfaces: coordinates, two-forms, and developing maps."""

from .develop import (
    DevelopedBall,
    DevelopedNode,
    PathHolonomy,
    cusp_closure_residual,
    deck_candidates,
    develop,
    develop_along,
    path_holonomy,
    tile_separation,
)
from .errors import (
    ChartMismatch,
    CollinearRays,
    DegenerateEdge,
    DegeneratePair,
    DegenerateRays,
    Disconnected,
    GeometryError,
    InvalidDecoration,
    NonOrientable,
    NoRealSolution,
    OpenPath,
    SlotReused,
    SlotUnglued,
    TriangleInequalityViolated,
)
from .foliation import (
    BrokenMeasure,
    CollarSplit,
    from_small_weights,
    puncture_loop_vector,
    split_collars,
)
from .forms import (
    RankReport,
    TwoForm,
    from_measure,
    pullback_residual,
    rank_report,
    ray_measure,
    scale_lambdas,
    scaled_image,
    scaling_identity_residual,
    thurston_form,
    to_measure,
    unbroken_rank_report,
    wp_form,
)
from .hyperbolic import (
    DecoratedBrokenHyperbolic,
    ValidityReport,
    constant_structure,
    embed_unbroken,
)
from .minkowski import (
    extend_across,
    hlengths,
    horocycle_arc,
    horocycle_arcs,
    lambda_pair,
    mform,
    solve_triangle,
    solve_triangles,
    tangency_point,
)
from .triangulation import (
    IdealTriangulation,
    build_triangulation,
    dual_loops,
    sphere_fixture,
    torus_fixture,
    unfold_ball,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
