"""Broken hyperbolic structures and broken measured foliations on
punctured surfaces: coordinates, two-forms, and developing maps."""

from .develop import (
    DeckCandidates,
    DevelopedBall,
    DevelopedLift,
    DevelopedNode,
    DevelopedNodes,
    DevelopedPaths,
    PathHolonomy,
    cusp_closure_residual,
    deck_candidates,
    develop,
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
    NumericalBreakdown,
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
    horocycle_arc,
    lambda_pair,
    mform,
    solve_triangle,
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
