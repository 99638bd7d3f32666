"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for structural and numerical failures."""


class SlotReused(GeometryError):
    """A (face, slot) appears in more than one gluing pair."""


class SlotUnglued(GeometryError):
    """A (face, slot) is missing from the gluing."""


class NonOrientable(GeometryError):
    """A slot is glued to itself, which flips the edge orientation."""


class Disconnected(GeometryError):
    """The face adjacency graph is not connected."""


class OpenPath(GeometryError):
    """A supposed loop in the dual graph does not close up."""


class InvalidDecoration(GeometryError):
    """A lambda value is below sqrt(2), so the horocycle gap is negative."""


class DegenerateEdge(GeometryError):
    """A zero gap leaves a ratio or holonomy across its edge undefined."""


class TriangleInequalityViolated(GeometryError):
    """A face's weights admit a negative small weight."""


class ChartMismatch(GeometryError):
    """A two-form met vectors or a structure from another chart."""


class CollinearRays(GeometryError):
    """Two light-cone rays coincide, so their pairing vanishes."""


class DegenerateRays(GeometryError):
    """Three rays fail to span, so no triangle lift exists."""


class DegeneratePair(GeometryError):
    """Two light-cone points are too close to span an edge plane."""


class NoRealSolution(GeometryError):
    """The quadratic for a third vertex has no real root.

    Unreachable for independent upper-null inputs with positive lambdas
    (the complement of their span is spacelike); kept for degenerate data.
    """


class NumericalBreakdown(GeometryError):
    """Valid input whose computation left float range or lost its accuracy.

    Raised instead of returning non-finite or off-cone numbers; the CLI
    reports it with its own exit code, never as invalid input.
    """


class MatrixTooLarge(NumericalBreakdown):
    """Valid input whose dense matrix would pass the stated size limit.

    Raised before the matrix is allocated, in place of a MemoryError.
    """
