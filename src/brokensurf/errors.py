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
    """A two-form was evaluated against vectors from the wrong chart."""


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
