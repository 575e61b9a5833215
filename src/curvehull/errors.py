"""Exception types shared across the package.

GateError subclasses signal that an input curve failed one of the validity
gates (planarity, vertex count, convexity, degeneracy). The CLI maps these
to exit code 1; I/O and parse problems map to exit code 2.
"""


class CurveHullError(Exception):
    """Base class for all package-specific errors."""


class GateError(CurveHullError):
    """A validity gate rejected the input curve."""

    #: short machine-readable gate name, set by subclasses
    gate = "unknown"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class PlanarCurveError(GateError):
    """Curve (or point set) is planar where a genuinely 3D one is required."""

    gate = "planarity"


class NonPlanarCurveError(GateError):
    """Curve is not planar where a planar one is required (area path)."""

    gate = "planarity"


class VertexCountError(GateError):
    """Torsion sign-change count differs from the required four."""

    gate = "vertex_count"


class NonConvexCurveError(GateError):
    """Some sample points are not extreme points of the hull."""

    gate = "convexity"


class DegenerateCurveError(GateError):
    """Curve collapses below resolvable scale (zero length, repeated points)."""

    gate = "degenerate"


class NotClosedError(GateError):
    """Endpoints of the parameterized curve do not meet within tolerance."""

    gate = "closure"
