"""Convex hull volume of closed space curves with four torsion sign changes.

The central identity: sample the curve uniformly in arc length, form the
signed volume V_ij of the tetrahedron spanned by edge i, the chord from
sample i to sample j, and edge j, and sum |V_ij| over all ordered pairs.
Dividing by the covering multiplicity (4 for convex curves whose torsion
changes sign exactly four times) recovers the hull volume. The package also
ships the hypothesis checks that make the division valid (torsion sign
counting, convexity, planarity), an independent quickhull-based oracle, and
diagnostics for the chord-covering structure.
"""

from .curves import (
    AnalyticCurve,
    ConvexityResult,
    FrenetProfile,
    PlanarityResult,
    SampledCurve,
    VertexReport,
    count_vertices,
    discrete_frenet_profile,
    frenet_profile,
    is_convex_curve,
    piecewise_linear,
    planarity_check,
    sample_uniform,
)
from .errors import (
    CurveHullError,
    DegenerateCurveError,
    GateError,
    NonConvexCurveError,
    NonPlanarCurveError,
    NotClosedError,
    OutsideHullError,
    PlanarCurveError,
    VertexCountError,
)
from .hull import (
    Containment,
    HullMesh,
    InequalityReport,
    SupportPolygonReport,
    build_hull,
    contains,
    four_vertex_inequality_report,
    mesh_volume,
    richardson_volume,
    save_obj,
    signed_distance,
    support_polygons,
)
from .quadrature import (
    PairClassification,
    VolumeResult,
    classify_adjacent_pair,
    classify_pairs,
    covering_histogram,
    estimate_covering_multiplicity,
    hull_volume,
    planar_area_integral,
    signed_tetra_volume,
    tetra_volume_matrix,
    triple_product,
)
from . import gallery

__version__ = "0.1.0"

__all__ = [
    "AnalyticCurve",
    "SampledCurve",
    "FrenetProfile",
    "VertexReport",
    "PlanarityResult",
    "ConvexityResult",
    "sample_uniform",
    "piecewise_linear",
    "frenet_profile",
    "discrete_frenet_profile",
    "count_vertices",
    "planarity_check",
    "is_convex_curve",
    "HullMesh",
    "Containment",
    "SupportPolygonReport",
    "InequalityReport",
    "build_hull",
    "mesh_volume",
    "richardson_volume",
    "contains",
    "signed_distance",
    "support_polygons",
    "four_vertex_inequality_report",
    "save_obj",
    "VolumeResult",
    "PairClassification",
    "triple_product",
    "signed_tetra_volume",
    "tetra_volume_matrix",
    "hull_volume",
    "classify_adjacent_pair",
    "classify_pairs",
    "estimate_covering_multiplicity",
    "covering_histogram",
    "planar_area_integral",
    "gallery",
    "CurveHullError",
    "GateError",
    "PlanarCurveError",
    "NonPlanarCurveError",
    "VertexCountError",
    "NonConvexCurveError",
    "DegenerateCurveError",
    "NotClosedError",
    "OutsideHullError",
    "__version__",
]
