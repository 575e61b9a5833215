"""Curve model: parameterized closed space curves, uniform arc-length sampling,
Frenet data (curvature/torsion), torsion sign-change counting, planarity and
convexity checks, and the require_* gates that refuse a curve failing the
volume formula's hypotheses.

Curves come in two flavors. An AnalyticCurve wraps a position callback (and
optionally exact derivative callbacks) over a parameter interval [0, T].
A SampledCurve is a closed polygonal loop of points, normally produced by
sample_uniform so that edges are nearly equal in arc length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateCurveError,
    NonConvexCurveError,
    NotClosedError,
    PlanarCurveError,
    VertexCountError,
)

# relative tolerances, all scaled by a curve-intrinsic length
CLOSURE_RTOL = 1e-6          # |r(0) - r(T)| vs total length
PLANARITY_RTOL = 1e-9        # plane deviation vs total length
COINCIDENT_RTOL = 1e-12      # two points coincide: distance vs max |coordinate|
TAU_HYSTERESIS_RTOL = 1e-7   # torsion sign hysteresis vs max |tau|
PLANAR_TAU_FLOOR = 1e-9      # max|tau| vs max kappa, below which torsion is noise
ARC_TABLE_CHORDS = 20        # arc-length table chords per sample in sample_uniform
MIN_PROFILE_SAMPLES = 64     # shortest profile count_vertices counts on
FOUR_VERTICES = 4            # torsion sign changes the volume formula assumes
_CROSS_DEGENERATE_RTOL = 1e-10  # |r' x r''| floor vs its max, for torsion
_FORCE_HINT = "rerun with --force (force=True in hull_volume) to compute anyway"


def as_point_array(points) -> np.ndarray:
    """Coerce input to a contiguous (n, 3) float64 array of finite points."""
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point array contains non-finite values")
    return arr


@dataclass(eq=False)
class AnalyticCurve:
    """A parameterized space curve r(t) on [0, period].

    position must accept a scalar or 1-d array of parameters and return the
    corresponding points, shape (3,) or (n, 3). d1/d2/d3 are optional exact
    derivative callbacks with the same calling convention; frenet_profile
    needs all three.
    """

    position: Callable[[np.ndarray], np.ndarray]
    period: float
    d1: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d3: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be positive and finite, got {self.period}")

    def __call__(self, t):
        return np.asarray(self.position(np.asarray(t, dtype=np.float64)), dtype=np.float64)

    @property
    def has_derivatives(self) -> bool:
        return self.d1 is not None and self.d2 is not None and self.d3 is not None


@dataclass(eq=False)
class SampledCurve:
    """A closed polygonal loop: n points and its total (chord) length.

    Edge i joins points[i] to points[(i + 1) % n].
    """

    points: np.ndarray
    total_length: float

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def from_points(cls, points) -> "SampledCurve":
        """Build a closed loop from raw points (implicitly closed, first after last)."""
        pts = as_point_array(points)
        if len(pts) < 3:
            raise DegenerateCurveError(
                f"need at least 3 points for a closed loop, got {len(pts)}",
                n=len(pts),
            )
        seg = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        scale = float(np.max(np.abs(pts))) or 1.0
        if np.min(seg) <= COINCIDENT_RTOL * scale:
            raise DegenerateCurveError(
                "consecutive points coincide (zero-length edge)",
                edge=int(np.argmin(seg)),
            )
        # the running sum's last entry, not seg.sum(): pairwise summation rounds differently
        return cls(points=pts, total_length=float(np.cumsum(seg)[-1]))


def sample_uniform(curve: AnalyticCurve, n: int) -> SampledCurve:
    """Sample a closed analytic curve at n points uniformly spaced in arc length.

    The arc-length function is tabulated on a fine grid (ARC_TABLE_CHORDS * n
    chords) and inverted by monotone interpolation, so edge lengths agree to high
    relative accuracy for smooth curves. Raises NotClosedError unless the
    endpoints meet within CLOSURE_RTOL of the total length.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 samples, got {n}")
    tf = np.linspace(0.0, curve.period, ARC_TABLE_CHORDS * n + 1)
    pf = curve(tf)
    seg = np.linalg.norm(np.diff(pf, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])
    if not np.isfinite(total) or total <= 1e-12:
        raise DegenerateCurveError("curve has (near) zero length", length=total)
    gap = float(np.linalg.norm(pf[0] - pf[-1]))
    if gap > CLOSURE_RTOL * total:
        raise NotClosedError(
            f"curve endpoints differ by {gap:.3g} (> {CLOSURE_RTOL:g} of length {total:.6g})",
            gap=gap,
            length=total,
        )
    targets = np.arange(n) * (total / n)
    tt = np.interp(targets, cum, tf)
    return SampledCurve.from_points(curve(tt))


# ----------------------------------------------------------------------------
# Frenet data


@dataclass(eq=False)
class FrenetProfile:
    """Curvature and torsion sampled along a curve.

    params holds the parameter (or arc length) of each sample; tau is 0
    where |r' x r''| was too small to define torsion.
    """

    params: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray

    @property
    def n(self) -> int:
        return len(self.params)


def _frenet_from_derivatives(params, v1, v2, v3) -> FrenetProfile:
    cr = np.cross(v1, v2)
    cr_norm = np.linalg.norm(cr, axis=1)
    speed = np.linalg.norm(v1, axis=1)
    if np.min(speed) <= 0.0:
        raise DegenerateCurveError("zero speed sample, curve is not regular")
    kappa = cr_norm / speed**3
    floor = _CROSS_DEGENERATE_RTOL * float(np.max(cr_norm))
    degenerate = cr_norm <= floor
    det = np.einsum("ij,ij->i", cr, v3)
    denom = np.where(degenerate, 1.0, cr_norm**2)
    tau = np.where(degenerate, 0.0, det / denom)
    return FrenetProfile(params=params, kappa=kappa, tau=tau)


def frenet_profile(curve: AnalyticCurve, n: int) -> FrenetProfile:
    """Sample curvature and torsion at n uniform parameter values.

    kappa = |r' x r''| / |r'|^3 and tau = [r', r'', r'''] / |r' x r''|^2, from
    the curve's exact derivative callbacks. A curve without them raises
    ValueError; discrete_frenet_profile takes the torsion of sampled points.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 samples, got {n}")
    if not curve.has_derivatives:
        raise ValueError("curve has no exact derivatives; use discrete_frenet_profile")
    t = np.arange(n) * (curve.period / n)
    v1 = np.asarray(curve.d1(t), dtype=np.float64)
    v2 = np.asarray(curve.d2(t), dtype=np.float64)
    v3 = np.asarray(curve.d3(t), dtype=np.float64)
    return _frenet_from_derivatives(t, v1, v2, v3)


def discrete_frenet_profile(curve: SampledCurve) -> FrenetProfile:
    """Frenet data from a uniformly sampled loop, by cyclic central differences.

    Treats the samples as equally spaced in arc length with step
    h = total_length / n. Accuracy is fourth order in h for points lying on a
    smooth curve. params holds arc-length values i * h. No gate reads it, as
    third differences amplify rounding by about h^-3; it is kept only because
    perfbench/spans.py wraps it by name.
    """
    p = curve.points
    n = len(p)
    if n < 8:
        raise ValueError(f"need n >= 8 samples for the cyclic stencils, got {n}")
    h = curve.total_length / n
    f = {k: np.roll(p, -k, axis=0) for k in range(-3, 4)}
    v1 = (f[-2] - 8 * f[-1] + 8 * f[1] - f[2]) / (12 * h)
    v2 = (-f[-2] + 16 * f[-1] - 30 * f[0] + 16 * f[1] - f[2]) / (12 * h**2)
    v3 = (f[-3] - 8 * f[-2] + 13 * f[-1] - 13 * f[1] + 8 * f[2] - f[3]) / (8 * h**3)
    params = np.arange(n) * h
    return _frenet_from_derivatives(params, v1, v2, v3)


# ----------------------------------------------------------------------------
# Torsion sign changes ("vertices" of the curve)


@dataclass(eq=False)
class VertexReport:
    """Result of counting torsion sign changes around a closed curve."""

    vertex_count: int
    vertex_params: list
    is_planar: bool
    min_kappa: float
    max_abs_tau: float


def count_vertices(profile: FrenetProfile) -> VertexReport:
    """Count sign changes of torsion around the loop, with hysteresis.

    A sample participates only if |tau| exceeds TAU_HYSTERESIS_RTOL times the
    profile's max |tau|; transitions are counted between consecutive
    participating samples (cyclically), so noise wiggle near a zero cannot
    register. If max |tau| is below PLANAR_TAU_FLOOR times max curvature the
    curve is reported planar and no count is attempted.

    Requires a reasonably dense profile (n >= MIN_PROFILE_SAMPLES).
    """
    if profile.n < MIN_PROFILE_SAMPLES:
        raise ValueError(f"need a profile with >= {MIN_PROFILE_SAMPLES} samples, got {profile.n}")
    tau = profile.tau
    max_tau = float(np.max(np.abs(tau)))
    is_planar = max_tau < PLANAR_TAU_FLOOR * float(np.max(profile.kappa))
    params = []
    if not is_planar:
        eps = TAU_HYSTERESIS_RTOL * max_tau
        idx = np.flatnonzero(np.abs(tau) > eps)
        signs = np.sign(tau[idx])
        flips = np.flatnonzero(signs != np.roll(signs, -1))
        period = float(profile.params[-1] + (profile.params[1] - profile.params[0]))
        for k in flips:
            a = idx[k]
            b = idx[(k + 1) % len(idx)]
            ta, tb = profile.params[a], profile.params[b]
            if b < a:  # transition wraps past the end of the parameter interval
                tb = tb + period
            frac = tau[a] / (tau[a] - tau[b])
            params.append(float(ta + frac * (tb - ta)) % period)
    return VertexReport(
        vertex_count=len(params),
        vertex_params=sorted(params),
        is_planar=is_planar,
        min_kappa=float(np.min(profile.kappa)),
        max_abs_tau=max_tau,
    )


def require_vertex_count(report):
    """Vertex-count gate of the volume formula: report, unless it refuses.

    Raises VertexCountError when report.vertex_count is not FOUR_VERTICES;
    a planar loop counts 0, but hull_volume runs require_nonplanar first.
    """
    if report.vertex_count != FOUR_VERTICES:
        raise VertexCountError(
            f"torsion changes sign {report.vertex_count} times, expected "
            f"{FOUR_VERTICES}; {_FORCE_HINT}",
            vertex_count=report.vertex_count,
        )
    return report


# ----------------------------------------------------------------------------
# Planarity and convex position


@dataclass(eq=False)
class PlanarityResult:
    """The plane deviation of a loop; as_dict leaves out is_planar, which
    every report that prints the deviation would print with one value."""

    is_planar: bool
    max_deviation: float
    rel_deviation: float

    def as_dict(self) -> dict:
        return {"max_deviation": self.max_deviation, "rel_deviation": self.rel_deviation}


def plane_deviation(points: np.ndarray) -> float:
    """Largest distance of the points from their least-squares plane, whose
    normal is the least singular vector of the centered point cloud."""
    if len(points) < 4:
        return 0.0  # three points always lie in a plane
    centroid = points.mean(axis=0)
    vt = np.linalg.svd(points - centroid, full_matrices=False)[2]
    return float(np.max(np.abs((points - centroid) @ vt[-1])))


def planarity_check(curve: SampledCurve) -> PlanarityResult:
    """Fit the best plane through the samples and measure the worst deviation.

    Planar means plane_deviation below PLANARITY_RTOL times the loop length.
    """
    dev = plane_deviation(curve.points)
    rel = dev / curve.total_length
    return PlanarityResult(
        is_planar=rel < PLANARITY_RTOL,
        max_deviation=dev,
        rel_deviation=rel,
    )


def require_nonplanar(curve: SampledCurve) -> PlanarityResult:
    """Planarity gate of the volume formula: the check, unless it refuses.

    Raises PlanarCurveError when the loop lies in a plane, whose hull has
    zero volume.
    """
    flat = planarity_check(curve)
    if flat.is_planar:
        raise PlanarCurveError(
            "curve is planar, its hull has zero volume; use the `area` command",
            rel_deviation=flat.rel_deviation,
        )
    return flat


def is_convex_curve(curve: SampledCurve):
    """The validated HullMesh of the samples, whose is_convex says whether
    every sample is an extreme point of it and every polygon edge lies in
    its boundary.

    A sample that is not a hull vertex still counts as extreme if it lies
    within the hull tolerance of the boundary (collinear or coplanar runs);
    only points buried strictly inside are flagged (HullMesh.buried). A
    polygon edge that is no hull edge is flagged when its midpoint lies
    strictly inside (HullMesh.interior_edges): the edge then passes through
    the hull, though both its ends may be hull vertices. A planar loop has
    no 3-d hull and raises PlanarCurveError (require_nonplanar).
    """
    from . import hull as _hull  # local import: hull imports this module

    require_nonplanar(curve)
    return _hull.build_hull(curve.points)


def require_convex(curve: SampledCurve):
    """Convexity gate of the volume formula: the hull, unless it refuses.

    Raises NonConvexCurveError when some sample is buried inside the hull
    or some polygon edge (i, i + 1) passes through it.
    """
    mesh = is_convex_curve(curve)
    if not mesh.is_convex:
        shown, edges = mesh.buried[:10].tolist(), mesh.interior_edges[:10].tolist()
        raise NonConvexCurveError(
            f"{len(mesh.buried)} of {curve.n} samples are not extreme points "
            f"of the hull (first indices: {shown}) and {len(mesh.interior_edges)} of "
            f"{curve.n} polygon edges (i, i + 1) pass through it (first i: {edges}); "
            "the volume formula assumes a convex curve",
            non_extreme_count=len(mesh.buried),
            non_extreme_head=shown,
            interior_edge_count=len(mesh.interior_edges),
            interior_edge_head=edges,
        )
    return mesh

