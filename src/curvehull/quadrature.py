"""Volume of the convex hull of a closed space curve by double summation.

For a uniformly sampled loop the hull volume is recovered as

    volume = (1 / 4) * sum over ordered pairs (i, j) of |V_ij|,

where V_ij is the signed volume of the tetrahedron spanned by edge i, the
chord from sample i to sample j, and edge j, and 4 is the paper's covering
multiplicity of the chord map, proved for convex loops with exactly four
torsion sign changes. The same V_ij signs classify adjacent chord pairs as
interior or boundary, and chord counting near a probe point estimates the
multiplicity directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hull as _hull
from .curves import (
    SampledCurve,
    discrete_vertex_report,
    planarity_check,
    require_nonplanar,
    require_vertex_count,
)
from .errors import (
    ChordSearchError,
    NonPlanarCurveError,
    OutsideHullError,
)

COVERING_MULTIPLICITY = 4  # the paper's divisor: chords cover the hull 4 times
DEGENERACY_RTOL = 1e-14   # |V_ij| floor vs L^3 for sign classification
CHORD_TOL_FACTOR = 2.0    # chord hit tolerance delta = factor * L / n
CLUSTER_GAP = 3           # max cyclic index gap within one chord cluster
PROBE_MARGIN_RTOL = 0.01  # min probe clearance vs loop length in covering_histogram
_CHUNK_ROWS = 128         # row block size for the double sum and chord search
_SCREEN_SLACK = 1e-9      # rounding allowance of the angular chord screen


def triple_product(a, b, c):
    """Scalar triple product [a, b, c] = (a x b) . c, broadcasting over rows."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    r = np.einsum("...i,...i->...", np.cross(a, b), c)
    return float(r) if r.ndim == 0 else r


def signed_tetra_volume(curve: SampledCurve, i: int, j: int) -> float:
    """Signed volume V_ij of the tetra on edge i, chord (i, j), and edge j:
    (1/6) [r_{i+1} - r_i, r_j - r_i, r_{j+1} - r_i]."""
    r = curve.points
    n = len(r)
    ri, ri1 = r[i % n], r[(i + 1) % n]
    rj, rj1 = r[j % n], r[(j + 1) % n]
    return triple_product(ri1 - ri, rj - ri, rj1 - ri) / 6.0


def _tetra_factors(points: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """Rank-6 factors A (len(rows), 6) and B^T (6, len(cols)) with 6 V = A B^T.

    Expanding the determinant with E the edge vectors gives
    6 V_ij = E_i . (r_j x E_j) - (E_i x r_i) . E_j, so with C = r x E
    (and E x r = -C exactly) A = [E, C] and B = [C, E]. Only the edges in
    rows and cols are evaluated, so a small grid costs no O(n) work.
    """
    idx = np.concatenate([rows, cols])
    r = points[idx]
    e = points[(idx + 1) % len(points)] - r
    c = np.cross(r, e)
    k = len(rows)
    return np.hstack([e[:k], c[:k]]), np.vstack([c[k:].T, e[k:].T])


def tetra_volume_matrix(
    curve: SampledCurve,
    rows: Optional[np.ndarray] = None,
    cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Signed tetra volumes V_ij for i in rows and j in cols (default: all).

    Uses the rank-6 factorisation 6 V = A B^T, A = [E, r x E] and
    B = [r x E, E] with E the edge vectors, the same factors the double sum
    uses: the result is A[rows] @ B^T[:, cols] / 6. V is symmetric, because
    swapping the two edges is an even permutation of the tetra's four
    points, and its diagonal is zero up to rounding. Index arrays read a
    sub-grid without building the n x n matrix.
    """
    every = np.arange(curve.n)
    rows = every if rows is None else np.asarray(rows)
    cols = every if cols is None else np.asarray(cols)
    a, bt = _tetra_factors(curve.points, rows, cols)
    return (a @ bt) / 6.0


def _tree_sum(parts) -> float:
    """Fold partial sums pairwise in fixed order (deterministic reduction)."""
    vals = list(parts)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[k] + vals[k + 1] for k in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def _upper_blocks(left: np.ndarray, right: np.ndarray, below: float):
    """Yield (s, left[s:t] @ right[:, s:]) for row blocks s:t of _CHUNK_ROWS rows.

    Block entry (r, c) is pair (s + r, s + c); the diagonal and lower triangle
    are set to below. All blocks share one _CHUNK_ROWS x n buffer, so memory
    is O(n) and a block is valid only until the next one is yielded.
    """
    n = len(left)
    lower = np.tri(_CHUNK_ROWS, dtype=bool)  # diagonal and below
    buf = np.empty(min(_CHUNK_ROWS, n) * n)
    for s in range(0, n, _CHUNK_ROWS):
        t = min(s + _CHUNK_ROWS, n)
        # a contiguous view, so that matmul writes into buf without a temporary
        blk = buf[: (t - s) * (n - s)].reshape(t - s, n - s)
        np.matmul(left[s:t], right[:, s:], out=blk)
        np.copyto(blk[:, : t - s], below, where=lower[: t - s, : t - s])
        yield s, blk


def _abs_double_sum(points: np.ndarray) -> float:
    """sum over all ordered pairs (i, j) of |V_ij|, in O(n) memory.

    With the factors of tetra_volume_matrix, 6 V = A B^T. V_ij = V_ji
    (swapping the two edges is an even permutation of the tetra's four
    points) and V_ii = 0, so the sum is twice the sum over i < j: the
    _upper_blocks of A B^T, with the diagonal and lower triangle zeroed,
    made absolute in place and summed one block at a time.

    The block layout and the pairwise combination tree of _tree_sum depend
    only on n, so the bits do not depend on the BLAS thread count.
    """
    n = len(points)
    a, bt = _tetra_factors(points, np.arange(n), np.arange(n))
    parts = [float(np.abs(blk, out=blk).sum()) for _, blk in _upper_blocks(a, bt, 0.0)]
    return 2.0 * _tree_sum(parts) / 6.0


@dataclass(eq=False)
class VolumeResult:
    """Outcome of the double-sum volume evaluation."""

    volume: float
    n: int
    error_estimate: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "volume": self.volume,
            "n": self.n,
            "multiplicity_m": COVERING_MULTIPLICITY,
            "error_estimate": self.error_estimate,
        }


def hull_volume(
    curve: SampledCurve, force: bool = False, with_error_estimate: bool = False
) -> VolumeResult:
    """Hull volume of a closed loop: (1/4) times the absolute double sum.

    The 1/4 holds for convex loops with four torsion sign changes, so the
    gates of the curves module run first: planar input is refused
    (require_nonplanar), and so is a loop whose own points do not show four
    sign changes (discrete_vertex_report, require_vertex_count) unless
    force=True skips that gate; the number returned then rests on an
    unverified hypothesis. Convexity is not checked here; require_convex
    does that.

    with_error_estimate=True also evaluates the sum on every second sample
    and reports |V(n) - V(n/2)| as a resolution error proxy; it is None for
    odd n and for n below 8.
    """
    require_nonplanar(curve)
    if not force:
        require_vertex_count(discrete_vertex_report(curve))
    vol = _abs_double_sum(curve.points) / COVERING_MULTIPLICITY
    est = None
    if with_error_estimate and curve.n >= 8 and curve.n % 2 == 0:
        half = _abs_double_sum(curve.points[::2]) / COVERING_MULTIPLICITY
        est = abs(vol - half)
    return VolumeResult(volume=vol, n=curve.n, error_estimate=est)


# ----------------------------------------------------------------------------
# Sign classification of adjacent chord pairs


@dataclass(eq=False)
class PairClassification:
    """How chord (i, j) relates to chord (i+1, j), by tetra volume signs.

    Equal signs mean the triangle {r_{i+1}, r_j, r_{j+1}} is crossed twice or
    not at all (interior pair); opposite signs mean it lies on the hull
    boundary and triangle gives its sample indices. Volumes below
    DEGENERACY_RTOL * L^3 are degenerate: no sign is trusted.
    """

    label: str  # "interior" | "boundary" | "degenerate"
    v_first: float
    v_second: float
    triangle: Optional[tuple]


def classify_pairs(curve: SampledCurve, rows, cols) -> tuple:
    """Label the sign flip between V_ij and V_{i+1,j} for i in rows, j in cols.

    Returns (labels, V_ij, V_{i+1,j}), each of shape (len(rows), len(cols));
    labels holds "interior", "boundary" or "degenerate" by the rule of
    PairClassification. Both volume grids come from one tetra_volume_matrix call.
    """
    rows = np.asarray(rows)
    v = tetra_volume_matrix(curve, rows=np.concatenate([rows, (rows + 1) % curve.n]), cols=cols)
    v1, v2 = v[: len(rows)], v[len(rows) :]
    floor = DEGENERACY_RTOL * curve.total_length**3
    degenerate = (np.abs(v1) <= floor) | (np.abs(v2) <= floor)
    labels = np.where((v1 > 0) == (v2 > 0), "interior", "boundary")
    return np.where(degenerate, "degenerate", labels), v1, v2


def classify_adjacent_pair(curve: SampledCurve, i: int, j: int) -> PairClassification:
    """Classify the sign flip between V_ij and V_{i+1,j}: classify_pairs on one pair."""
    n = curve.n
    labels, v1, v2 = classify_pairs(curve, [i % n], [j % n])
    label = str(labels[0, 0])
    tri = ((i + 1) % n, j % n, (j + 1) % n) if label == "boundary" else None
    return PairClassification(label, float(v1[0, 0]), float(v2[0, 0]), tri)


# ----------------------------------------------------------------------------
# Covering multiplicity by chord counting


def _near_chords(points: np.ndarray, p: np.ndarray, delta: float) -> tuple:
    """Index arrays (i, j), i < j, of the chords within delta of p.

    An exact two-stage search in O(_CHUNK_ROWS * n) extra memory. With
    q_k = r_k - p, u_k = q_k / |q_k| and d_min = min |q_k| > delta, a chord
    passing within delta of p has its foot strictly inside the segment, and
    the triangle (p, r_i, r_j) then has angles asin(h / |q_i|) and
    asin(h / |q_j|) at r_i and r_j (h <= delta the distance), so the angle
    between q_i and -q_j is at most 2 asin(delta / d_min), i.e.
    u_i . u_j <= 2 (delta / d_min)^2 - 1. The screen keeps the upper-triangle
    pairs meeting that bound (plus _SCREEN_SLACK for rounding), one of
    _upper_blocks at a time. If d_min <= delta every pair is a candidate.
    The candidates then take the point-to-segment distance test op for op
    as a full scan would, so the product that screens them only decides
    which pairs are tested: the hits do not depend on BLAS.
    """
    n = len(points)
    q = points - p
    d = np.linalg.norm(q, axis=1)
    d_min = float(d.min())
    if d_min > delta:
        ut = (q / d[:, None]).T.copy()  # 3 x n, so column slices feed matmul
        bound = 2.0 * (delta / d_min) ** 2 - 1.0 + _SCREEN_SLACK
    else:
        ut = np.zeros((1, n))  # every product is 0 <= bound: all pairs pass
        bound = 0.0
    hits_i, hits_j = [], []
    for s, blk in _upper_blocks(ut.T, ut, np.inf):
        # 1-d nonzero: on a 2-d mask numpy's nonzero is about 10x slower
        rows, cols = np.divmod(np.flatnonzero(blk <= bound), n - s)
        iu, ju = rows + s, cols + s
        a = points[iu]
        ab = points[ju] - a
        ap = p - a
        denom = np.einsum("ij,ij->i", ab, ab)
        t_foot = np.clip(np.einsum("ij,ij->i", ap, ab) / denom, 0.0, 1.0)
        dist = np.linalg.norm(ap - t_foot[:, None] * ab, axis=1)
        near = dist <= delta
        hits_i.append(iu[near])
        hits_j.append(ju[near])
    return np.concatenate(hits_i), np.concatenate(hits_j)


def _count_chord_clusters(i: np.ndarray, j: np.ndarray, n: int) -> int:
    """Connected components of the ordered hits (i, j) and (j, i).

    Two hits are linked when both their cyclic index offsets are at most
    CLUSTER_GAP. Each hit looks up its neighbours at the offsets after
    (0, 0) in lexicographic order (the other half give the same links from
    the other end) by binary search in the sorted keys i * n + j, so the
    work is O(hits log hits).
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    span = range(-CLUSTER_GAP, CLUSTER_GAP + 1)
    di, dj = np.array([(a, b) for a in span for b in span if (a, b) > (0, 0)]).T
    keys = np.sort(np.concatenate([i * n + j, j * n + i]))
    ci, cj = np.divmod(keys, n)
    nb = ((ci[:, None] + di) % n) * n + (cj[:, None] + dj) % n
    pos = np.minimum(np.searchsorted(keys, nb), len(keys) - 1)
    src, col = np.nonzero(keys[pos] == nb)
    graph = coo_matrix(
        (np.ones(len(src), dtype=np.int8), (src, pos[src, col])),
        shape=(len(keys), len(keys)),
    )
    return int(connected_components(graph, directed=False)[0])


def estimate_covering_multiplicity(
    curve: SampledCurve,
    point,
    mesh: _hull.HullMesh,
    delta: Optional[float] = None,
) -> int:
    """Count chord clusters passing near an interior point.

    Collects every ordered sample pair (i, j) whose chord segment comes
    within delta (default CHORD_TOL_FACTOR * L / n) of the probe, then
    single-links pairs whose index offsets are both at most CLUSTER_GAP
    (cyclically). The number of clusters estimates the covering multiplicity:
    each geometric chord through the point is hit in both orders, so a
    doubly covered point yields 4. The chord search is exact (an angular
    screen, then the distance test on the candidates) and needs O(n) extra
    memory; see _near_chords.

    mesh is the hull of the samples (build_hull(curve.points)), built once
    for any number of probes. The probe must lie strictly inside it; raises
    OutsideHullError otherwise and ChordSearchError when no chord passes
    within delta.
    """
    p = np.asarray(point, dtype=np.float64)
    d = _hull.signed_distance(mesh, p)
    if d >= -mesh.eps:
        raise OutsideHullError(
            f"probe point is not strictly inside the hull (signed distance {d:.3g})"
        )
    n = curve.n
    if delta is None:
        delta = CHORD_TOL_FACTOR * curve.total_length / n

    i, j = _near_chords(curve.points, p, delta)
    if not len(i):
        raise ChordSearchError(
            f"no chord within {delta:.3g} of the probe; sampling too coarse"
        )
    return _count_chord_clusters(i, j, n)


def covering_histogram(curve: SampledCurve, mesh: _hull.HullMesh, probes: int, seed) -> tuple:
    """Covering multiplicities at seeded random points inside the hull.

    Draws points uniformly in the samples' bounding box from numpy's
    default_rng(seed) (PCG64), at most 1000 * probes of them. A draw not
    strictly inside mesh is rejected as outside, and one within
    PROBE_MARGIN_RTOL * L of its boundary as near the boundary: there a
    grazing chord can split or drop a cluster. Every other draw is a probe
    for estimate_covering_multiplicity, until probes have been evaluated; a
    probe that meets no chord within delta is a chord failure and enters
    no bin. Returns ({m: count} in ascending m, counters), the counters
    being requested, evaluated, rejected_outside, rejected_near_boundary
    and chord_failures.
    """
    rng = np.random.default_rng(seed)
    lo = curve.points.min(axis=0)
    hi = curve.points.max(axis=0)
    margin = PROBE_MARGIN_RTOL * curve.total_length
    histogram = {}
    outside = near_boundary = chord_failures = evaluated = attempts = 0
    while evaluated < probes and attempts < probes * 1000:
        attempts += 1
        p = rng.uniform(lo, hi)
        sd = _hull.signed_distance(mesh, p)
        if sd >= -mesh.eps:
            outside += 1
            continue
        if sd > -margin:
            near_boundary += 1
            continue
        evaluated += 1
        try:
            m = estimate_covering_multiplicity(curve, p, mesh)
        except ChordSearchError:
            chord_failures += 1
            continue
        histogram[m] = histogram.get(m, 0) + 1
    counters = {
        "requested": probes,
        "evaluated": evaluated,
        "rejected_outside": outside,
        "rejected_near_boundary": near_boundary,
        "chord_failures": chord_failures,
    }
    return dict(sorted(histogram.items())), counters


# ----------------------------------------------------------------------------
# Planar area


def planar_area_integral(curve: SampledCurve) -> float:
    """Enclosed area of a planar loop, half the norm of sum r_i x r_{i+1}.

    The cross products are summed as vectors before taking the magnitude, so
    the result does not depend on the plane's orientation in space. Raises
    NonPlanarCurveError when the loop leaves its best-fit plane.
    """
    flat = planarity_check(curve)
    if not flat.is_planar:
        raise NonPlanarCurveError(
            f"curve leaves its best-fit plane by {flat.rel_deviation:.3g} of its "
            "length; the area path needs a planar curve",
            rel_deviation=flat.rel_deviation,
        )
    r = curve.points
    s = np.cross(r, np.roll(r, -1, axis=0)).sum(axis=0)
    return float(np.linalg.norm(s)) / 2.0
