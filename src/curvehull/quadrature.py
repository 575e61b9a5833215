"""Volume of the convex hull of a closed space curve by double summation.

For a uniformly sampled loop the hull volume is recovered as

    volume = (1 / 4) * sum over ordered pairs (i, j) of |V_ij|,

where V_ij is the signed volume of the tetrahedron spanned by edge i, the
chord from sample i to sample j, and edge j, and 4 is the paper's covering
multiplicity of the chord map, proved for convex loops with exactly four
torsion sign changes. The same V_ij signs classify adjacent chord pairs as
interior or boundary, and counting the edge-pair tetrahedra that hold a
probe point measures the multiplicity there exactly; covering_histogram
draws such probes from the hull's own tetrahedron fan.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import hull as _hull
from .curves import (
    SampledCurve,
    as_point_array,
    planarity_check,
    require_nonplanar,
    require_vertex_count,
)
from .errors import NonPlanarCurveError

COVERING_MULTIPLICITY = 4  # the paper's divisor: chords cover the hull 4 times
DEGENERACY_RTOL = 1e-14   # |V_ij| floor vs L^3 for sign classification
PROBE_SCALE = 0.85        # probes shrink toward the fan apex, clearing the boundary samples
_PLATEAU_MIN_POINTS = 16  # shortest stride loop the vertex count is compared on
_CHUNK_ROWS = 128         # row block size for the double sum and tetrahedron count
_SCREEN_SLACK = 1e-9      # rounding allowance of the angular tetrahedron screen
_FACE_RTOL = 8 * np.finfo(np.float64).eps  # face-sign rounding bound vs |q_e||q_e+1||q_a|
_NUDGE = np.array([1.0, np.sqrt(2.0), np.pi])  # generic direction D that breaks face ties


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


@dataclass(eq=False)
class DiscreteVertexReport:
    """Sign changes of V_{i,i+2} on every stride-th point and every (2 stride)-th
    one: equal at a plateau; without one, stride is 1 and None means too short."""

    vertex_count: int
    stride: int
    count_at_double_stride: Optional[int]

    def as_dict(self) -> dict:
        return asdict(self)


def discrete_vertex_report(curve: SampledCurve) -> DiscreteVertexReport:
    """The sign changes of V_{i,i+2} around a loop, read where they settle.

    V_{i,i+2}, the tetrahedron r_i ... r_{i+3}, is the paper's bracket
    [r_{i+1} - r_i, r_{i+2} - r_i, r_{i+3} - r_i] / 6, taken from the
    kernel's factors as row dot products. Exact zeros have no sign and are
    dropped. The count is made on every k-th point for k = 1, 2, 4, ... up
    to the first k whose count equals the count at 2k: noise flips the
    signs of the small V_{i,i+2} of close points, and thinning grows them
    past it. If the stride-2k loop would keep fewer than _PLATEAU_MIN_POINTS
    points first, no count is confirmed and the stride-1 count is reported.
    Exact samples of a smooth curve settle at k = 1.
    """

    def sign_changes(points):
        i = np.arange(len(points))
        a, bt = _tetra_factors(points, i, (i + 2) % len(points))
        sign = np.sign(np.einsum("ij,ji->i", a, bt))
        sign = sign[sign != 0]
        return int(np.count_nonzero(sign != np.roll(sign, 1)))

    counts, k = [sign_changes(curve.points)], 1
    while len(curve.points[:: 2 * k]) >= _PLATEAU_MIN_POINTS:
        counts.append(sign_changes(curve.points[:: 2 * k]))
        if counts[-1] == counts[-2]:
            return DiscreteVertexReport(counts[-2], k, counts[-1])
        k *= 2
    return DiscreteVertexReport(counts[0], 1, counts[1] if len(counts) > 1 else None)


def tetra_volume_matrix(curve: SampledCurve, rows, cols) -> np.ndarray:
    """Signed tetra volumes V_ij for i in rows and j in cols.

    Uses the rank-6 factorisation 6 V = A B^T, A = [E, r x E] and
    B = [r x E, E] with E the edge vectors, the same factors the double sum
    uses: the result is A[rows] @ B^T[:, cols] / 6. V is symmetric, because
    swapping the two edges is an even permutation of the tetra's four
    points, and its diagonal is zero up to rounding. Index arrays read a
    sub-grid without building the n x n matrix.
    """
    a, bt = _tetra_factors(curve.points, np.asarray(rows), np.asarray(cols))
    return (a @ bt) / 6.0


def _tree_sum(parts) -> float:
    """Fold nonempty partial sums pairwise in fixed order (deterministic reduction)."""
    vals = list(parts)
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
        return {"volume": self.volume, "error_estimate": self.error_estimate}


def hull_volume(
    curve: SampledCurve, force: bool = False, with_error_estimate: bool = False
) -> VolumeResult:
    """Hull volume of a closed loop: (1/4) times the absolute double sum.

    The 1/4 holds for convex loops with four torsion sign changes, so the
    gates run first: planar input is refused (require_nonplanar), and so
    is a loop whose own points do not show four sign changes of V_{i,i+2}
    (discrete_vertex_report, require_vertex_count) unless force=True skips
    that gate; the number returned then rests on an unverified hypothesis.
    Convexity is not checked here; require_convex does that.

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


def classify_pairs(curve: SampledCurve, rows, cols) -> tuple:
    """Label the sign flip between V_ij and V_{i+1,j} for i in rows, j in cols.

    Returns (labels, V_ij, V_{i+1,j}), each of shape (len(rows), len(cols)).
    Equal signs label the pair "interior": the triangle
    {r_{i+1}, r_j, r_{j+1}} is crossed twice or not at all. Opposite signs
    label it "boundary": that triangle lies on the hull boundary. A volume
    at or below DEGENERACY_RTOL * L^3 labels it "degenerate": no sign is
    trusted. Both volume grids come from one tetra_volume_matrix call.
    """
    rows = np.asarray(rows)
    v = tetra_volume_matrix(curve, rows=np.concatenate([rows, (rows + 1) % curve.n]), cols=cols)
    v1, v2 = v[: len(rows)], v[len(rows) :]
    floor = DEGENERACY_RTOL * curve.total_length**3
    degenerate = (np.abs(v1) <= floor) | (np.abs(v2) <= floor)
    labels = np.where((v1 > 0) == (v2 > 0), "interior", "boundary")
    return np.where(degenerate, "degenerate", labels), v1, v2


# ----------------------------------------------------------------------------
# Covering multiplicity by counting the tetrahedra that hold a point


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products in one fixed order, so equal rows give equal bits."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def estimate_covering_multiplicity(curve: SampledCurve, point) -> int:
    """Covering multiplicity at a point: the ordered non-adjacent edge pairs
    (i, j) whose tetrahedron conv(r_i, r_{i+1}, r_j, r_{j+1}) holds it.

    The tetrahedron of edges i and j is the family of chords between them,
    so this counts the chords through the point, each in both orders: a
    doubly covered point gives 4, and a point outside the hull gives 0. The
    count is exact and needs O(n) extra memory. Raises ValueError unless
    point is one finite 3-vector.

    With q_k = r_k - p and C_e = q_e x q_{e+1}, the face of edge e and apex
    a has F(e, a) = [q_e, q_{e+1}, q_a] = q_a . C_e, and the kernel's
    6 V_ij = E_i . C_j + C_i . E_j splits about p into the four faces
    F(j, i+1) - F(j, i) + F(i, j+1) - F(i, j): p is inside when the four
    terms are nonzero with one sign. A face sign is read from F when
    |F| > _FACE_RTOL |q_e| |q_{e+1}| |q_a| bounds its rounding, and
    otherwise taken at p + eps D, D = _NUDGE: the sign of
    -((r_{e+1} - r_e) x (r_a - r_e)) . D. Both depend on (e, a) alone, so
    the two tetrahedra that share a face see p on the same side of it, and
    a point on a face or chord counts as if nudged by eps D.

    Only pairs that pass an exact angular screen are tested. p in the
    tetrahedron lies on a segment from edge i to edge j, so the angle
    between q_i and -q_j is at most 2 theta, theta the widest angle an edge
    subtends from p: u_i . u_j <= -cos 2 theta = 1 - 2 cos^2 theta (plus
    _SCREEN_SLACK), u_k = q_k / |q_k| (0 where p is sample k). With cos
    theta clipped at 0 the bound reaches 1 + slack, passing every pair, when
    2 theta >= pi or p is a sample. The screen decides only which pairs are
    tested, so the count does not depend on BLAS.

    The screened pairs are gathered across _upper_blocks and their face
    signs tested in one pass once n of them are held, so memory stays O(n)
    when every pair passes.
    """
    points = curve.points
    p = as_point_array(np.reshape(point, (1, 3)))[0]
    n = len(points)
    q = points - p
    d = np.linalg.norm(q, axis=1)
    q1, d1 = np.roll(q, -1, axis=0), np.roll(d, -1)
    tiny = np.finfo(np.float64).tiny  # 0 / tiny = 0: a zero row, and cos 0, at a sample
    ut = (q / np.maximum(d, tiny)[:, None]).T.copy()  # 3 x n, so column slices feed matmul
    cos_edge = float(np.min(_dot_rows(q, q1) / np.maximum(d * d1, tiny)))
    bound = 1.0 - 2.0 * max(cos_edge, 0.0) ** 2 + _SCREEN_SLACK
    c = np.cross(q, q1)
    tol = _FACE_RTOL * d * d1

    def face_sign(e, a):
        f = _dot_rows(c[e], q[a])
        tie = np.where(np.abs(f) <= tol[e] * d[a])[0]
        if len(tie):
            et, at = e[tie], a[tie]
            w = np.cross(_NUDGE, points[(et + 1) % n] - points[et])  # D x E_e
            f[tie] = -_dot_rows(w, points[at] - points[et])
        return np.sign(f)

    def count_inside(rows, cols):
        i, j = np.concatenate(rows), np.concatenate(cols)
        sign = face_sign(j, i + 1)
        # each face test keeps only the pairs still inside, so the later ones
        # see few pairs when the screen passes many
        hold = np.flatnonzero((sign != 0) & (face_sign(j, i) == -sign))
        i, j, sign = i[hold], j[hold], sign[hold]
        hold = np.flatnonzero(face_sign(i, (j + 1) % n) == sign)
        i, j, sign = i[hold], j[hold], sign[hold]
        return int(np.count_nonzero(face_sign(i, j) == -sign))

    inside = gathered = 0
    rows, cols = [], []
    for s, blk in _upper_blocks(ut.T, ut, np.inf):
        # 1-d nonzero: on a 2-d mask numpy's nonzero is about 10x slower
        r, col = np.divmod(np.flatnonzero(blk <= bound), n - s)
        keep = (col - r > 1) & (col - r < n - 1)  # j - i: not adjacent
        rows.append(r[keep] + s)
        cols.append(col[keep] + s)
        gathered += len(rows[-1])
        if gathered >= n:
            inside += count_inside(rows, cols)
            rows, cols, gathered = [], [], 0
    return 2 * (inside + (count_inside(rows, cols) if rows else 0))


def covering_histogram(curve: SampledCurve, mesh: _hull.HullMesh, probes: int, seed) -> tuple:
    """Covering multiplicities at seeded random points inside the hull.

    All probes are drawn at once from numpy's default_rng(seed) (PCG64): a
    tetrahedron of hull.fan_tetrahedra with probability proportional to its
    volume, then a Dirichlet(1, 1, 1, 1) point in it, uniform in the hull.
    Scaling it by PROBE_SCALE about the apex keeps it 1 - PROBE_SCALE of the
    apex's depth inside, away from the samples, beside which the angular
    screen of the count passes most pairs. No draw is rejected. Returns
    ({m: count} in ascending m, counters), m from
    estimate_covering_multiplicity (0 where no tetrahedron holds the probe);
    of the counters, evaluated equals requested, and rejected_outside,
    rejected_near_boundary and chord_failures are 0, kept because
    perfbench/run.py reads them.
    """
    rng = np.random.default_rng(seed)
    apex, corners, six_volumes = _hull.fan_tetrahedra(mesh)
    pick = rng.choice(len(six_volumes), size=probes, p=six_volumes / six_volumes.sum())
    weights = rng.dirichlet(np.ones(4), size=probes)  # column 0 weighs the apex
    offsets = sum(weights[:, k + 1, None] * corner[pick] for k, corner in enumerate(corners))
    histogram = {}
    for p in apex + PROBE_SCALE * offsets:
        m = estimate_covering_multiplicity(curve, p)
        histogram[m] = histogram.get(m, 0) + 1
    counters = {
        "requested": probes,
        "evaluated": probes,
        "rejected_outside": 0,
        "rejected_near_boundary": 0,
        "chord_failures": 0,
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
    r = curve.points - curve.points.mean(axis=0)  # from the centroid: a far loop keeps its digits
    s = np.cross(r, np.roll(r, -1, axis=0)).sum(axis=0)
    return float(np.linalg.norm(s)) / 2.0
