"""Volume of the convex hull of a closed space curve by double summation.

For a uniformly sampled loop the hull volume is recovered as

    volume = (1 / 4) * sum over ordered pairs (i, j) of |V_ij|,

where V_ij is the signed volume of the tetrahedron spanned by edge i, the
chord from sample i to sample j, and edge j, and 4 is the paper's covering
multiplicity of the chord map, proved for convex loops with exactly four
torsion sign changes. The same V_ij signs classify adjacent chord pairs as
interior or boundary, and counting the edge-pair tetrahedra that hold a
probe point measures the multiplicity there exactly, at one point or at a
batch of points in one pass; covering_histogram draws such probes from the
hull's own tetrahedron fan and counts them all in one call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import hull as _hull
from .curves import (
    PlanarityResult,
    SampledCurve,
    as_point_array,
    planarity_check,
    require_convex,
    require_nonplanar,
    require_vertex_count,
)
from .errors import NonPlanarCurveError

COVERING_MULTIPLICITY = 4  # the paper's divisor: chords cover the hull 4 times
DEGENERACY_RTOL = 1e-14   # |V_ij| floor vs L^3 for sign classification
PROBE_SCALE = 0.85        # probes shrink toward the fan apex, clearing the boundary samples
MIN_STRIDE_POINTS = 16    # fewest points a stride loop keeps: vertex count and converge rows
_CHUNK_ROWS = 128         # row block size of the double sum
_SCREEN_SLACK = 1e-9      # rounding allowance of the angular tetrahedron screen
_SCREEN_BLOCK = 24        # consecutive samples per cone of the screen
_CONE_SLACK = 1e-6        # rad: arccos rounding allowance of a block's cone
_PROBE_ROWS = 1 << 13     # probe-sample rows per chunk of the batched probe count
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
    past it. If the stride-2k loop would keep fewer than MIN_STRIDE_POINTS
    points, or its band is all exact zeros (a loop whose off-plane points
    the stride skips), no count is confirmed and the stride-1 count is
    reported. Exact samples of a smooth curve settle at k = 1.
    """

    def sign_changes(points):
        i = np.arange(len(points))
        a, bt = _tetra_factors(points, i, (i + 2) % len(points))
        sign = np.sign(np.einsum("ij,ji->i", a, bt))
        sign = sign[sign != 0]
        return int(np.count_nonzero(sign != np.roll(sign, 1))) if len(sign) else None

    counts, k = [sign_changes(curve.points) or 0], 1  # a flat loop changes sign 0 times
    while len(curve.points[:: 2 * k]) >= MIN_STRIDE_POINTS:
        if (count := sign_changes(curve.points[:: 2 * k])) is None:
            break  # an all-zero band has no count
        counts.append(count)
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


def _abs_double_sum(points: np.ndarray) -> float:
    """sum over all ordered pairs (i, j) of |V_ij|, in O(n) memory.

    With the factors of tetra_volume_matrix, 6 V = A B^T. V_ij = V_ji
    (swapping the two edges is an even permutation of the tetra's four
    points) and V_ii = 0, so the sum is twice the sum over i < j: row
    blocks s:t of _CHUNK_ROWS rows of A B^T, each written into one shared
    _CHUNK_ROWS x n buffer as A[s:t] B^T[:, s:], its diagonal and lower
    triangle zeroed, made absolute in place and summed.

    The block layout and the pairwise combination tree of _tree_sum depend
    only on n, so the bits do not depend on the BLAS thread count.
    """
    n = len(points)
    a, bt = _tetra_factors(points, np.arange(n), np.arange(n))
    lower = np.tri(_CHUNK_ROWS, dtype=bool)  # diagonal and below
    buf = np.empty(min(_CHUNK_ROWS, n) * n)
    parts = []
    for s in range(0, n, _CHUNK_ROWS):
        t = min(s + _CHUNK_ROWS, n)
        # a contiguous view, so that matmul writes into buf without a temporary
        blk = buf[: (t - s) * (n - s)].reshape(t - s, n - s)
        np.matmul(a[s:t], bt[:, s:], out=blk)  # entry (r, c) is pair (s + r, s + c)
        np.copyto(blk[:, : t - s], 0.0, where=lower[: t - s, : t - s])
        parts.append(float(np.abs(blk, out=blk).sum()))
    return 2.0 * _tree_sum(parts) / 6.0


@dataclass(eq=False)
class VolumeResult:
    """The double sum's volume and the gate results it rests on; vertex_report
    is None when force skipped it, and hull is the summed loop's validated hull."""

    volume: float
    n: int
    error_estimate: Optional[float]
    planarity: PlanarityResult
    vertex_report: Optional[DiscreteVertexReport]
    hull: _hull.HullMesh

    def as_dict(self) -> dict:
        return {"volume": self.volume, "error_estimate": self.error_estimate}


def hull_volume(
    curve: SampledCurve, force: bool = False, with_error_estimate: bool = False
) -> VolumeResult:
    """Hull volume of a closed loop: (1/4) times the absolute double sum.

    The 1/4 holds for convex loops with four torsion sign changes, so three
    gates run first, on the summed loop: require_nonplanar; then
    require_vertex_count on discrete_vertex_report, unless force=True skips
    it and the volume rests on an unverified hypothesis; then require_convex,
    which force does not skip.

    with_error_estimate=True also evaluates the sum on every second sample
    and reports |V(n) - V(n/2)| as a resolution error proxy; it is None for
    odd n and for n below 8.
    """
    flat = require_nonplanar(curve)
    vertex_report = None if force else require_vertex_count(discrete_vertex_report(curve))
    mesh = require_convex(curve)
    vol = _abs_double_sum(curve.points) / COVERING_MULTIPLICITY
    est = None
    if with_error_estimate and curve.n >= 8 and curve.n % 2 == 0:
        half = _abs_double_sum(curve.points[::2]) / COVERING_MULTIPLICITY
        est = abs(vol - half)
    return VolumeResult(vol, curve.n, est, flat, vertex_report, mesh)


# ----------------------------------------------------------------------------
# Sign classification of adjacent chord pairs


def classify_pairs(curve: SampledCurve, rows, cols) -> np.ndarray:
    """Label the sign flip between V_ij and V_{i+1,j} for i in rows, j in cols.

    Returns the labels, shape (len(rows), len(cols)). Equal signs label the
    pair "interior": the triangle {r_{i+1}, r_j, r_{j+1}} is crossed twice or
    not at all. Opposite signs label it "boundary": that triangle lies on
    the hull boundary. A volume at or below DEGENERACY_RTOL * L^3 labels it
    "degenerate": no sign is trusted. Both volume grids come from one
    tetra_volume_matrix call.
    """
    rows = np.asarray(rows)
    v = tetra_volume_matrix(curve, rows=np.concatenate([rows, (rows + 1) % curve.n]), cols=cols)
    v1, v2 = v[: len(rows)], v[len(rows) :]
    floor = DEGENERACY_RTOL * curve.total_length**3
    degenerate = (np.abs(v1) <= floor) | (np.abs(v2) <= floor)
    labels = np.where((v1 > 0) == (v2 > 0), "interior", "boundary")
    return np.where(degenerate, "degenerate", labels)


# ----------------------------------------------------------------------------
# Covering multiplicity by counting the tetrahedra that hold a point


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis in one fixed order, so equal rows give equal bits."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def estimate_covering_multiplicity(curve: SampledCurve, point) -> int | np.ndarray:
    """Covering multiplicity at a point: the ordered non-adjacent edge pairs
    (i, j) whose tetrahedron conv(r_i, r_{i+1}, r_j, r_{j+1}) holds it.

    The tetrahedron of edges i and j is the family of chords between them,
    so this counts the chords through the point, each in both orders: a
    doubly covered point gives 4, and a point outside the hull gives 0. The
    count is exact. point is one finite 3-vector, and the count an int; or
    an (m, 3) array of them, and the counts an int64 array of length m, as
    hull.signed_distance takes its points. Anything else raises ValueError.
    The probes are counted in chunks of about _PROBE_ROWS probe-sample rows
    (one probe per chunk above n = _PROBE_ROWS / 2), so memory is O(n)
    whatever m, and each probe is counted as if alone: its bound, cones and
    face signs are its own.

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
    phi_ij between q_i and q_j is at least pi - 2 theta, theta the widest
    angle an edge subtends from p: u_i . u_j <= -cos 2 theta =
    1 - 2 cos^2 theta (plus _SCREEN_SLACK) = bound, u_k = q_k / |q_k| (0
    where p is sample k). With cos theta clipped at 0 the bound reaches
    1 + slack, passing every pair, when 2 theta >= pi or p is a sample.

    The screen is applied to blocks of _SCREEN_BLOCK consecutive samples
    before it is applied to pairs. Block R's cone has the normalised mean
    of its u_k as axis and half-angle rho_R = arccos(min u_k . axis) +
    _CONE_SLACK, which covers arccos's rounding near 1 (the last block is
    padded with its own last sample, which leaves its cone as it is). For
    i in R and j in C, with alpha_RC the angle between the two axes, the
    spherical triangle inequality gives phi_ij <= alpha_RC + rho_R + rho_C,
    so cos phi_ij >= cos(min(pi, alpha_RC + rho_R + rho_C)). When that
    exceeds the bound, no pair of the two blocks passes, and the block pair
    is skipped; the cone test drops no pair that the bound keeps, so the
    count does not change. (A zero axis, an exactly cancelling block, reads
    alpha = rho = pi/2 and is never skipped.) Only the block pairs R <= C
    that remain, of every probe of a chunk, get their exact u_i . u_j tile,
    in batches of about n / _SCREEN_BLOCK block pairs, so memory stays
    O(n), and each batch's pairs (i < j, not adjacent) that pass their
    probe's bound have their face signs tested in one pass. The screen
    decides only which pairs are tested, so the count does not depend on
    BLAS.
    """
    single = np.ndim(point) == 1
    probes = as_point_array(np.asarray(point)[None] if single else point)
    n = len(curve.points)
    chunk = max(1, _PROBE_ROWS // n)
    counts = np.empty(len(probes), dtype=np.int64)
    for s in range(0, len(probes), chunk):
        counts[s : s + chunk] = _count_chunk(curve.points, probes[s : s + chunk])
    return int(counts[0]) if single else counts


def _count_chunk(points: np.ndarray, p: np.ndarray) -> np.ndarray:
    """estimate_covering_multiplicity's counts at the m probes p, all at once.

    Each probe's rows q_k = r_k - p run over the n samples and a copy of
    sample 0, so that k + 1 needs no wrap; row k of probe b is flat row
    b (n + 1) + k of the (m (n + 1), 3) arrays the face tests gather from.
    """
    n, m = len(points), len(p)
    ring = points[np.arange(n + 1) % n]  # row n repeats row 0
    q = ring - p[:, None]
    d = np.linalg.norm(q, axis=-1)
    q1, d1 = np.roll(q, -1, axis=1), np.roll(d, -1, axis=1)  # row n's is unused
    tiny = np.finfo(np.float64).tiny  # 0 / tiny = 0: a zero row, and cos 0, at a sample
    cos_edge = np.min((_dot_rows(q, q1) / np.maximum(d * d1, tiny))[:, :n], axis=1)
    bound = 1.0 - 2.0 * np.maximum(cos_edge, 0.0) ** 2 + _SCREEN_SLACK
    c = np.cross(q, q1).reshape(-1, 3)
    tol = (_FACE_RTOL * d * d1).ravel()
    size = _SCREEN_BLOCK
    blocks = -(-n // size)
    pad = np.minimum(np.arange(blocks * size), n - 1)  # the last block repeats its last sample
    u = (q / np.maximum(d, tiny)[..., None])[:, pad].reshape(m, blocks, size, 3)
    q, d = q.reshape(-1, 3), d.ravel()

    def face_sign(e, a):
        f = _dot_rows(c[e], q[a])
        tie = np.flatnonzero(np.abs(f) <= tol[e] * d[a])
        if len(tie):
            et, at = e[tie] % (n + 1), a[tie] % (n + 1)
            w = np.cross(_NUDGE, ring[et + 1] - ring[et])  # D x E_e
            f[tie] = -_dot_rows(w, ring[at] - ring[et])
        return np.sign(f)

    def probes_inside(i, j):
        sign = face_sign(j, i + 1)
        # each face test keeps only the pairs still inside, so the later ones
        # see few pairs when the screen passes many
        hold = np.flatnonzero((sign != 0) & (face_sign(j, i) == -sign))
        i, j, sign = i[hold], j[hold], sign[hold]
        hold = np.flatnonzero(face_sign(i, j + 1) == sign)
        i, j, sign = i[hold], j[hold], sign[hold]
        return i[face_sign(i, j) == -sign] // (n + 1)

    axis = u.sum(axis=2)
    axis /= np.maximum(np.linalg.norm(axis, axis=-1), tiny)[..., None]
    cos_rho = _dot_rows(u, axis[:, :, None]).min(axis=2)
    rho = np.arccos(np.clip(cos_rho, -1.0, 1.0)) + _CONE_SLACK
    rows, cols = np.triu_indices(blocks)  # the block pairs R <= C
    alpha = np.arccos(np.clip((axis @ axis.transpose(0, 2, 1))[:, rows, cols], -1.0, 1.0))
    reach = np.cos(np.minimum(np.pi, alpha + rho[:, rows] + rho[:, cols]))
    probe, pair = np.nonzero(reach <= bound[:, None])
    rows, cols = rows[pair], cols[pair]
    inside, batch = [np.zeros(0, dtype=np.intp)], max(1, n // size)
    for s in range(0, len(rows), batch):
        bp, br, bc = probe[s : s + batch], rows[s : s + batch], cols[s : s + batch]
        passed = u[bp, br] @ u[bp, bc].transpose(0, 2, 1) <= bound[bp, None, None]
        b, r, col = np.nonzero(passed)  # entry (b, r, col) of the tile: the pair (i, j) below
        row = bp * (n + 1)  # the flat row of each block pair's probe's sample 0
        i, j = (row + br * size)[b] + r, (row + bc * size)[b] + col
        # not adjacent, and j not padding
        keep = (j - i > 1) & (j - i < n - 1) & (col < (n - bc * size)[b])
        inside.append(probes_inside(i[keep], j[keep]))
    return 2 * np.bincount(np.concatenate(inside), minlength=m)


def covering_histogram(curve: SampledCurve, mesh: _hull.HullMesh, probes: int, seed) -> tuple:
    """Covering multiplicities at seeded random points inside the hull.

    All probes are drawn at once from numpy's default_rng(seed) (PCG64): a
    tetrahedron of hull.fan_tetrahedra with probability proportional to its
    volume, then a Dirichlet(1, 1, 1, 1) point in it, uniform in the hull.
    Scaling it by PROBE_SCALE about the apex keeps it 1 - PROBE_SCALE of the
    apex's depth inside, away from the samples, beside which the angular
    screen of the count passes most pairs. No draw is rejected. Returns
    ({m: count} in ascending m, counters), the m from one
    estimate_covering_multiplicity call over all the probes (0 where no
    tetrahedron holds the probe);
    of the counters, evaluated equals requested, and rejected_outside,
    rejected_near_boundary and chord_failures are 0, kept because
    perfbench/run.py reads them.
    """
    rng = np.random.default_rng(seed)
    apex, corners, six_volumes = _hull.fan_tetrahedra(mesh)
    pick = rng.choice(len(six_volumes), size=probes, p=six_volumes / six_volumes.sum())
    weights = rng.dirichlet(np.ones(4), size=probes)  # column 0 weighs the apex
    offsets = sum(weights[:, k + 1, None] * corner[pick] for k, corner in enumerate(corners))
    counts = estimate_covering_multiplicity(curve, apex + PROBE_SCALE * offsets)
    ms, tally = np.unique(counts, return_counts=True)
    counters = {
        "requested": probes,
        "evaluated": probes,
        "rejected_outside": 0,
        "rejected_near_boundary": 0,
        "chord_failures": 0,
    }
    return dict(zip(ms.tolist(), tally.tolist())), counters


# ----------------------------------------------------------------------------
# Planar area


def planar_area_integral(curve: SampledCurve) -> float:
    """Enclosed area of a planar loop, half the norm of sum r_i x r_{i+1}.

    The cross products are summed as vectors before taking the magnitude, so
    the result does not depend on the plane's orientation in space. Raises
    NonPlanarCurveError when the loop leaves its best-fit plane.
    """
    return _area_and_planarity(curve)[0]


def _area_and_planarity(curve: SampledCurve) -> tuple:
    """planar_area_integral's area and the planarity check it passed, so the
    area command reports the one check it made."""
    flat = planarity_check(curve)
    if not flat.is_planar:
        raise NonPlanarCurveError(
            f"curve leaves its best-fit plane by {flat.rel_deviation:.3g} of its "
            "length; the area path needs a planar curve",
            rel_deviation=flat.rel_deviation,
        )
    r = curve.points - curve.points.mean(axis=0)  # from the centroid: a far loop keeps its digits
    s = np.cross(r, np.roll(r, -1, axis=0)).sum(axis=0)
    return float(np.linalg.norm(s)) / 2.0, flat
