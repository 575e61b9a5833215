"""Convex hull oracle: triangulated hull meshes, volume by tetra fan, the
Richardson-extrapolated hull volume of a sampled curve, containment
queries, coplanar support patches, and OBJ export.

The raw hull comes from scipy's qhull wrapper; everything downstream
(orientation repair, structural validation, volume, distances, patch
grouping) is computed here so results can be cross-checked against the
chord-sum formula independently.

scipy is imported the first time build_hull runs, not when this module
loads, so a process that builds no hull never loads it. Importing
scipy.spatial is most of a fresh start: as `python -m curvehull` on a
2-vCPU VM, `gallery-list`, which builds no hull, runs in about 0.12 s, and
`volume saddle` and `diagnose saddle`, which do, in about 0.38 s and
0.44 s (medians of 7 fresh runs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import PLANARITY_RTOL, as_point_array, plane_deviation
from .errors import CurveHullError, DegenerateCurveError, PlanarCurveError

HULL_EPS_RTOL = 1e-9  # containment tolerance vs bounding-box diagonal
_COPLANAR_NORMAL_COS = np.cos(1e-6)  # merge facets whose normals agree to 1e-6 rad


@dataclass(eq=False)
class HullMesh:
    """Triangulated boundary of the convex hull of a point set.

    facets index into points (the original input array) and are wound so
    that cross(b - a, c - a) points outward. normals/offsets describe the
    facet planes as normal . x + offset = 0 with normal outward, so the
    expression is negative inside. eps is the absolute containment
    tolerance, HULL_EPS_RTOL times the bounding-box diagonal. With points
    read as a loop in order, buried holds the ascending indices of the
    points more than eps inside the hull, and interior_edges those of the
    polygon edges (i, i + 1 mod n) whose midpoint is, so is_convex (both
    empty: every sample and every polygon edge on the boundary) is the
    convexity check's verdict.
    """

    points: np.ndarray
    facets: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    vertex_indices: np.ndarray
    eps: float
    buried: np.ndarray = None
    interior_edges: np.ndarray = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_indices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @property
    def is_convex(self) -> bool:
        return len(self.buried) == 0 and len(self.interior_edges) == 0


def bbox_diagonal(points: np.ndarray) -> float:
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def build_hull(points) -> HullMesh:
    """Construct a validated hull mesh from at least 4 points.

    Points within PLANARITY_RTOL bounding-box diagonals of their best plane
    (plane_deviation) raise PlanarCurveError; a closed loop is at least
    2 / sqrt(3) diagonals long, so every loop that passes the planarity gate
    (require_nonplanar) gets a hull. The mesh is checked structurally before
    being returned: consistent outward winding, every edge shared by exactly
    two triangles, Euler characteristic 2, and every input point inside or
    on the boundary within eps, else DegenerateCurveError.
    """
    pts = as_point_array(points)
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points, got {len(pts)}")
    diag = bbox_diagonal(pts)
    if diag <= 0.0:
        raise ValueError("all points coincide")
    rel = plane_deviation(pts) / diag
    if rel <= PLANARITY_RTOL:
        raise PlanarCurveError(
            "point set is (near) coplanar, its hull has no volume", rel_deviation=rel
        )
    from scipy.spatial import ConvexHull, QhullError

    try:
        ch = ConvexHull(pts)
    except QhullError as exc:
        raise PlanarCurveError(f"hull construction failed: {exc}") from exc

    facets = ch.simplices.copy()
    normals = ch.equations[:, :3].copy()
    offsets = ch.equations[:, 3].copy()
    # qhull's triangle winding is not tied to the plane orientation; repair it
    a, b, c = pts[facets[:, 0]], pts[facets[:, 1]], pts[facets[:, 2]]
    tri_normal = np.cross(b - a, c - a)
    flip = np.einsum("ij,ij->i", tri_normal, normals) < 0.0
    facets[flip] = facets[flip][:, [0, 2, 1]]

    mesh = HullMesh(
        points=pts,
        facets=facets,
        normals=normals,
        offsets=offsets,
        vertex_indices=ch.vertices.copy(),
        eps=HULL_EPS_RTOL * diag,
    )
    mesh.buried, mesh.interior_edges = _validate(mesh)
    return mesh


def _edge_keys(mesh: HullMesh) -> np.ndarray:
    """One int64 key lo * n + hi per facet edge; key k is on facet k % n_facets."""
    f = mesh.facets
    e = np.vstack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]).astype(np.int64)
    e.sort(axis=1)
    return e[:, 0] * len(mesh.points) + e[:, 1]


def _polygon_edge_starts(mesh: HullMesh) -> np.ndarray:
    """(n_facets, 3): for each facet edge (f[:, k], f[:, (k + 1) % 3]) that is
    a polygon edge (a, b), b - a = +-1 mod n, the index i of that edge
    (i, i + 1 mod n), and -1 for the others; mesh.points is the loop in order."""
    f, n = mesh.facets, len(mesh.points)
    g = f[:, [1, 2, 0]]
    step = g - f
    forward, backward = (step == 1) | (step == 1 - n), (step == -1) | (step == n - 1)
    return np.where(forward, f, np.where(backward, g, -1))


def facet_census(mesh: HullMesh) -> tuple:
    """(k0, k1, k2): the hull facets with 0, 1 and 2 polygon edges. Every
    polygon edge is a hull edge, on two facets, exactly when k1 + 2 k2 = 2n;
    then, every sample a hull vertex, k2 - k0 = 4 (Euler)."""
    k = np.count_nonzero(_polygon_edge_starts(mesh) >= 0, axis=1)
    return tuple(int(c) for c in np.bincount(k, minlength=3))


def _validate(mesh: HullMesh) -> tuple:
    f = mesh.facets
    # one int64 key per undirected edge: a 1-d unique instead of a row-wise one
    _, counts = np.unique(_edge_keys(mesh), return_counts=True)
    if np.any(counts != 2):
        raise CurveHullError("hull mesh is not watertight (edge shared != 2 times)")
    n_edges = len(counts)
    v = np.count_nonzero(np.bincount(f.ravel()))
    if v - n_edges + len(f) != 2:
        raise CurveHullError("hull mesh violates the Euler formula")
    # vertices lie on their incident facets by construction; only points the
    # hull did not keep can possibly stick out
    on_hull = np.zeros(len(mesh.points), dtype=bool)
    on_hull[mesh.vertex_indices] = True
    inner = np.flatnonzero(~on_hull)
    depth = signed_distance(mesh, mesh.points[inner])
    worst = float(depth.max(initial=-np.inf))
    if worst > mesh.eps:  # rounding does this to a small loop far from the origin
        raise DegenerateCurveError(
            f"input point lies {worst:.3g} outside its own hull, beyond eps = {mesh.eps:.3g}",
            depth=worst,
            eps=mesh.eps,
        )
    # a polygon edge on no facet lies in the boundary (a coplanar or
    # collinear run) exactly when its midpoint does; else it crosses the hull
    n = len(mesh.points)
    starts = _polygon_edge_starts(mesh)
    off = np.flatnonzero(np.bincount(starts[starts >= 0], minlength=n) == 0)
    middle = signed_distance(mesh, (mesh.points[off] + mesh.points[(off + 1) % n]) / 2.0)
    return inner[depth < -mesh.eps], off[middle < -mesh.eps]


def signed_distance(mesh: HullMesh, p) -> np.ndarray | float:
    """Largest signed plane distance, negative strictly inside the hull.

    For interior points this is (minus) the distance to the boundary; for
    exterior points it is a lower bound on the distance. Accepts a single
    point or an (n, 3) array.
    """
    p = np.asarray(p, dtype=np.float64)
    single = p.ndim == 1
    q = p.reshape(-1, 3)
    nf = len(mesh.normals)
    block = max(1, 20_000_000 // max(nf, 1))  # cap the dense distance table
    d = np.empty(len(q))
    for s in range(0, len(q), block):
        d[s : s + block] = np.max(
            q[s : s + block] @ mesh.normals.T + mesh.offsets, axis=1
        )
    return float(d[0]) if single else d


def fan_tetrahedra(mesh: HullMesh) -> tuple:
    """The tetrahedra from the mean of the hull vertices (the apex) to the
    facets, which partition the hull: (apex, (a, b, c), six_volumes), with
    a, b, c each facet's corners less the apex and six_volumes = (a x b) . c
    row by row, positive under outward winding.
    """
    apex = mesh.points[np.flatnonzero(np.bincount(mesh.facets.ravel()))].mean(axis=0)
    a, b, c = (mesh.points[mesh.facets[:, k]] - apex for k in range(3))
    return apex, (a, b, c), np.einsum("ij,ij->i", np.cross(a, b), c)


def mesh_volume(mesh: HullMesh) -> float:
    """Enclosed volume, the sum of the signed tetrahedra of fan_tetrahedra.

    Relies only on consistent outward winding, so it cross-checks the facet
    orientation repair done in build_hull.
    """
    return float(fan_tetrahedra(mesh)[2].sum() / 6.0)


def richardson_volume(points) -> float:
    """Hull volume of a smooth closed curve from an even number of its samples.

    points are the curve's samples in loop order, evenly spaced (uniform in
    arc length or in a smooth parameter). The hull volume of n such samples
    differs from the curve's by about c_n / n^2, and c_n depends on where the
    samples fall against the curve's vertices: on a symmetric curve that
    position, and so c_n, repeats with n mod 2 or n mod 4 (near n = 1000,
    c_n is -88.0 at even n and -77.0 at odd n on the saddle, and -73.8 at
    n = 0 and -55.3 at n = 2 (mod 4) on the baseball). With v the hull
    volume of all points and v_half that of every other point,
    v + (v - v_half) / 3 cancels the leading term (Richardson extrapolation)
    only when c_n = c_{n/2}, which these locks allow when n and n / 2 share
    their residue mod 4: when n = 0 (mod 8), as cli.ORACLE_SAMPLES is. On a
    curve with no symmetry c_n drifts slowly with n, and any even n serves.
    Both hulls are built and validated by build_hull. An odd count raises
    ValueError, since points[::2] would then close the loop with an uneven
    step.
    """
    pts = as_point_array(points)
    if len(pts) % 2:
        raise ValueError(f"need an even number of samples, got {len(pts)}")
    v = mesh_volume(build_hull(pts))
    v_half = mesh_volume(build_hull(pts[::2]))
    return v + (v - v_half) / 3.0


# ----------------------------------------------------------------------------
# Coplanar support patches


@dataclass(eq=False)
class SupportPatch:
    """A maximal coplanar run of hull facets and the samples it touches."""

    facet_ids: list
    sample_ids: list
    normal: np.ndarray
    offset: float


@dataclass(eq=False)
class SupportPolygonReport:
    """Coplanar hull patches supported by three mutually distant samples.

    patches are the P patches whose touched samples contain a triple with
    pairwise cyclic index distance above 2; those patches witness planes
    tangent to the curve at three separated arcs, and count is P.
    coplanar_groups counts all multi-facet coplanar groups regardless of the
    distance rule.
    """

    patches: list
    coplanar_groups: int

    @property
    def count(self) -> int:
        return len(self.patches)

    def as_dict(self) -> dict:
        return {
            "coplanar_groups": self.coplanar_groups,
            "patch_sample_ids": [p.sample_ids for p in self.patches],
        }


def support_polygons(mesh: HullMesh) -> SupportPolygonReport:
    """Find hull patches lying in a single plane touched by distant samples.

    Adjacent facets are merged, as connected components, when their planes
    agree (normals within 1e-6 rad, offsets within eps); each resulting patch
    counts toward P when the samples it touches admit three indices pairwise
    more than 2 apart around the sample cycle (a far triple). Sample indices
    refer to positions along the input loop, so the distance rule excludes
    patches explained by consecutive samples alone. Patches come in ascending
    order of their sorted sample indices, smallest first, not in qhull's
    facet order.

    One rule decides every group. Each facet corner gets the key
    label * 2n + sample, and the keys are sorted; a group's keys are then
    contiguous, in loop order, and more than n below the next group's. For a
    key a let b be the first key >= a + 3 and c the first key >= b + 3. The
    group has a far triple iff some a in it has c <= a + n - 3 (then b and c
    are in the group too). This is exact: a far triple written in loop order
    a < b < c needs b >= a + 3, c >= b + 3 and c <= a + n - 3, and taking the
    earliest such b, then the earliest c, makes c as small as it can be.
    Repeated keys change none of these searches.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(mesh.points)
    f = mesh.facets
    # _validate saw every edge key exactly twice, so sorted keys pair up
    t1, t2 = (np.argsort(_edge_keys(mesh), kind="stable").reshape(-1, 2) % len(f)).T
    flat = (
        np.einsum("ij,ij->i", mesh.normals[t1], mesh.normals[t2]) >= _COPLANAR_NORMAL_COS
    ) & (np.abs(mesh.offsets[t1] - mesh.offsets[t2]) <= mesh.eps)
    graph = coo_matrix(
        (np.ones(int(flat.sum()), dtype=np.int8), (t1[flat], t2[flat])), shape=(len(f), len(f))
    )
    n_groups, label = connected_components(graph, directed=False)
    keys = np.sort((label.astype(np.int64)[:, None] * (2 * n) + f).ravel())
    # a sentinel above every a + n - 3 stands for "no such key"
    padded = np.append(keys, n_groups * 2 * n)
    c = np.searchsorted(keys, padded[np.searchsorted(keys, keys + 3)] + 3)
    far = padded[c] <= keys + n - 3
    patches = []
    for g in np.unique(keys[far] // (2 * n)):
        members = np.flatnonzero(label == g)
        patches.append(
            SupportPatch(
                facet_ids=members.tolist(),
                sample_ids=np.unique(f[members]).tolist(),
                normal=mesh.normals[members[0]].copy(),
                offset=float(mesh.offsets[members[0]]),
            )
        )
    patches.sort(key=lambda patch: patch.sample_ids)
    return SupportPolygonReport(
        patches=patches,
        coplanar_groups=int(np.count_nonzero(np.bincount(label) > 1)),
    )


# ----------------------------------------------------------------------------
# Vertex inequality bookkeeping


def four_vertex_slack(vertex_count: int, support_count: int) -> int:
    """The slack V + 2K + 2d - (4 + P) of V + 2K + 2d >= 4 + P, with K = d = 0.

    V is the torsion sign changes (vertex_count) and P the support patches
    of support_polygons (support_count); the inequality holds when the slack
    is nonnegative. K, the kinks (corners with a tangent jump), is 0 for the
    smooth curves handled here, and d, the planes tangent along a whole arc,
    is taken as 0 for curves in general position. A loop lying along one
    tangent plane breaks that: a circle of 400 points with one lifted by
    1e-8 reads V = 4, P = 2, slack -2. The inequality holds for a nonplanar
    loop on its own convex hull; the caller checks planarity and convexity
    before asking.
    """
    return vertex_count - 4 - support_count


# ----------------------------------------------------------------------------
# Export


def save_obj(mesh: HullMesh, path) -> None:
    """Write the mesh as a Wavefront OBJ file.

    All input points are emitted as v lines (17 significant digits), faces
    are 1-based triangles wound outward, and line endings are LF regardless
    of platform, so repeated exports are byte-identical.
    """
    lines = []
    for p in mesh.points:
        lines.append(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    for i, j, k in mesh.facets:
        lines.append(f"f {i + 1} {j + 1} {k + 1}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
