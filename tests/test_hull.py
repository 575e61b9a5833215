import ast
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from curvehull import (
    CurveHullError,
    PlanarCurveError,
    build_hull,
    count_vertices,
    four_vertex_inequality_report,
    frenet_profile,
    gallery,
    mesh_volume,
    richardson_volume,
    sample_uniform,
    save_obj,
    signed_distance,
    support_polygons,
)
from curvehull import errors
from curvehull.hull import _COPLANAR_NORMAL_COS


def unit_cube_points():
    return np.array(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float
    )


def octahedron_points():
    return np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )


# ---------------------------------------------------------------- construction


def test_cube_mesh_shape_and_volume():
    mesh = build_hull(unit_cube_points())
    assert mesh.n_vertices == 8
    assert mesh.n_facets == 12
    assert mesh_volume(mesh) == pytest.approx(1.0, abs=1e-12)


def test_octahedron_volume():
    mesh = build_hull(octahedron_points())
    assert mesh.n_vertices == 6
    assert mesh.n_facets == 8
    assert mesh_volume(mesh) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_coplanar_points_rejected():
    # build_hull refuses by plane_deviation against PLANARITY_RTOL times the
    # bounding-box diagonal, the planarity gate's statistic; the slab is
    # 1e-10 thick
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    slab = np.vstack([square, square + [0, 0, 1e-10]])
    for points, rel in ((square, 0.0), (slab, 0.5e-10 / np.sqrt(2))):
        with pytest.raises(PlanarCurveError) as info:
            build_hull(points)
        assert set(info.value.details) == {"rel_deviation"}
        assert info.value.details["rel_deviation"] == pytest.approx(rel, abs=1e-16)


def test_too_few_points_rejected():
    with pytest.raises(ValueError):
        build_hull(np.eye(3))


def test_facets_wind_outward():
    mesh = build_hull(octahedron_points())
    center = mesh.points.mean(axis=0)
    a = mesh.points[mesh.facets[:, 0]]
    b = mesh.points[mesh.facets[:, 1]]
    c = mesh.points[mesh.facets[:, 2]]
    winding = np.cross(b - a, c - a)
    # triangle winding agrees with the stored outward plane normals
    assert np.all(np.einsum("ij,ij->i", winding, mesh.normals) > 0)
    # and those normals point away from the centroid
    mid = (a + b + c) / 3.0
    assert np.all(np.einsum("ij,ij->i", mid - center, mesh.normals) > 0)


def test_mesh_is_watertight_with_euler_two():
    sc = sample_uniform(gallery.get("saddle").curve, 500)
    mesh = build_hull(sc.points)
    f = mesh.facets
    e = np.vstack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    e.sort(axis=1)
    _, counts = np.unique(e, axis=0, return_counts=True)
    assert np.all(counts == 2)
    v = len(np.unique(f))
    assert v - len(counts) + len(f) == 2


def test_volume_agrees_with_library_hull_volume(saddle_2000):
    # same point set through an independent volume computation
    mesh = build_hull(saddle_2000.points)
    ref = ConvexHull(saddle_2000.points).volume
    assert mesh_volume(mesh) == pytest.approx(ref, rel=1e-12)


def test_interior_points_of_random_cloud_stay_inside(rng):
    pts = rng.standard_normal((400, 3))
    mesh = build_hull(pts)
    inner = np.setdiff1d(np.arange(len(pts)), mesh.vertex_indices)
    assert len(inner) > 0
    assert np.all(signed_distance(mesh, pts[inner]) < mesh.eps)


# ---------------------------------------------------------------- containment


def test_containment_classification():
    # inside below -eps, on the boundary within eps, outside above eps
    mesh = build_hull(unit_cube_points())
    center = signed_distance(mesh, [0.5, 0.5, 0.5])
    assert center < -mesh.eps
    assert center == pytest.approx(-0.5)
    corner = signed_distance(mesh, [1.0, 1.0, 1.0])
    assert abs(corner) <= mesh.eps
    out = signed_distance(mesh, [2.0, 0.5, 0.5])
    assert out > mesh.eps
    assert out == pytest.approx(1.0)


def test_signed_distance_vectorized_matches_scalar():
    mesh = build_hull(octahedron_points())
    pts = np.array([[0, 0, 0], [0.2, 0.1, 0.0], [1, 1, 1]], dtype=float)
    batch = signed_distance(mesh, pts)
    singles = [signed_distance(mesh, p) for p in pts]
    assert np.allclose(batch, singles)


# ---------------------------------------------------------------- support patches


def test_saddle_has_no_support_polygons():
    sc = sample_uniform(gallery.get("saddle").curve, 500)
    rep = support_polygons(build_hull(sc.points))
    assert rep.count == 0
    # the saddle's symmetry produces many coplanar facet pairs, none of which
    # involve three mutually distant samples
    assert rep.coplanar_groups > 0


def test_cube_faces_group_but_do_not_count():
    rep = support_polygons(build_hull(unit_cube_points()))
    # six square faces, each two coplanar triangles; on an 8-cycle no three
    # corners are pairwise more than 2 apart, so none qualifies
    assert rep.coplanar_groups == 6
    assert rep.count == 0


def test_triply_touched_plane_is_detected():
    # circle lifted by z = 0.2 (1 - cos 3t): exactly three samples touch z = 0
    # at t = 0, 2pi/3, 4pi/3, one third of the loop apart
    n = 120
    t = np.arange(n) * (2 * np.pi / n)
    pts = np.stack(
        [np.cos(t), np.sin(t), 0.2 * (1.0 - np.cos(3 * t))], axis=-1
    )
    rep = support_polygons(build_hull(pts))
    assert rep.count >= 1
    touched = [set(p.sample_ids) for p in rep.patches]
    assert any({0, n // 3, 2 * n // 3} <= s for s in touched)


def test_wobble_tritangent_planes_counted():
    # sin 3t reaches +1 at three params and -1 at three others, so the planes
    # z = +/-1 each rest on the curve at three widely separated points; the
    # hull shows them as single facets whose corners are thirds of the loop
    # apart, and both must count
    sc = sample_uniform(gallery.get("wobble:k=3").curve, 500)
    mesh = build_hull(sc.points)
    rep = support_polygons(mesh)
    assert rep.count == 2
    for patch in rep.patches:
        ids = sorted(patch.sample_ids)
        assert len(ids) == 3
        assert abs(patch.normal[2]) > 0.999
        assert np.all(np.abs(sc.points[ids, 2]) > 0.999)
        gaps = np.diff(ids + [ids[0] + 500])
        assert np.all(gaps > 2)  # pairwise far apart on the cycle
    top, bottom = sorted(tuple(sorted(p.sample_ids)) for p in rep.patches)
    assert top == (42, 208, 375)
    assert bottom == (125, 292, 458)


def far_triple(ids, n):
    """Brute force: three of ids pairwise more than 2 apart around the n-cycle."""

    def apart(i, j):
        d = abs(i - j) % n
        return min(d, n - d) > 2

    return any(apart(a, b) and apart(a, c) and apart(b, c) for a, b, c in combinations(ids, 3))


def union_find_support_polygons(mesh):
    """Reference: the patch grouping support_polygons used before it moved to
    scipy's connected_components, a dict of edges and a union-find whose
    roots are the smallest facet of each patch, with a brute-force far-triple
    test per patch."""
    n = len(mesh.points)
    f = mesh.facets
    parent = list(range(len(f)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    edges = {}
    for t, (i, j, k) in enumerate(f):
        for e in ((i, j), (j, k), (k, i)):
            edges.setdefault((min(e), max(e)), []).append(t)
    for pair in edges.values():
        if len(pair) != 2:
            continue
        t1, t2 = pair
        if (
            float(mesh.normals[t1] @ mesh.normals[t2]) >= _COPLANAR_NORMAL_COS
            and abs(mesh.offsets[t1] - mesh.offsets[t2]) <= mesh.eps
        ):
            union(t1, t2)

    groups = {}
    for t in range(len(f)):
        groups.setdefault(find(t), []).append(t)
    patches = []
    for root in sorted(groups):
        members = groups[root]
        touched = sorted(set(int(x) for t in members for x in f[t]))
        if far_triple(touched, n):
            patches.append(
                (members, touched, mesh.normals[members[0]], float(mesh.offsets[members[0]]))
            )
    multi = sum(len(m) > 1 for m in groups.values())
    return len(patches), multi, patches


def assert_matches_union_find_reference(mesh):
    rep = support_polygons(mesh)
    count, multi, patches = union_find_support_polygons(mesh)
    patches.sort(key=lambda patch: patch[1])  # by sorted sample indices, smallest first
    assert (rep.count, rep.coplanar_groups) == (count, multi)
    assert rep.as_dict()["patch_sample_ids"] == [touched for _, touched, _, _ in patches]
    for got, (members, touched, normal, offset) in zip(rep.patches, patches):
        assert got.facet_ids == members
        assert got.sample_ids == touched
        assert np.array_equal(got.normal, normal)
        assert got.offset == offset
    return rep


@pytest.mark.parametrize(
    "name, n",
    [
        ("saddle", 1000),
        ("saddle", 2000),
        ("baseball", 500),
        ("wobble:k=3", 400),
        ("wobble:k=3", 500),
        ("wobble:k=5", 1000),
        ("wobble:k=7", 1200),
        ("trefoil", 300),
    ],
)
def test_support_polygons_match_union_find_reference(name, n):
    assert_matches_union_find_reference(build_hull(sample_uniform(gallery.get(name).curve, n).points))


def flat_arc_points(n, delta):
    """The unit circle lifted by 0.2 max(0, 1 - cos 3t - delta): for delta > 0
    the plane z = 0 holds three arcs a third of the loop apart."""
    t = np.arange(n) * (2 * np.pi / n)
    return np.stack(
        [np.cos(t), np.sin(t), 0.2 * np.maximum(0.0, 1.0 - np.cos(3 * t) - delta)], axis=-1
    )


@pytest.mark.parametrize("delta", [0.0, 0.02, 0.05])
def test_support_polygons_match_union_find_reference_on_flat_arcs(delta):
    rep = assert_matches_union_find_reference(build_hull(flat_arc_points(240, delta)))
    assert rep.count >= 1
    if delta == 0.02:
        # one patch of 13 facets lies in z = 0 and touches all three arcs
        assert any(len(p.facet_ids) == 13 for p in rep.patches)


@st.composite
def snapped_clouds(draw):
    """5 to 60 grid points in [-1, 1]^3, some snapped onto 1 to 3 faces of the
    cube, so the hull has coplanar patches of many facets."""
    m = draw(st.integers(5, 60))
    grid = st.integers(-64, 64).map(lambda k: k / 64)
    pts = np.array(draw(st.lists(st.tuples(grid, grid, grid), min_size=m, max_size=m)))
    planes = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from([-1.0, 1.0])),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    for i, k in enumerate(draw(st.lists(st.integers(-1, len(planes) - 1), min_size=m, max_size=m))):
        if k >= 0:
            axis, side = planes[k]
            pts[i, axis] = side
    return pts


@given(pts=snapped_clouds())
@settings(max_examples=100, deadline=None)
def test_support_polygons_match_union_find_reference_on_snapped_clouds(pts):
    try:
        mesh = build_hull(pts)
    except (PlanarCurveError, ValueError):
        assume(False)
    assert_matches_union_find_reference(mesh)


# ---------------------------------------------------------------- inequality report


@pytest.mark.parametrize(
    "v,p,satisfied,slack",
    [(4, 0, True, 0), (6, 0, True, 2), (4, 1, False, -1), (8, 2, True, 2)],
)
def test_inequality_arithmetic(v, p, satisfied, slack):
    rep = four_vertex_inequality_report(vertex_count=v, support_count=p)
    assert rep.satisfied is satisfied
    assert rep.slack == slack
    assert rep.as_dict() == {
        "vertex_count": v, "support_count": p, "satisfied": satisfied, "slack": slack
    }


def test_inequality_takes_the_counts_of_both_reports():
    curve = gallery.get("saddle").curve
    vrep = count_vertices(frenet_profile(curve, 1024))
    sc = sample_uniform(curve, 300)
    srep = support_polygons(build_hull(sc.points))
    rep = four_vertex_inequality_report(vrep.vertex_count, srep.count)
    assert rep.vertex_count == 4
    assert rep.support_count == srep.count
    assert rep.slack == 4 - srep.count - 4


def test_wobble_inequality_is_tight():
    curve = gallery.get("wobble:k=3").curve
    v = count_vertices(frenet_profile(curve, 2048)).vertex_count
    p = support_polygons(build_hull(sample_uniform(curve, 500).points)).count
    rep = four_vertex_inequality_report(vertex_count=v, support_count=p)
    assert (rep.vertex_count, rep.support_count) == (6, 2)
    assert rep.satisfied is True
    assert rep.slack == 0  # 6 + 0 = 4 + 2: equality, no room to spare


# ---------------------------------------------------------------- OBJ export


def test_obj_round_trip(tmp_path):
    mesh = build_hull(unit_cube_points())
    path = tmp_path / "cube.obj"
    save_obj(mesh, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    v_lines = [l for l in raw.decode().splitlines() if l.startswith("v ")]
    f_lines = [l for l in raw.decode().splitlines() if l.startswith("f ")]
    assert len(v_lines) == 8
    assert len(f_lines) == 12
    parsed = np.array([[float(x) for x in l.split()[1:]] for l in v_lines])
    assert np.array_equal(parsed, mesh.points)
    for line in f_lines:
        idx = [int(x) for x in line.split()[1:]]
        assert len(idx) == 3
        assert all(1 <= i <= 8 for i in idx)


def test_obj_precision_survives_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((50, 3)) * np.pi
    mesh = build_hull(pts)
    path = tmp_path / "cloud.obj"
    save_obj(mesh, path)
    v_lines = [l for l in path.read_text().splitlines() if l.startswith("v ")]
    parsed = np.array([[float(x) for x in l.split()[1:]] for l in v_lines])
    assert np.array_equal(parsed, pts)  # 17 significant digits: bit-exact


# ---------------------------------------------------------------- oracle sanity


def test_volume_unchanged_by_interior_points():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((60, 3))
    v0 = mesh_volume(build_hull(pts))
    centroid = pts.mean(axis=0)
    padded = np.vstack(
        [pts, centroid + 0.3 * (pts - centroid), centroid + 0.7 * (pts - centroid)]
    )
    v1 = mesh_volume(build_hull(padded))
    assert abs(v1 - v0) <= 1e-12 * v0


def test_volume_monotone_under_point_addition():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((24, 3))
    prev = 0.0
    for k in range(4, len(pts) + 1):
        v = mesh_volume(build_hull(pts[:k]))
        assert v >= prev - 1e-12
        prev = v


def test_richardson_volume_cancels_the_hull_error_of_order_n_squared():
    # the hull of n saddle samples misses pi by about c / n^2; extrapolating
    # from n and n / 2 samples leaves a small fraction of that
    pts = sample_uniform(gallery.get("saddle").curve, 2000).points
    hull_error = abs(mesh_volume(build_hull(pts)) - np.pi)
    assert abs(richardson_volume(pts) - np.pi) < 1e-4 * hull_error
    with pytest.raises(ValueError, match="even number of samples, got 1999"):
        richardson_volume(pts[:-1])


def test_centroid_is_inside_every_hull():
    clouds = [
        unit_cube_points(),
        octahedron_points(),
        sample_uniform(gallery.get("saddle").curve, 200).points,
        np.random.default_rng(17).standard_normal((40, 3)),
    ]
    for pts in clouds:
        mesh = build_hull(pts)
        assert signed_distance(mesh, pts.mean(axis=0)) < -mesh.eps


def test_ball_cloud_hull_vertices_near_sphere():
    rng = np.random.default_rng(19)
    dirs = rng.standard_normal((10_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * rng.random(10_000)[:, None] ** (1.0 / 3.0)  # uniform in ball
    mesh = build_hull(pts)
    radii = np.linalg.norm(pts[mesh.vertex_indices], axis=1)
    assert np.min(radii) >= 0.9


def _imports_scipy_spatial(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["scipy", "spatial"] for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        module = node.module.split(".")
        return module[:2] == ["scipy", "spatial"] or (
            module == ["scipy"] and any(a.name == "spatial" for a in node.names)
        )
    return False


def test_only_hull_module_imports_scipy_spatial():
    # qhull has one caller module; every other hull goes through build_hull
    package = Path(__file__).resolve().parents[1] / "src" / "curvehull"
    importers = sorted(
        path.name
        for path in package.glob("*.py")
        if any(map(_imports_scipy_spatial, ast.walk(ast.parse(path.read_text()))))
    )
    assert importers == ["hull.py"]


def _raised_names(tree) -> set:
    calls = [n.exc.func for n in ast.walk(tree) if isinstance(n, ast.Raise)
             and isinstance(n.exc, ast.Call)]
    return {f.id if isinstance(f, ast.Name) else getattr(f, "attr", None) for f in calls}


def test_every_leaf_error_class_is_raised_in_the_package():
    # an error class with no subclass that nothing raises is dead API
    package = Path(__file__).resolve().parents[1] / "src" / "curvehull"
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    leaves = {
        c.__name__ for c in classes if not any(o is not c and issubclass(o, c) for o in classes)
    }
    raised = set().union(*(_raised_names(ast.parse(p.read_text())) for p in package.glob("*.py")))
    assert len(leaves) >= 6
    assert sorted(leaves - raised) == []
