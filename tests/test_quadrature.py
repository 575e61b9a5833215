import functools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import (
    lifted_circle_points,
    random_rotation,
    signed_tetra_volume,
    triple_product,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvehull import (
    NonPlanarCurveError,
    PlanarCurveError,
    SampledCurve,
    VertexCountError,
    build_hull,
    classify_pairs,
    covering_histogram,
    estimate_covering_multiplicity,
    gallery,
    hull_volume,
    is_convex_curve,
    mesh_volume,
    planar_area_integral,
    sample_uniform,
    signed_distance,
    tetra_volume_matrix,
)
from curvehull.hull import fan_tetrahedra
from curvehull.quadrature import (
    _NUDGE,
    _PROBE_ROWS,
    _SCREEN_BLOCK,
    DEGENERACY_RTOL,
    _abs_double_sum,
)

finite_vec = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=3, max_size=3
)


# ---------------------------------------------------------------- triple products


def test_triple_product_of_basis_is_one():
    assert triple_product([1, 0, 0], [0, 1, 0], [0, 0, 1]) == 1.0


@given(a=finite_vec, b=finite_vec, c=finite_vec)
@settings(max_examples=100, deadline=None)
def test_triple_product_antisymmetry(a, b, c):
    assert triple_product(a, b, c) == -triple_product(b, a, c)


@given(a=finite_vec, b=finite_vec, c=finite_vec)
@settings(max_examples=100, deadline=None)
def test_triple_product_cyclic_invariance(a, b, c):
    v1 = triple_product(a, b, c)
    v2 = triple_product(b, c, a)
    scale = max(abs(v1), abs(v2), 1.0)
    assert abs(v1 - v2) <= 1e-9 * scale


def test_corner_tetra_signed_volume_is_one_sixth():
    loop = SampledCurve.from_points(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    assert abs(signed_tetra_volume(loop, 0, 2) - 1.0 / 6.0) <= 1e-15


def test_matrix_matches_per_pair_values():
    sc = sample_uniform(gallery.get("saddle").curve, 40)
    mat = tetra_volume_matrix(sc, np.arange(40), np.arange(40))
    for i in range(40):
        for j in range(40):
            assert mat[i, j] == pytest.approx(
                signed_tetra_volume(sc, i, j), abs=1e-15
            )
    assert np.allclose(np.diag(mat), 0.0)


@pytest.mark.parametrize("name", ["saddle", "baseball"])
@pytest.mark.parametrize("n", [5, 37, 128, 129, 257, 301])
def test_abs_double_sum_matches_per_pair_sum(name, n):
    # n below one 128-row block, whole blocks, a partial last block, odd n
    sc = sample_uniform(gallery.get(name).curve, n)
    cols = np.arange(n)
    terms = [np.abs(signed_tetra_volume(sc, i, cols)) for i in range(n)]
    reference = math.fsum(np.concatenate(terms))
    assert _abs_double_sum(sc.points) == pytest.approx(reference, rel=1e-13, abs=0)


def test_matrix_sub_grid_matches_full_matrix():
    sc = sample_uniform(gallery.get("baseball").curve, 301)
    full = tetra_volume_matrix(sc, np.arange(301), np.arange(301))
    rows = np.array([0, 7, 150, 300])
    cols = np.array([1, 2, 299])
    sub = tetra_volume_matrix(sc, rows=rows, cols=cols)
    assert sub.shape == (4, 3)
    assert np.allclose(sub, full[np.ix_(rows, cols)], rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------- volume formula


def test_volume_formula_close_to_oracle(saddle_2000, saddle_oracle_volume):
    res = hull_volume(saddle_2000)
    gap = abs(res.volume - saddle_oracle_volume) / saddle_oracle_volume
    assert gap < 1e-4
    assert set(res.as_dict()) == {"volume", "error_estimate"}
    assert res.n == 2000


def test_volume_error_estimate_matches_half_resolution(saddle_curve):
    sc = sample_uniform(saddle_curve, 500)
    res = hull_volume(sc, with_error_estimate=True)
    half = SampledCurve.from_points(sc.points[::2])
    expected = abs(res.volume - hull_volume(half, force=True).volume)
    assert res.error_estimate == pytest.approx(expected, abs=1e-15)
    assert res.error_estimate > 0


def test_volume_rejects_planar_curves():
    sc = sample_uniform(gallery.get("ellipse").curve, 200)
    with pytest.raises(PlanarCurveError):
        hull_volume(sc)


def test_volume_gate_rejects_wrong_vertex_count():
    sc = sample_uniform(gallery.get("wobble:k=3").curve, 500)
    with pytest.raises(VertexCountError):
        hull_volume(sc)
    assert hull_volume(sc, force=True).volume > 0


def test_volume_orientation_reversal_invariance(saddle_curve):
    sc = sample_uniform(saddle_curve, 400)
    rev = SampledCurve.from_points(sc.points[::-1])
    v_f = hull_volume(sc, force=True).volume
    v_r = hull_volume(rev, force=True).volume
    assert v_f == pytest.approx(v_r, rel=1e-12)


def test_volume_scaling_by_two_is_exact(saddle_curve):
    sc = sample_uniform(saddle_curve, 250)
    v = hull_volume(sc, force=True).volume
    v2 = hull_volume(SampledCurve.from_points(sc.points * 2.0), force=True).volume
    assert v2 == 8.0 * v  # powers of two scale every product exactly


def test_volume_rigid_motion_invariance(saddle_curve, rng):
    sc = sample_uniform(saddle_curve, 250)
    v = hull_volume(sc, force=True).volume
    moved = SampledCurve.from_points(sc.points @ random_rotation(rng).T + [5.0, -2.0, 11.0])
    v2 = hull_volume(moved, force=True).volume
    assert v2 == pytest.approx(v, rel=1e-9)


# ---------------------------------------------------------------- classification


def test_adjacent_pair_labels_at_odd_resolution(saddle_curve):
    sc = sample_uniform(saddle_curve, 201)
    idx = np.arange(sc.n)
    labels = classify_pairs(sc, idx, idx)
    off_diag = idx[:, None] != idx[None, :]
    counts = {
        k: int((labels[off_diag] == k).sum()) for k in ("interior", "boundary", "degenerate")
    }
    # breaking the even-n symmetry exposes genuine boundary transitions
    assert counts == {"interior": 39006, "boundary": 197, "degenerate": 997}
    mesh = build_hull(sc.points)
    i, j = np.nonzero((labels == "boundary") & off_diag)
    centroids = (sc.points[(i + 1) % sc.n] + sc.points[j] + sc.points[(j + 1) % sc.n]) / 3.0
    worst_boundary = float(np.max(np.abs(signed_distance(mesh, centroids))))
    assert worst_boundary <= mesh.eps


def test_classification_flags_coplanar_flips_at_even_resolution(saddle_curve):
    # with n even the saddle is antipodally symmetric and every sign
    # transition involves an exactly coplanar quadruple
    sc = sample_uniform(saddle_curve, 200)
    idx = np.arange(200)
    labels = classify_pairs(sc, idx, idx)
    boundary = int(((labels == "boundary") & (idx[:, None] != idx[None, :])).sum())
    assert boundary == 0


@pytest.mark.parametrize(
    "name, n", [("saddle", 201), ("saddle", 200), ("baseball", 151), ("wobble:k=3", 160)]
)
def test_classify_pairs_matches_per_pair_signs(name, n):
    # the sign rule applied pair by pair to the determinant form of V_ij;
    # row i + 1 of the reference holds V_{i+1,j}
    sc = sample_uniform(gallery.get(name).curve, n)
    floor = DEGENERACY_RTOL * sc.total_length**3
    ref = np.array([[signed_tetra_volume(sc, i, j) for j in range(n)] for i in range(n)])
    ref_next = np.roll(ref, -1, axis=0)

    def label(v1, v2):
        if abs(v1) <= floor or abs(v2) <= floor:
            return "degenerate"
        return "interior" if (v1 > 0) == (v2 > 0) else "boundary"

    want = np.array([[label(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(ref, ref_next)])
    labels = classify_pairs(sc, np.arange(n), np.arange(n))
    # the two volume grids the labels are read from
    v_first = tetra_volume_matrix(sc, np.arange(n), np.arange(n))
    v_second = tetra_volume_matrix(sc, (np.arange(n) + 1) % n, np.arange(n))
    assert labels.shape == (n, n)
    assert np.argwhere(labels != want).tolist() == []
    assert np.max(np.abs(v_first - ref)) <= 1e-15
    assert np.max(np.abs(v_second - ref_next)) <= 1e-15


# ---------------------------------------------------------------- multiplicity


def test_origin_is_covered_four_times(saddle_2000):
    assert estimate_covering_multiplicity(saddle_2000, (0, 0, 0)) == 4


def test_multiplicity_rejects_a_point_that_is_not_one_finite_3_vector(saddle_2000):
    for point in [(1.0, 2.0), (0.0, np.nan, 0.0)]:
        with pytest.raises(ValueError):
            estimate_covering_multiplicity(saddle_2000, point)


def test_multiplicity_takes_one_point_or_an_array_of_them(saddle_2000):
    # one 3-vector gives an int, an (m, 3) array the m counts, as
    # signed_distance takes its points
    one = estimate_covering_multiplicity(saddle_2000, np.zeros(3))
    assert type(one) is int and one == 4
    many = estimate_covering_multiplicity(saddle_2000, [(0, 0, 0), (5, 5, 5), (0, 0, 0)])
    assert many.dtype == np.int64 and many.tolist() == [4, 0, 4]
    assert estimate_covering_multiplicity(saddle_2000, [(0, 0, 0)]).tolist() == [4]
    none = estimate_covering_multiplicity(saddle_2000, np.zeros((0, 3)))
    assert none.dtype == np.int64 and none.shape == (0,)
    for point in [np.zeros((2, 2)), [(0.0, 0.0, 0.0), (0.0, np.inf, 0.0)], np.zeros((1, 1, 3))]:
        with pytest.raises(ValueError):
            estimate_covering_multiplicity(saddle_2000, point)


def barycentric_count(points, p):
    """Reference: ordered non-adjacent edge pairs whose tetrahedron holds p,
    by barycentric coordinates from np.linalg.solve, and the smallest
    |coordinate| seen. Flat tetrahedra (|6 V| <= 1e-14 L^3) hold nothing."""
    n = len(points)
    i, j = np.triu_indices(n, k=2)
    i, j = i[j - i < n - 1], j[j - i < n - 1]
    corners = np.stack([points[i], points[i + 1], points[j], points[(j + 1) % n]], axis=2)
    a = np.concatenate([corners, np.ones((len(i), 1, 4))], axis=1)
    length = np.linalg.norm(points - np.roll(points, -1, axis=0), axis=1).sum()
    a = a[np.abs(np.linalg.det(a)) > 1e-14 * length**3]
    lam = np.linalg.solve(a, np.broadcast_to(np.append(p, 1.0), (len(a), 4))[..., None])[..., 0]
    return 2 * int(np.count_nonzero((lam > 0).all(axis=1))), float(np.abs(lam).min())


@functools.lru_cache(maxsize=None)
def _probe_curve(name, n):
    sc = sample_uniform(gallery.get(name).curve, n)
    return sc, build_hull(sc.points)


def test_points_outside_the_hull_count_zero():
    # no tetrahedron of two edges leaves the hull, so a point off it, however
    # near, is held by none: facet centroids pushed out along the normal
    for name in ("saddle", "baseball", "wobble:k=3"):
        sc, mesh = _probe_curve(name, 500)
        centroids = sc.points[mesh.facets[::10]].mean(axis=1)
        normals = mesh.normals[::10]
        for push in (1e-6, 1e-3, 0.1, 1.5):
            probes = centroids + push * normals
            assert np.all(signed_distance(mesh, probes) > 0.5 * push)
            counts = {estimate_covering_multiplicity(sc, p) for p in probes}
            assert counts == {0}, (name, push)


@given(
    name=st.sampled_from(["saddle", "baseball", "wobble:k=3"]),
    n=st.integers(min_value=64, max_value=700),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mode=st.sampled_from(["default", "default", "near_sample", "near_edge"]),
)
@example(name="saddle", n=700, seed=0, mode="origin")
@example(name="saddle", n=64, seed=1, mode="near_sample")
@example(name="baseball", n=64, seed=2, mode="near_edge")
# the screen's blocks of samples: a loop shorter than one block, a last block
# of one sample and padding, and an edge across the first block boundary
@example(name="saddle", n=_SCREEN_BLOCK - 4, seed=3, mode="default")
@example(name="saddle", n=_SCREEN_BLOCK - 4, seed=4, mode="near_sample")
@example(name="saddle", n=4 * _SCREEN_BLOCK + 1, seed=5, mode="near_sample")
@example(name="baseball", n=4 * _SCREEN_BLOCK + 1, seed=6, mode="default")
@example(name="saddle", n=4 * _SCREEN_BLOCK + 1, seed=7, mode="block_edge")
@example(name="baseball", n=300, seed=8, mode="block_edge")
# the knotted trefoil buries samples, so some blocks have wide cones
@example(name="trefoil", n=300, seed=9, mode="default")
@example(name="trefoil", n=4 * _SCREEN_BLOCK + 1, seed=10, mode="near_sample")
@settings(max_examples=60, deadline=None)
def test_tetra_count_matches_barycentric_reference(name, n, seed, mode):
    # near_edge puts the probe inside the ball on one edge as diameter, so the
    # edge subtends 2 theta >= pi and every pair is tested; near_sample puts it
    # one edge length from a sample, where the screen passes most pairs;
    # block_edge is near_edge on the edge from the first block to the second
    sc, mesh = _probe_curve(name, n)
    rng = np.random.default_rng(seed)
    k = _SCREEN_BLOCK - 1 if mode == "block_edge" else rng.integers(n)
    inward = sc.points.mean(axis=0) - sc.points[k]
    inward /= np.linalg.norm(inward)
    h = sc.total_length / n
    if mode == "origin":
        p = np.zeros(3)  # chords through it end at the samples nearest it
    elif mode == "near_sample":
        p = sc.points[k] + h * inward
    elif mode in ("near_edge", "block_edge"):
        p = (sc.points[k] + sc.points[(k + 1) % n]) / 2 + 0.25 * h * inward
        q = sc.points[[k, (k + 1) % n]] - p
        assert q[0] @ q[1] < 0
    else:
        p = rng.dirichlet(np.ones(4)) @ sc.points[rng.choice(n, 4, replace=False)]
    if signed_distance(mesh, p) >= -mesh.eps:
        return  # the probe landed on the hull boundary
    expected, closest = barycentric_count(sc.points, p)
    if closest <= 1e-9:
        return  # the probe lies on a face: the reference cannot decide
    assert estimate_covering_multiplicity(sc, p) == expected


def test_count_on_a_buried_sample_is_the_count_beside_it():
    # a knotted loop buries samples inside its hull; a probe on one has
    # q_k = 0, where no unit direction exists, every pair is tested and the
    # faces through r_k take their sign at p + eps D
    sc = sample_uniform(gallery.get("trefoil").curve, 300)
    buried = is_convex_curve(sc).buried.tolist()
    assert len(buried) > 0
    counts = [estimate_covering_multiplicity(sc, sc.points[k]) for k in buried]
    beside = [
        estimate_covering_multiplicity(sc, sc.points[k] + 1e-9 * _NUDGE)
        for k in buried
    ]
    assert counts == beside
    assert counts[:: len(buried) // 6] == [4, 16, 4, 12, 4, 12, 8]


@pytest.mark.parametrize("name", ["saddle", "baseball"])
@pytest.mark.parametrize("n", [400, 501])
def test_count_on_chords_and_faces_is_four(name, n):
    # probes on a chord or on a face of two tetrahedra, where a face sign
    # computed as 0 or as rounding noise would count 2 or 6
    sc, mesh = _probe_curve(name, n)
    r = sc.points
    rng = np.random.default_rng(n)
    i, j = rng.integers(n, size=(2, 600))
    i, j = i[(j - i) % n > 1], j[(j - i) % n > 1]
    t = rng.uniform(size=len(i))[:, None]
    probes = np.concatenate([
        (r[i] + r[j]) / 2,  # chord midpoints
        (1 - t) * r[i] + t * r[j],  # random points on chords
        (r[(i + 1) % n] + r[j] + r[(j + 1) % n]) / 3,  # face centroids
        [[0, 0, 0], [0.3, 0.1, 0.0], [-0.2, 0.4, 0.1], [0.0, 0.0, 0.6]],  # demo 03's
    ])
    probes = probes[signed_distance(mesh, probes) <= -0.01 * sc.total_length]
    assert len(probes) > 300
    counts = [estimate_covering_multiplicity(sc, p) for p in probes]
    assert set(counts) == {4}


@pytest.mark.parametrize("name", ["saddle", "baseball", "wobble:k=3"])
def test_mean_count_is_the_double_sum_over_the_hull(name):
    # sum |V_ij| = integral of m over the hull, so the mean count over
    # uniform interior probes, with no margin, is sum |V_ij| / V_hull
    sc, mesh = _probe_curve(name, 1000)
    rng = np.random.default_rng(7)
    box = rng.uniform(sc.points.min(axis=0), sc.points.max(axis=0), size=(2000, 3))
    probes = box[signed_distance(mesh, box) < -mesh.eps][:600]
    assert len(probes) == 600
    counts = np.array([estimate_covering_multiplicity(sc, p) for p in probes])
    predicted = _abs_double_sum(sc.points) / mesh_volume(mesh)
    if name == "wobble:k=3":
        mean, err = counts.mean(), counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(mean - predicted) <= 3 * err
    else:
        assert set(counts.tolist()) == {4}
        assert predicted == pytest.approx(4.0, rel=1e-12)


def _mixed_probes(sc, mesh, seed):
    """Probes of every kind the count treats apart: fan draws, samples,
    points 1e-6 h from a sample, points near an edge (the edge across the
    first block boundary among them) and points outside the hull."""
    r, n = sc.points, sc.n
    rng = np.random.default_rng(seed)
    h = sc.total_length / n
    inward = r.mean(axis=0) - r
    inward /= np.linalg.norm(inward, axis=1)[:, None]
    apex, corners, six_volumes = fan_tetrahedra(mesh)
    pick = rng.choice(len(six_volumes), size=24, p=six_volumes / six_volumes.sum())
    weights = rng.dirichlet(np.ones(4), size=24)
    fan = apex + sum(weights[:, k + 1, None] * c[pick] for k, c in enumerate(corners))
    k = rng.choice(n, size=8, replace=False)
    edges = np.append(rng.choice(n, size=6), [min(_SCREEN_BLOCK - 1, n - 2), n - 1])
    near_edge = (r[edges] + r[(edges + 1) % n]) / 2 + 0.25 * h * inward[edges]
    facets = rng.choice(mesh.n_facets, size=8)
    outside = r[mesh.facets[facets]].mean(axis=1) + 1e-6 * mesh.normals[facets]
    probes = np.concatenate(
        [fan, r[k[:4]], r[k[4:]] + 1e-6 * h * inward[k[4:]], near_edge, outside, [[0, 0, 0]]]
    )
    return probes[rng.permutation(len(probes))]


@pytest.mark.parametrize(
    "name, n, chunks",
    [("saddle", 20, 1), ("baseball", 4 * _SCREEN_BLOCK + 1, 1), ("wobble:k=3", 400, 3)],
)
def test_array_count_is_the_count_of_each_point(name, n, chunks):
    # the probes of a chunk are counted together, each with its own bound,
    # cones and face signs, so grouping them changes no count
    sc, mesh = _probe_curve(name, n)
    probes = _mixed_probes(sc, mesh, n)
    assert -(-len(probes) // (_PROBE_ROWS // n)) == chunks
    counts = estimate_covering_multiplicity(sc, probes)
    assert counts.tolist() == [estimate_covering_multiplicity(sc, p) for p in probes]
    assert set(counts.tolist()) >= {0, 4}


def test_count_memory_grows_linearly_in_n():
    # on a sample q_k = 0, so every pair passes the screen: gathering them
    # all would grow the peak 4x from n to 2n, testing a block at a time 2x
    peaks = []
    for n in (2000, 4000):
        sc = sample_uniform(gallery.get("saddle").curve, n)
        tracemalloc.start()
        try:
            estimate_covering_multiplicity(sc, sc.points[n // 3])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3 * peaks[0]


def test_histogram_memory_does_not_grow_with_the_probe_count():
    # the probes are counted a chunk at a time, so 8x the probes is not 8x
    # the temporaries
    sc, mesh = _probe_curve("saddle", 1000)
    peaks = []
    for probes in (50, 400):
        tracemalloc.start()
        try:
            histogram, _ = covering_histogram(sc, mesh, probes, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sum(histogram.values()) == probes
    assert peaks[1] < 1.5 * peaks[0]


def test_lifted_circle_gets_every_probe():
    # the loop is 1e-8 thick: a box draw almost never lands inside, but a
    # draw from the hull's own tetrahedron fan always does
    sc = SampledCurve.from_points(lifted_circle_points())
    mesh = build_hull(sc.points)
    histogram, counters = covering_histogram(sc, mesh, 5, 0)
    assert histogram == {4: 5}
    assert counters == {
        "requested": 5,
        "evaluated": 5,
        "rejected_outside": 0,
        "rejected_near_boundary": 0,
        "chord_failures": 0,
    }


@pytest.mark.parametrize("name", ["saddle", "wobble:k=3"])
@pytest.mark.parametrize("seed", [0, 1, 2, 42])
def test_probes_clear_the_boundary_by_a_share_of_the_apex_depth(name, seed, monkeypatch):
    # a draw scaled by 0.85 about the apex keeps 0.15 of the apex's depth:
    # the ball about the apex shrinks into the hull
    sc, mesh = _probe_curve(name, 400)
    drawn = []

    def record(curve, point):
        assert np.shape(point) == (200, 3)  # one call with every probe
        drawn.extend(point)
        return np.full(len(point), 4)

    monkeypatch.setattr("curvehull.quadrature.estimate_covering_multiplicity", record)
    histogram, counters = covering_histogram(sc, mesh, 200, seed)
    assert histogram == {4: 200}
    assert counters["evaluated"] == len(drawn) == 200
    depth = -signed_distance(mesh, fan_tetrahedra(mesh)[0])
    assert np.all(signed_distance(mesh, np.array(drawn)) <= -0.15 * depth)


def test_fan_tetrahedra_partition_the_hull():
    # an interior apex and outward facets give positive tetrahedra that add
    # up to qhull's own volume, so volume-weighted draws are uniform in it
    from scipy.spatial import ConvexHull

    sc, mesh = _probe_curve("baseball", 300)
    apex, corners, six_volumes = fan_tetrahedra(mesh)
    assert signed_distance(mesh, apex) < -mesh.eps
    assert np.all(six_volumes > 0)
    assert all(c.shape == (mesh.n_facets, 3) for c in corners)
    assert six_volumes.sum() / 6.0 == pytest.approx(ConvexHull(sc.points).volume, rel=1e-12)
    assert mesh_volume(mesh) == float(six_volumes.sum() / 6.0)


# ---------------------------------------------------------------- planar area


def test_unit_square_area_exact():
    sq = SampledCurve.from_points([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    assert planar_area_integral(sq) == 1.0


def test_rotated_triangle_area(rng):
    tri = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    rot = random_rotation(rng)
    loop = SampledCurve.from_points(tri @ rot.T + np.array([2.0, -1.0, 0.5]))
    assert planar_area_integral(loop) == pytest.approx(0.5, abs=1e-12)


def test_circle_area_converges():
    sc = sample_uniform(gallery.get("ellipse:a=1,b=1").curve, 10_000)
    assert planar_area_integral(sc) == pytest.approx(np.pi, abs=1e-6)


def test_circle_area_far_from_the_origin_keeps_its_digits():
    # the cross products are taken about the centroid; on raw coordinates
    # the 1e6 shift cost 4.35e-05 of the area
    sc = sample_uniform(gallery.get("ellipse:a=1,b=1").curve, 400)
    far = SampledCurve.from_points(sc.points + 1e6 * np.array([0.3, -0.97, 0.54]))
    assert planar_area_integral(far) == pytest.approx(planar_area_integral(sc), rel=1e-9)


def test_area_rejects_nonplanar_curves(saddle_2000):
    with pytest.raises(NonPlanarCurveError):
        planar_area_integral(saddle_2000)


def test_ellipse_area_formula():
    sc = sample_uniform(gallery.get("ellipse:a=2,b=1").curve, 5000)
    assert planar_area_integral(sc) == pytest.approx(2 * np.pi, rel=1e-6)
