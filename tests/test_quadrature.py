import functools
import math

import numpy as np
import pytest
from conftest import random_rotation
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvehull import (
    ChordSearchError,
    NonPlanarCurveError,
    OutsideHullError,
    PlanarCurveError,
    SampledCurve,
    VertexCountError,
    build_hull,
    classify_adjacent_pair,
    classify_pairs,
    estimate_covering_multiplicity,
    gallery,
    hull_volume,
    is_convex_curve,
    planar_area_integral,
    sample_uniform,
    signed_distance,
    signed_tetra_volume,
    tetra_volume_matrix,
    triple_product,
)
from curvehull.quadrature import (
    CHORD_TOL_FACTOR,
    CLUSTER_GAP,
    DEGENERACY_RTOL,
    _abs_double_sum,
    _near_chords,
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


def test_both_tetra_forms_agree_on_curve_pairs(saddle_2000):
    rng = np.random.default_rng(3)
    for _ in range(200):
        i, j = rng.integers(0, saddle_2000.n, size=2)
        v1 = signed_tetra_volume(saddle_2000, int(i), int(j))
        v2 = signed_tetra_volume(saddle_2000, int(i), int(j), chord_form=True)
        assert v1 == pytest.approx(v2, abs=1e-15)


def test_matrix_matches_per_pair_values():
    sc = sample_uniform(gallery.get("saddle").curve, 40)
    mat = tetra_volume_matrix(sc)
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
    full = tetra_volume_matrix(sc)
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
    assert res.multiplicity == 4
    assert res.n == 2000


def test_volume_thread_count_does_not_change_bits(saddle_2000):
    v1 = hull_volume(saddle_2000, threads=1, force=True).volume
    v3 = hull_volume(saddle_2000, threads=3, force=True).volume
    v7 = hull_volume(saddle_2000, threads=7, force=True).volume
    assert v1 == v3 == v7


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


def test_volume_multiplicity_must_be_at_least_one(saddle_2000):
    # m = 0 would divide by zero and m = -4 would give a negative volume
    for m in (0, -4):
        for force in (False, True):
            with pytest.raises(ValueError, match="at least 1"):
                hull_volume(saddle_2000, multiplicity=m, force=force)
    assert hull_volume(saddle_2000, multiplicity=1, force=True).volume > 0


def test_volume_orientation_reversal_invariance(saddle_curve):
    sc = sample_uniform(saddle_curve, 400)
    rev = SampledCurve.from_points(sc.points[::-1])
    v_f = hull_volume(sc, force=True).volume
    v_r = hull_volume(rev, force=True).volume
    assert v_f == pytest.approx(v_r, rel=1e-12)


def test_volume_scaling_by_two_is_exact(saddle_curve):
    sc = sample_uniform(saddle_curve, 250)
    v = hull_volume(sc, force=True).volume
    v2 = hull_volume(sc.scaled(2.0), force=True).volume
    assert v2 == 8.0 * v  # powers of two scale every product exactly


def test_volume_rigid_motion_invariance(saddle_curve, rng):
    sc = sample_uniform(saddle_curve, 250)
    v = hull_volume(sc, force=True).volume
    moved = sc.transformed(rotation=random_rotation(rng), offset=[5.0, -2.0, 11.0])
    v2 = hull_volume(moved, force=True).volume
    assert v2 == pytest.approx(v, rel=1e-9)


# ---------------------------------------------------------------- classification


def test_adjacent_pair_labels_at_odd_resolution(saddle_curve):
    sc = sample_uniform(saddle_curve, 201)
    idx = np.arange(sc.n)
    labels = classify_pairs(sc, idx, idx)[0]
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
    labels = classify_pairs(sc, idx, idx)[0]
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
    labels, v_first, v_second = classify_pairs(sc, np.arange(n), np.arange(n))
    assert labels.shape == (n, n)
    assert np.argwhere(labels != want).tolist() == []
    assert np.max(np.abs(v_first - ref)) <= 1e-15
    assert np.max(np.abs(v_second - ref_next)) <= 1e-15


def test_classify_adjacent_pair_is_one_cell_of_the_grid(saddle_curve):
    sc = sample_uniform(saddle_curve, 201)
    n = sc.n
    labels, v_first, v_second = classify_pairs(sc, np.arange(n), np.arange(n))
    bi, bj = np.nonzero(labels == "boundary")
    pairs = set(zip(bi.tolist(), bj.tolist()))
    pairs |= {(i, j) for i in range(0, n, 7) for j in range(n)}
    for i, j in sorted(pairs):
        c = classify_adjacent_pair(sc, i, j)
        assert c.label == labels[i, j]
        assert abs(c.v_first - v_first[i, j]) <= 1e-15
        assert abs(c.v_second - v_second[i, j]) <= 1e-15
        want = ((i + 1) % n, j, (j + 1) % n) if c.label == "boundary" else None
        assert c.triangle == want
    # indices wrap around the loop
    assert classify_adjacent_pair(sc, int(bi[0]) + n, int(bj[0]) - n).label == "boundary"


# ---------------------------------------------------------------- multiplicity


def test_origin_is_covered_four_times(saddle_2000):
    mesh = build_hull(saddle_2000.points)
    assert estimate_covering_multiplicity(saddle_2000, (0, 0, 0), mesh=mesh) == 4


def test_multiplicity_rejects_outside_points(saddle_2000):
    mesh = build_hull(saddle_2000.points)
    with pytest.raises(OutsideHullError):
        estimate_covering_multiplicity(saddle_2000, (5, 5, 5), mesh=mesh)


def test_multiplicity_reports_failed_chord_search(saddle_2000):
    mesh = build_hull(saddle_2000.points)
    with pytest.raises(ChordSearchError):
        estimate_covering_multiplicity(
            saddle_2000, (0, 0, 0), mesh=mesh, delta=1e-15
        )


def full_scan_hits(points, p, delta):
    """Reference: every chord i < j within delta of p, by one full scan."""
    iu, ju = np.triu_indices(len(points), k=1)
    a = points[iu]
    ab = points[ju] - a
    ap = p - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.einsum("ij,ij->i", ap, ab) / denom, 0.0, 1.0)
    dist = np.linalg.norm(ap - t[:, None] * ab, axis=1)
    near = dist <= delta
    return {(int(i), int(j)) for i, j in zip(iu[near], ju[near])}


def bfs_cluster_count(hits, n):
    """Reference: clusters of the ordered hits by a depth-first flood fill."""
    hit_set = set(hits) | {(j, i) for i, j in hits}
    offsets = [
        (di, dj)
        for di in range(-CLUSTER_GAP, CLUSTER_GAP + 1)
        for dj in range(-CLUSTER_GAP, CLUSTER_GAP + 1)
        if (di, dj) != (0, 0)
    ]
    seen, clusters = set(), 0
    for start in sorted(hit_set):
        if start in seen:
            continue
        clusters += 1
        stack = [start]
        seen.add(start)
        while stack:
            ci, cj = stack.pop()
            for di, dj in offsets:
                nb = ((ci + di) % n, (cj + dj) % n)
                if nb in hit_set and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return clusters


@functools.lru_cache(maxsize=None)
def _probe_curve(name, n):
    sc = sample_uniform(gallery.get(name).curve, n)
    return sc, build_hull(sc.points)


@given(
    name=st.sampled_from(["saddle", "baseball", "wobble:k=3"]),
    n=st.integers(min_value=64, max_value=700),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mode=st.sampled_from(["default", "default", "near_sample", "wide", "tiny"]),
)
@example(name="saddle", n=700, seed=0, mode="origin")
@example(name="saddle", n=64, seed=1, mode="near_sample")
@settings(max_examples=60, deadline=None)
def test_chord_search_matches_full_scan(name, n, seed, mode):
    # The hits must be the very pairs a full scan finds, not only give the
    # same cluster count; near_sample and wide force the exhaustive branch
    # (a sample within delta of the probe), tiny leaves no hit at all.
    sc, mesh = _probe_curve(name, n)
    rng = np.random.default_rng(seed)
    delta = CHORD_TOL_FACTOR * sc.total_length / n
    if mode == "origin":
        p = np.zeros(3)  # chords through it end at the samples nearest it
    elif mode == "near_sample":
        k = rng.integers(n)
        inward = sc.points.mean(axis=0) - sc.points[k]
        p = sc.points[k] + 0.5 * delta * inward / np.linalg.norm(inward)
    else:
        p = rng.dirichlet(np.ones(4)) @ sc.points[rng.choice(n, 4, replace=False)]
    if signed_distance(mesh, p) >= -mesh.eps:
        return  # the probe landed on the hull boundary
    if mode == "wide":
        delta = float(np.linalg.norm(sc.points - p, axis=1).min())
    elif mode == "tiny":
        delta = 1e-15
    i, j = _near_chords(sc.points, p, delta)
    expected = full_scan_hits(sc.points, p, delta)
    assert set(zip(i.tolist(), j.tolist())) == expected
    assert len(i) == len(expected)
    if not expected:
        with pytest.raises(ChordSearchError):
            estimate_covering_multiplicity(sc, p, mesh=mesh, delta=delta)
    else:
        m = estimate_covering_multiplicity(sc, p, mesh=mesh, delta=delta)
        assert m == bfs_cluster_count(expected, n)


def test_chord_search_with_probe_on_a_buried_sample():
    # a knotted loop buries samples inside its hull; a probe on one has
    # d_min = 0, where no unit direction exists and every pair is tested
    sc = sample_uniform(gallery.get("trefoil").curve, 300)
    mesh = build_hull(sc.points)
    delta = CHORD_TOL_FACTOR * sc.total_length / sc.n
    buried = is_convex_curve(sc).non_extreme
    assert len(buried) > 0
    for k in buried[:: max(1, len(buried) // 3)]:
        p = sc.points[k]
        i, j = _near_chords(sc.points, p, delta)
        expected = full_scan_hits(sc.points, p, delta)
        assert set(zip(i.tolist(), j.tolist())) == expected
        assert estimate_covering_multiplicity(sc, p, mesh=mesh) == bfs_cluster_count(
            expected, sc.n
        )


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


def test_area_rejects_nonplanar_curves(saddle_2000):
    with pytest.raises(NonPlanarCurveError):
        planar_area_integral(saddle_2000)


def test_ellipse_area_formula():
    sc = sample_uniform(gallery.get("ellipse:a=2,b=1").curve, 5000)
    assert planar_area_integral(sc) == pytest.approx(2 * np.pi, rel=1e-6)
