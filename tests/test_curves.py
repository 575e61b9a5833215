import numpy as np
import pytest
from conftest import random_rotation

from curvehull import (
    AnalyticCurve,
    DegenerateCurveError,
    NotClosedError,
    SampledCurve,
    build_hull,
    count_vertices,
    discrete_frenet_profile,
    frenet_profile,
    gallery,
    is_convex_curve,
    piecewise_linear,
    planarity_check,
    sample_uniform,
    signed_distance,
)

TWO_PI = 2.0 * np.pi


def circle_curve():
    return gallery.get("ellipse:a=1,b=1").curve


def helix_curve(with_derivatives=True):
    def pos(t):
        return np.stack([np.cos(t), np.sin(t), t], axis=-1)

    def d1(t):
        return np.stack([-np.sin(t), np.cos(t), np.ones_like(t)], axis=-1)

    def d2(t):
        return np.stack([-np.cos(t), -np.sin(t), np.zeros_like(t)], axis=-1)

    def d3(t):
        return np.stack([np.sin(t), -np.cos(t), np.zeros_like(t)], axis=-1)

    if with_derivatives:
        return AnalyticCurve(pos, TWO_PI, d1, d2, d3)
    return AnalyticCurve(pos, TWO_PI)


# ---------------------------------------------------------------- sampling


def test_circle_four_samples_land_on_axes():
    sc = sample_uniform(circle_curve(), 4)
    expected = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], float)
    assert np.allclose(sc.points, expected, atol=1e-6)


@pytest.mark.parametrize("spec,n", [("saddle", 125), ("saddle", 500), ("ellipse", 125)])
def test_edge_lengths_nearly_uniform(spec, n):
    sc = sample_uniform(gallery.get(spec).curve, n)
    lengths = np.linalg.norm(sc.edges, axis=1)
    target = sc.total_length / n
    assert np.max(np.abs(lengths - target)) <= 0.01 * target


def test_arc_length_table_structure(saddle_curve):
    sc = sample_uniform(saddle_curve, 333)
    assert sc.arc_lengths[0] == 0.0
    assert sc.arc_lengths[-1] == pytest.approx(sc.total_length)
    assert np.all(np.diff(sc.arc_lengths) > 0)
    assert len(sc.arc_lengths) == sc.n + 1


def test_saddle_length_matches_brute_force_chord_sum(saddle_curve):
    # reference: one million chords along the same parameterization; the
    # 1000-gon undershoots it by the usual h^2 chord deficit, about 1e-4 here,
    # and quarters when n doubles
    t = np.linspace(0.0, TWO_PI, 1_000_001)
    p = saddle_curve(t)
    ref = float(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)))
    gap_1000 = ref - sample_uniform(saddle_curve, 1000).total_length
    gap_2000 = ref - sample_uniform(saddle_curve, 2000).total_length
    assert 0.0 < gap_1000 < 2.5e-4
    assert gap_2000 == pytest.approx(gap_1000 / 4.0, rel=0.05)


def test_open_curve_rejected_by_sampler():
    with pytest.raises(NotClosedError):
        sample_uniform(helix_curve(), 64)


def test_sampler_needs_at_least_four_points(saddle_curve):
    with pytest.raises(ValueError):
        sample_uniform(saddle_curve, 3)


def test_resampling_equal_chord_loop_is_exact():
    # a uniformly sampled circle has equal chords, so resampling its polyline
    # at the same n lands back on the vertices to roundoff
    circle = gallery.get("ellipse:a=1,b=1").curve
    sc = sample_uniform(circle, 256)
    again = sample_uniform(piecewise_linear(sc), 256)
    assert np.allclose(again.points, sc.points, atol=1e-9)


def test_resampling_uniform_loop_is_nearly_idempotent(saddle_curve):
    # arc-uniform samples of a curved loop are only chord-uniform to O(h^2),
    # so one resampling round trip moves points by ~4e-5 at n = 256, not zero
    sc = sample_uniform(saddle_curve, 256)
    again = sample_uniform(piecewise_linear(sc), 256)
    assert np.allclose(again.points, sc.points, atol=5e-4)
    assert not np.allclose(again.points, sc.points, atol=1e-9)


def test_from_points_rejects_degenerate_input():
    with pytest.raises(DegenerateCurveError):
        SampledCurve.from_points([[0, 0, 0], [1, 0, 0]])
    with pytest.raises(DegenerateCurveError):
        SampledCurve.from_points([[0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        SampledCurve.from_points([[0, 0, np.nan], [1, 0, 0], [0, 1, 0], [1, 1, 0]])


def test_triangle_loop_is_allowed():
    sc = SampledCurve.from_points([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert sc.n == 3
    assert sc.total_length == pytest.approx(2 + np.sqrt(2))


# ---------------------------------------------------------------- frenet data


def test_helix_curvature_and_torsion_exact_derivatives():
    prof = frenet_profile(helix_curve(), 256)
    assert np.allclose(prof.kappa, 0.5, atol=1e-6)
    assert np.allclose(prof.tau, 0.5, atol=1e-6)


def test_helix_finite_difference_fallback():
    prof = frenet_profile(helix_curve(with_derivatives=False), 256)
    # third-derivative roundoff at the fixed step limits torsion to ~5e-6
    assert np.allclose(prof.kappa, 0.5, atol=1e-6)
    assert np.allclose(prof.tau, 0.5, atol=5e-5)


def test_finite_differences_agree_with_exact_derivatives(saddle_curve):
    blind = AnalyticCurve(saddle_curve.position, saddle_curve.period)
    exact = frenet_profile(saddle_curve, 512)
    approx = frenet_profile(blind, 512)
    assert np.allclose(approx.kappa, exact.kappa, atol=1e-7)
    assert np.allclose(approx.tau, exact.tau, atol=5e-5)


def test_saddle_torsion_changes_sign_four_times(saddle_curve):
    rep = count_vertices(frenet_profile(saddle_curve, 100_000))
    assert rep.vertex_count == 4
    assert not rep.is_planar
    assert rep.degenerate_samples == 0


def test_saddle_sign_changes_sit_on_quarter_periods(saddle_curve):
    rep = count_vertices(frenet_profile(saddle_curve, 4096))
    expected = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    got = np.sort(np.array(rep.vertex_params))
    assert np.allclose(got, expected, atol=1e-3)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_wobble_torsion_sign_changes_scale_with_frequency(k):
    rep = count_vertices(frenet_profile(gallery.get(f"wobble:k={k}").curve, 4096))
    assert rep.vertex_count == 2 * k


def test_planar_curve_reports_degenerate_torsion():
    rep = count_vertices(frenet_profile(gallery.get("ellipse").curve, 512))
    assert rep.is_planar
    assert rep.vertex_count == 0
    assert rep.vertex_params == []


def test_discrete_profile_matches_analytic_counts(saddle_curve):
    sc = sample_uniform(saddle_curve, 1000)
    rep = count_vertices(discrete_frenet_profile(sc))
    assert rep.vertex_count == 4
    analytic = frenet_profile(saddle_curve, 1000)
    assert np.max(discrete_frenet_profile(sc).kappa) == pytest.approx(
        np.max(analytic.kappa), rel=1e-3
    )


def test_count_vertices_needs_dense_profile(saddle_curve):
    with pytest.raises(ValueError):
        count_vertices(frenet_profile(saddle_curve, 32))


# ---------------------------------------------------------------- planarity, convexity


def test_saddle_planarity(saddle_2000):
    flat = planarity_check(saddle_2000)
    assert not flat.is_planar
    # the best-fit plane is z = 0; the curve swings a full unit away from it
    assert flat.max_deviation == pytest.approx(1.0, abs=1e-3)


def test_ellipse_planarity():
    sc = sample_uniform(gallery.get("ellipse").curve, 200)
    flat = planarity_check(sc)
    assert flat.is_planar
    assert flat.max_deviation < 1e-12


def test_convexity_saddle():
    sc = sample_uniform(gallery.get("saddle").curve, 500)
    res = is_convex_curve(sc)
    assert res.is_convex
    assert res.non_extreme == []


def test_convexity_trefoil():
    sc = sample_uniform(gallery.get("trefoil").curve, 500)
    res = is_convex_curve(sc)
    assert not res.is_convex
    assert len(res.non_extreme) > 0


def test_convexity_non_extreme_matches_per_point_loop():
    sc = sample_uniform(gallery.get("trefoil").curve, 500)
    mesh = build_hull(sc.points)
    vertices = set(int(v) for v in mesh.vertex_indices)
    expected = [
        i
        for i in range(sc.n)
        if i not in vertices and signed_distance(mesh, sc.points[i]) < -mesh.eps
    ]
    res = is_convex_curve(sc, hull=mesh)
    assert expected
    assert mesh.buried.tolist() == expected
    assert res.non_extreme == expected
    assert all(type(i) is int for i in res.non_extreme)


def test_convexity_plane_tests_each_non_vertex_sample_once(monkeypatch):
    import curvehull.hull as hull_module

    sc = sample_uniform(gallery.get("trefoil").curve, 500)
    n_vertices = build_hull(sc.points).n_vertices
    rows = []

    def counting(mesh, p):
        rows.append(np.asarray(p).reshape(-1, 3).shape[0])
        return signed_distance(mesh, p)

    monkeypatch.setattr(hull_module, "signed_distance", counting)
    res = is_convex_curve(sc)
    assert res.non_extreme
    assert sum(rows) == sc.n - n_vertices


def test_convexity_with_a_prebuilt_hull_matches_on_a_nearly_planar_loop():
    # a five-lobed flower lifted by 4e-9: planar to planarity_check, yet thick
    # enough for build_hull; both calls must take the planar path
    t = np.arange(400) * (2 * np.pi / 400)
    r = 1 + 0.3 * np.cos(5 * t)
    pts = np.stack([r * np.cos(t), r * np.sin(t), 4e-9 * np.sin(3 * t)], axis=1)
    sc = SampledCurve.from_points(pts)
    assert planarity_check(sc).is_planar
    res = is_convex_curve(sc)
    assert len(res.non_extreme) > 0
    assert is_convex_curve(sc, hull=build_hull(pts)).non_extreme == res.non_extreme


def test_convexity_planar_circle():
    sc = sample_uniform(circle_curve(), 200)
    res = is_convex_curve(sc)
    assert res.is_convex


def test_rigid_motion_helpers(rng):
    sc = sample_uniform(gallery.get("saddle").curve, 100)
    rot = random_rotation(rng)
    moved = sc.transformed(rotation=rot, offset=[3.0, -1.0, 2.0])
    assert np.allclose(moved.arc_lengths, sc.arc_lengths)
    assert np.allclose(
        np.linalg.norm(moved.edges, axis=1), np.linalg.norm(sc.edges, axis=1)
    )
