"""The vertex gate: sign changes of the kernel's band V_{i,i+2}, read at the
stride where they settle (quadrature.discrete_vertex_report)."""

import io
import json
from fractions import Fraction

import numpy as np
import pytest
from conftest import triple_product
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from curvehull import (
    AnalyticCurve,
    GateError,
    NonConvexCurveError,
    SampledCurve,
    VertexCountError,
    build_hull,
    count_vertices,
    frenet_profile,
    gallery,
    hull_volume,
    is_convex_curve,
    mesh_volume,
    sample_uniform,
)
from curvehull.cli import main
from curvehull.gallery import _fourier
from curvehull.hull import facet_census
from curvehull.quadrature import discrete_vertex_report

EXPECTED = {"saddle": 4, "baseball": 4, "wobble:k=3": 6}
_SAMPLES = {}


def samples(name, n):
    if (name, n) not in _SAMPLES:
        _SAMPLES[name, n] = sample_uniform(gallery.get(name).curve, n)
    return _SAMPLES[name, n]


def direct_report(points) -> tuple:
    """The gate's stride rule on the direct bracket
    [r_{i+1} - r_i, r_{i+2} - r_i, r_{i+3} - r_i], exact zeros dropped."""

    def count(p):
        r = [np.roll(p, -s, axis=0) for s in range(4)]
        sign = np.sign(triple_product(r[1] - r[0], r[2] - r[0], r[3] - r[0]))
        sign = sign[sign != 0]
        return int(np.count_nonzero(sign != np.roll(sign, 1)))

    counts, k = [count(points)], 1
    while len(points[:: 2 * k]) >= 16:
        counts.append(count(points[:: 2 * k]))
        if counts[-1] == counts[-2]:
            return counts[-2], k, counts[-1]
        k *= 2
    return counts[0], 1, counts[1] if len(counts) > 1 else None


def as_tuple(report) -> tuple:
    return report.vertex_count, report.stride, report.count_at_double_stride


def convex_polygon(name, n, sigma, seed) -> tuple:
    """A noisy gallery polygon in convex position, and its hull: every point
    a hull vertex and every edge a hull edge (other draws are rejected). The
    noise is sigma times the squared mean edge length, the scale of a
    vertex's distance from its neighbours' chord, so that draws of 64 points
    still often stay in convex position."""
    base = samples(name, n)
    noise = np.random.default_rng(seed).standard_normal((n, 3))
    points = base.points + sigma * (base.total_length / n) ** 2 * noise
    mesh = build_hull(points)
    _, k1, k2 = facet_census(mesh)
    assume(mesh.n_vertices == n and mesh.is_convex)
    assume(k1 + 2 * k2 == 2 * n)  # a hull edge lies on two facets
    return points, mesh


@given(
    name=st.sampled_from(sorted(EXPECTED)),
    n=st.integers(12, 64),
    sigma=st.sampled_from([0.02, 0.05, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_formula_is_the_polygon_hull_exactly_when_the_band_changes_sign_four_times(
    name, n, sigma, seed
):
    # the discrete form of the paper's theorem, in floating point
    points, mesh = convex_polygon(name, n, sigma, seed)
    k0, _, k2 = facet_census(mesh)
    assert k2 - k0 == 4  # Euler's formula on a polygon in convex position
    loop = SampledCurve.from_points(points)
    hull = mesh_volume(mesh)
    exact = abs(hull_volume(loop, force=True).volume - hull) <= 1e-12 * hull
    report = discrete_vertex_report(loop)
    event("exact" if exact else "not exact")
    assert exact == (report.vertex_count == 4 and report.stride == 1), as_tuple(report)


def det(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def minus(a, b):
    return [x - y for x, y in zip(a, b)]


@given(
    name=st.sampled_from(sorted(EXPECTED)),
    n=st.integers(12, 20),
    sigma=st.sampled_from([0.02, 0.05, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_the_discrete_theorem_holds_exactly_in_rational_arithmetic(name, n, sigma, seed):
    # the same polygons, their float coordinates read as exact rationals:
    # (1/24) sum |[E_i, r_j - r_i, E_j]| equals the volume of the qhull facets
    # exactly, with no rounding, when the exact band V_{i,i+2} changes sign
    # 4 times, and differs from it otherwise. At n <= 20 the stride-2 loop
    # is too short to count on, so the band is read at stride 1 only
    points, mesh = convex_polygon(name, n, sigma, seed)
    k0, _, k2 = facet_census(mesh)
    assert k2 - k0 == 4
    r = [[Fraction(x) for x in row] for row in points.tolist()]
    e = [minus(r[(i + 1) % n], r[i]) for i in range(n)]
    formula = sum(abs(det(e[i], minus(r[j], r[i]), e[j])) for i in range(n) for j in range(n))
    fan = sum(det(r[a], r[b], r[c]) for a, b, c in mesh.facets.tolist())  # apex at the origin
    band = [det(e[i], minus(r[(i + 2) % n], r[i]), minus(r[(i + 3) % n], r[i])) for i in range(n)]
    sign = [v > 0 for v in band if v != 0]
    changes = sum(a != b for a, b in zip(sign, sign[1:] + sign[:1]))
    exact = formula / 24 == fan / 6
    event("exact" if exact else "not exact")
    assert exact == (changes == 4), changes


@given(
    name=st.sampled_from(sorted(EXPECTED)),
    kind=st.sampled_from(["clean", "round6", "round5", "jitter1e-7", "jitter1e-6"]),
    uneven=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rounded_jittered_and_uneven_files_read_the_curve_count(name, kind, uneven, seed):
    # 2000 samples shifted by a seeded offset, so the rounding differs per
    # draw, then written as a file would be, and perhaps 1500 of them kept
    rng = np.random.default_rng(seed)
    points = samples(name, 2000).points + rng.uniform(-1.0, 1.0, 3)
    fmt = "%.17g"
    if kind.startswith("round"):
        fmt = f"%.{kind[-1]}f"
    elif kind.startswith("jitter"):
        points = points + rng.normal(scale=float(kind[len("jitter"):]), size=points.shape)
    text = io.StringIO()
    np.savetxt(text, points, fmt=fmt)
    points = np.loadtxt(io.StringIO(text.getvalue()))
    if uneven:
        points = points[np.sort(rng.choice(2000, 1500, replace=False))]
    report = discrete_vertex_report(SampledCurve.from_points(points))
    assert report.vertex_count == EXPECTED[name], as_tuple(report)
    assert report.count_at_double_stride == report.vertex_count
    # rounding decides the exact zeros, and the kernel's factors drop the
    # same ones as the direct bracket
    assert as_tuple(report) == direct_report(points)


@pytest.mark.parametrize("name", sorted(EXPECTED))
@pytest.mark.parametrize("n", [16, 50, 300, 2000])
def test_exact_gallery_samples_settle_at_stride_one(name, n):
    report = discrete_vertex_report(samples(name, n))
    assert as_tuple(report) == (EXPECTED[name], 1, EXPECTED[name] if n >= 32 else None)


def _family(e, c, phi, w=1) -> AnalyticCurve:
    """((1 + e cos 2t) cos t, (1 + e cos 2t) sin t,
    c sin(2t + phi) + 0.2 c sin((2w + 1) t))."""
    return _fourier(
        [(1, 1 + e / 2, 0), (3, e / 2, 0)],
        [(1, 0, 1 - e / 2), (3, 0, e / 2)],
        [(2, c * np.sin(phi), c * np.cos(phi)), (2 * w + 1, 0, 0.2 * c)],
    )


@pytest.mark.parametrize(
    "e, c, phi, torsion, ns, miss",
    [
        (0.168, 0.640, 6.162, 6, (250, 1000), 1e-5),
        (0.188, 0.519, 3.624, 6, (250, 1000), 1e-5),
        (0.598, 0.470, 1.614, 8, (250, 1000), 1e-5),
        # 40 points read 6 at stride 1 and 4 at stride 2, and 10 are too few
        # to confirm either: with no plateau the loop's own 6 is the count
        (0.015, 0.771, 5.775, 6, (40,), 1e-6),
    ],
)
def test_convex_curves_with_six_or_eight_torsion_sign_changes_are_refused(
    e, c, phi, torsion, ns, miss
):
    # the bracket reads the torsion count, so the gate refuses loops on
    # which the forced formula misses the hull of the samples
    curve = _family(e, c, phi)
    assert count_vertices(frenet_profile(curve, 8192)).vertex_count == torsion
    for n in ns:
        loop = sample_uniform(curve, n)
        mesh = is_convex_curve(loop)
        assert mesh.is_convex
        with pytest.raises(VertexCountError) as info:
            hull_volume(loop)
        assert info.value.details["vertex_count"] == torsion
        hull = mesh_volume(mesh)
        assert abs(hull_volume(loop, force=True).volume - hull) > miss * hull


def test_a_loop_with_a_polygon_edge_through_its_hull_is_refused(tmp_path, capsys):
    # no sample is buried and the band reads 4 at stride 1, but edge (6, 7)
    # passes through the hull, where the formula misses it by 4.0e-3
    loop = sample_uniform(_family(0.2488, 0.5706, 5.5576), 24)
    assert as_tuple(discrete_vertex_report(loop)) == (4, 1, None)
    with pytest.raises(NonConvexCurveError) as info:
        hull_volume(loop)
    want = {"non_extreme_count": 0, "non_extreme_head": [],
            "interior_edge_count": 1, "interior_edge_head": [6]}
    assert info.value.details == want
    path = tmp_path / "loop24.txt"
    np.savetxt(path, loop.points, fmt="%.17g")
    assert main(["volume", str(path)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"gate": "convexity", "message": str(info.value), **want}


@given(
    e=st.floats(0.0, 0.9),
    c=st.floats(0.3, 1.0),
    phi=st.floats(0.0, 2 * np.pi),
    w=st.sampled_from([1, 2, 3]),
    n=st.integers(16, 200),
)
@settings(max_examples=400, deadline=None)
def test_a_loop_the_gates_accept_at_stride_one_is_summed_exactly(e, c, phi, w, n):
    # the discrete theorem's three hypotheses, all gated: every sample and
    # every polygon edge on the hull, and the band read 4 times at stride 1.
    # A loop accepted at a larger stride may miss its hull by ~1e-8
    loop = sample_uniform(_family(e, c, phi, w), n)
    try:
        result = hull_volume(loop)
    except GateError as exc:
        event(f"refused: {exc.gate}")
        return
    event(f"accepted at stride {result.vertex_report.stride}")
    assume(result.vertex_report.stride == 1)
    hull = mesh_volume(result.hull)
    assert abs(result.volume - hull) <= 1e-12 * hull
